"""Numerical audits of candidate sup-energy minimisers.

``audit_absolute_minimality`` re-solves the minimization on seeded random
node-aligned subintervals with the candidate's own boundary values and
reports the deficit of the restricted candidate against each local
competitor: a positive deficit beyond tolerance refutes absolute minimality.
The local sweeps run as one lockstep batch (``solver.m_sweep_many``), and
the restricted sups are slices of one evaluation of the candidate.  The
audit's settings, ``AuditConfig``, are defined in ``options``, beside the
sweep's.

``build_comparison`` glues affine boundary layers of width delta onto an
interior profile; ``endpoint_quotient_scan`` drives the glued paths along a
shrinking delta schedule and compares the boundary-layer energies against the
global sup energy; ``semicontinuity_check`` tests the liminf inequality for a
finite family of approximating paths against a limit path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .energy import MidpointPowerRule, power_energy, sup_energy
from .errors import SupminError
from .lagrangian import LagrangianModel
from .options import AuditConfig, _check_tol_audit
from .path import AffineMap, Grid, Path, difference_quotient
from .solver import m_sweep_many


@dataclass(frozen=True)
class SubintervalAudit:
    """One audited subinterval, its fields in the order ``audit.json``
    writes them."""

    alpha: float
    beta: float
    sup_global_restricted: float
    sup_local_solution: float
    deficit: float
    status: str  # "ok" | "violation" | "inconclusive"
    error: str | None
    stop_reasons: list  # the ``stop_reason`` of each record of the local sweep
    solve_totals: dict  # the local sweep's ``SweepResult.solve_totals``


@dataclass(frozen=True)
class AuditReport:
    entries: list
    tol_audit: float

    @property
    def violations(self) -> list:
        return [i for i, e in enumerate(self.entries) if e.status == "violation"]

    @property
    def max_deficit(self) -> float:
        conclusive = [e.deficit for e in self.entries if e.status != "inconclusive"]
        return float(max(conclusive)) if conclusive else float("nan")

    @property
    def passed(self) -> bool:
        """No violation, and at least one subinterval decided."""
        return not self.violations and any(e.status != "inconclusive" for e in self.entries)

    @property
    def solve_totals(self) -> dict:
        """Iterations, objective and gradient evaluations summed over the
        subintervals' local sweeps."""
        return {key: sum(e.solve_totals[key] for e in self.entries)
                for key in ("iterations", "f_evals", "g_evals")}

    def to_json_dict(self) -> dict:
        return {
            "tol_audit": self.tol_audit,
            "num_subintervals": len(self.entries),
            "violation_count": len(self.violations),
            "violations": self.violations,
            "max_deficit": self.max_deficit,
            "solve_totals": self.solve_totals,
            "subintervals": [{f.name: getattr(e, f.name) for f in fields(e)}
                             for e in self.entries],
        }


def sample_subintervals(grid: Grid, config: AuditConfig) -> list[tuple[int, int]]:
    """The distinct node pairs (i, j), in first-draw order, among
    num_subintervals seeded random draws spanning at least min_elements
    elements each."""
    m_el = grid.num_elements
    if m_el < config.min_elements:
        raise SupminError("grid has fewer elements than the audit minimum")
    rng = np.random.default_rng(config.seed)
    pairs = {}
    for _ in range(config.num_subintervals):
        i = int(rng.integers(0, m_el - config.min_elements + 1))
        j = int(rng.integers(i + config.min_elements, m_el + 1))
        pairs[i, j] = None
    return list(pairs)


def _entry(alpha, beta, sup_global, sweep, config) -> SubintervalAudit:
    sup_local, deficit, status, error = (sweep.sup_of_candidate, float("nan"),
                                         "inconclusive", sweep.error)
    if sweep.aborted:
        sup_local = float("nan")
    elif not (last := sweep.records[-1]).stats.converged:
        error = f"m={last.m}: stopped at {last.stats.stop_reason}"
    else:
        deficit = sup_global - sup_local
        status = "violation" if deficit > config.tol_audit * (1.0 + sup_global) else "ok"
    return SubintervalAudit(alpha, beta, sup_global, sup_local, deficit, status, error,
                            [rec.stats.stop_reason for rec in sweep.records],
                            sweep.solve_totals)


def audit_absolute_minimality(model: LagrangianModel, candidate: Path,
                              config: AuditConfig | None = None) -> AuditReport:
    """Compare the restricted candidate to a fresh local re-solve on each
    distinct sampled subinterval (its boundary carrier is the chord through
    the candidate's values there).  Both sups are midpoint-rule values, those
    of the discrete problem the local sweep minimises.  A local sweep that
    aborted, or whose last solve stopped at ``max_iters`` or ``line_search``
    before its Newton decrement reached the round-off floor, makes its
    subinterval inconclusive (NaN deficit), excluded from pass/fail; a report
    with no conclusive subinterval does not pass.

    The subintervals are node-aligned, so the samples of the restricted
    candidate over nodes i..j are elements i..j-1 of one midpoint evaluation
    on the whole grid, the rows ``sup_energy`` would evaluate.  The local
    sweeps, and every restart of each, run as one lockstep batch
    (``m_sweep_many``)."""
    config = config or AuditConfig()
    pairs = sample_subintervals(candidate.grid, config)
    nodes = candidate.grid.nodes
    rule = MidpointPowerRule(1, [(candidate.grid, None)])
    sampled = rule.samples(model, candidate.values).sampled
    problems = []
    for k, (i, j) in enumerate(pairs):
        alpha, beta = float(nodes[i]), float(nodes[j])
        u_a, u_b = candidate.values[i], candidate.values[j]
        b1 = (u_b - u_a) / (beta - alpha)
        chord = AffineMap(u_a - b1 * alpha, b1)
        problems.append((Grid(nodes[i : j + 1]), chord, None, config.seed + 1000 + k))
    sweeps = m_sweep_many(model, problems, config.schedule, config.options)
    entries = [_entry(float(nodes[i]), float(nodes[j]), float(np.max(sampled[i:j])), sweep, config)
               for (i, j), sweep in zip(pairs, sweeps)]
    return AuditReport(entries, config.tol_audit)


# -- comparison-map gluing ----------------------------------------------------


def snap_delta(grid: Grid, delta: float, clamp: bool = False) -> tuple[int, int]:
    """Node indices (i_left, i_right) of the layer junctions for width delta.

    The left junction is the largest node within delta of the left endpoint,
    the right junction the smallest node within delta of the right endpoint
    (widths snap down).  Without ``clamp`` a layer narrower than its boundary
    element raises SupminError; with it the junction falls back to the
    adjacent node.
    """
    nodes = grid.nodes
    a, b = grid.a, grid.b
    slack = 1.0 + 1e-12
    left_ok = np.nonzero((nodes > a) & (nodes - a <= delta * slack))[0]
    right_ok = np.nonzero((nodes < b) & (b - nodes <= delta * slack))[0]
    if left_ok.size == 0 or right_ok.size == 0:
        if not clamp:
            raise SupminError(f"no grid node within delta={delta} of an endpoint")
        i_left = 1 if left_ok.size == 0 else int(left_ok[-1])
        i_right = nodes.size - 2 if right_ok.size == 0 else int(right_ok[0])
    else:
        i_left, i_right = int(left_ok[-1]), int(right_ok[0])
    if i_left >= i_right:
        raise SupminError("boundary layers overlap; grid too coarse for delta")
    return i_left, i_right


def _glued_values(psi: Path, u_left, u_right, i_left: int, i_right: int) -> np.ndarray:
    nodes = psi.grid.nodes
    a, b = psi.grid.a, psi.grid.b
    values = np.array(psi.values)
    xl, xr = nodes[i_left], nodes[i_right]
    left, right = nodes[:i_left], nodes[i_right + 1 :]
    values[:i_left] = u_left + ((left - a) / (xl - a))[:, None] * (psi.values[i_left] - u_left)
    values[i_right + 1 :] = psi.values[i_right] + ((right - xr) / (b - xr))[:, None] * (
        u_right - psi.values[i_right])
    values[0] = u_left
    values[-1] = u_right
    return values


def build_comparison(u_left, u_right, psi: Path, delta: float) -> Path:
    """Glue affine boundary layers of width delta (snapped down to nodes)
    onto the interior of psi.

    The result equals the affine run from u_left to psi(a+delta) on the left
    layer, psi itself strictly between the junction nodes, and the affine run
    from psi(b-delta) to u_right on the right layer; endpoint values are
    exactly u_left and u_right, and each layer slope is the corresponding
    difference quotient of the junction values.
    """
    u_left = np.atleast_1d(np.asarray(u_left, dtype=float))
    u_right = np.atleast_1d(np.asarray(u_right, dtype=float))
    if u_left.shape != (psi.dim,) or u_right.shape != (psi.dim,):
        raise SupminError("boundary values must match the path dimension")
    length = psi.grid.b - psi.grid.a
    if not (0.0 < delta < length / 3.0):
        raise SupminError(f"delta must lie in (0, {length / 3.0}), got {delta}")
    i_left, i_right = snap_delta(psi.grid, delta)
    return Path(psi.grid, _glued_values(psi, u_left, u_right, i_left, i_right))


# -- proof-step checks ---------------------------------------------------------


@dataclass(frozen=True)
class SemicontinuityResult:
    lhs: float
    liminf_rhs_estimate: float
    passed: bool
    roots: list


def semicontinuity_check(model: LagrangianModel, approx_paths, limit_path: Path,
                         subinterval=None, tol_audit: float = 1e-3) -> SemicontinuityResult:
    """Check sup_energy(limit) <= liminf of the normalized power roots of the
    approximating paths, the liminf estimated as the minimum over the last
    half of the finite sequence."""
    _check_tol_audit(tol_audit)
    if len(approx_paths) < 3:
        raise SupminError("semicontinuity check needs at least 3 approximating paths")
    ms = [m for m, _ in approx_paths]
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise SupminError("exponents must be strictly increasing")
    lhs = sup_energy(model, limit_path, subinterval)
    roots = [power_energy(model, p, m, subinterval).normalized_root for m, p in approx_paths]
    liminf_est = float(min(roots[len(roots) // 2 :]))
    passed = lhs <= liminf_est + tol_audit * (1.0 + lhs)
    return SemicontinuityResult(float(lhs), liminf_est, passed, roots)


@dataclass(frozen=True)
class ScanEntry:
    delta_requested: float
    delta: float
    quotient: np.ndarray
    layer_sup: float
    value_dev: float


@dataclass(frozen=True)
class EndpointScan:
    left: list
    right: list
    left_cauchy: bool
    right_cauchy: bool
    global_sup: float
    bounded: bool


def default_delta_schedule(length: float) -> list[float]:
    """Eight widths 0.3 * length * 2^-i, i = 1..8."""
    return [0.3 * length * 2.0 ** (-i) for i in range(1, 9)]


def endpoint_quotient_scan(model: LagrangianModel, psi: Path, delta_schedule=None,
                           tol_audit: float = 1e-3) -> EndpointScan:
    """Difference quotients and glued-layer energies at both endpoints along a
    decreasing delta schedule.

    Widths snap down to grid nodes and clamp at the boundary element once the
    schedule outruns the grid.  The last entries estimate the endpoint limits
    (flagged Cauchy when the final step moved less than tol_audit), and the
    scan verifies that those limit layer energies do not exceed the global
    sup energy beyond tolerance.  A layer's energy is ``sup_energy`` of the
    glued path over the layer, the largest midpoint sample of its elements,
    by the same rule as the global sup; its value deviation is the largest
    distance of the glued nodal values there from the endpoint value.
    """
    _check_tol_audit(tol_audit)
    grid = psi.grid
    length = grid.b - grid.a
    if delta_schedule is None:
        delta_schedule = default_delta_schedule(length)
    deltas = [float(d) for d in delta_schedule]
    if not deltas or not all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise SupminError("delta schedule must be strictly decreasing")
    if not (0.0 < deltas[-1] and deltas[0] < length / 3.0):
        raise SupminError("delta schedule must lie in (0, length/3)")

    u_left, u_right = psi.values[0], psi.values[-1]
    rule = MidpointPowerRule(1, [(grid, None)])
    left_entries, right_entries = [], []
    for d in deltas:
        i_left, i_right = snap_delta(grid, d, clamp=True)
        d_left = float(grid.nodes[i_left] - grid.a)
        d_right = float(grid.b - grid.nodes[i_right])
        glued = _glued_values(psi, u_left, u_right, i_left, i_right)
        sampled = rule.samples(model, glued).sampled
        q_left = difference_quotient(psi, grid.a, d_left)
        q_right = difference_quotient(psi, grid.b, -d_right)
        # the samples of a layer over nodes i..j are elements i..j-1 of the whole grid's
        for anchor, width, quotient, (i, j), entries in (
                (u_left, d_left, q_left, (0, i_left), left_entries),
                (u_right, d_right, q_right, (i_right, grid.nodes.size - 1), right_entries)):
            dev = float(np.max(np.linalg.norm(glued[i : j + 1] - anchor, axis=1)))
            entries.append(ScanEntry(d, width, quotient, float(np.max(sampled[i:j])), dev))

    def cauchy(entries):
        if len(entries) < 2:
            return False
        a, b = entries[-2], entries[-1]
        q_ok = float(np.linalg.norm(a.quotient - b.quotient)) <= tol_audit * (
            1.0 + float(np.linalg.norm(b.quotient)))
        s_ok = abs(a.layer_sup - b.layer_sup) <= tol_audit * (1.0 + abs(b.layer_sup))
        return bool(q_ok and s_ok)

    global_sup = sup_energy(model, psi)
    allowance = tol_audit * (1.0 + abs(global_sup))
    bounded = (left_entries[-1].layer_sup <= global_sup + allowance
               and right_entries[-1].layer_sup <= global_sup + allowance)
    return EndpointScan(left_entries, right_entries, cauchy(left_entries),
                        cauchy(right_entries), float(global_sup), bool(bounded))
