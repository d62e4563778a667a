"""Numerical audits of candidate sup-energy minimisers.

``audit_absolute_minimality`` re-solves the minimization on seeded random
node-aligned subintervals with the candidate's own boundary values and
reports the deficit of the restricted candidate against each local
competitor: a positive deficit beyond tolerance refutes absolute minimality.

``build_comparison`` glues affine boundary layers of width delta onto an
interior profile; ``endpoint_quotient_scan`` drives the glued paths along a
shrinking delta schedule and compares the boundary-layer energies against the
global sup energy; ``semicontinuity_check`` tests the liminf inequality for a
finite family of approximating paths against a limit path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import power_energy, sup_energy
from .errors import BadDelta, GridTooCoarse, SupminError, TooFewEntries
from .lagrangian import LagrangianModel
from .path import AffineMap, Grid, Path, difference_quotient
from .solver import SolveOptions, SweepSchedule, m_sweep


@dataclass(frozen=True)
class AuditConfig:
    num_subintervals: int = 20
    min_elements: int = 3
    tol_audit: float = 1e-3  # relative
    seed: int = 0
    schedule: SweepSchedule | None = None
    options: SolveOptions | None = None

    def __post_init__(self):
        if self.num_subintervals < 1 or self.min_elements < 1:
            raise SupminError("audit config counts must be positive")
        if self.tol_audit <= 0:
            raise SupminError("tol_audit must be positive")


@dataclass(frozen=True)
class SubintervalAudit:
    alpha: float
    beta: float
    sup_global_restricted: float
    sup_local_solution: float
    deficit: float
    status: str  # "ok" | "violation" | "inconclusive"
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "sup_global_restricted": self.sup_global_restricted,
            "sup_local_solution": self.sup_local_solution,
            "deficit": self.deficit,
            "status": self.status,
            "error": self.error,
        }


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
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "tol_audit": self.tol_audit,
            "num_subintervals": len(self.entries),
            "violation_count": len(self.violations),
            "violations": self.violations,
            "max_deficit": self.max_deficit,
            "subintervals": [e.to_json_dict() for e in self.entries],
        }


def sample_subintervals(grid: Grid, config: AuditConfig) -> list[tuple[int, int]]:
    """Seeded random node pairs (i, j) spanning at least min_elements elements."""
    m_el = grid.num_elements
    if m_el < config.min_elements:
        raise SupminError("grid has fewer elements than the audit minimum")
    rng = np.random.default_rng(config.seed)
    pairs = []
    for _ in range(config.num_subintervals):
        i = int(rng.integers(0, m_el - config.min_elements + 1))
        j = int(rng.integers(i + config.min_elements, m_el + 1))
        pairs.append((i, j))
    return pairs


def _audit_one(model, candidate, i, j, config, seed):
    nodes = candidate.grid.nodes
    alpha, beta = float(nodes[i]), float(nodes[j])
    sup_global = sup_energy(model, candidate, (alpha, beta))
    u_a, u_b = candidate.values[i], candidate.values[j]
    b1 = (u_b - u_a) / (beta - alpha)
    chord = AffineMap(u_a - b1 * alpha, b1)
    subgrid = Grid(nodes[i : j + 1])
    schedule = config.schedule or SweepSchedule()
    sweep = m_sweep(model, subgrid, chord, schedule, config.options, seed=seed)
    if sweep.aborted:
        return SubintervalAudit(alpha, beta, sup_global, float("nan"), float("nan"),
                                "inconclusive", sweep.error)
    deficit = sup_global - sweep.sup_of_candidate
    status = "violation" if deficit > config.tol_audit * (1.0 + sup_global) else "ok"
    return SubintervalAudit(alpha, beta, sup_global, sweep.sup_of_candidate,
                            deficit, status)


def audit_absolute_minimality(model: LagrangianModel, candidate: Path,
                              config: AuditConfig | None = None) -> AuditReport:
    """Compare the restricted candidate to a fresh local re-solve on each
    sampled subinterval (its boundary carrier is the chord through the
    candidate's values there); failed local solves are marked inconclusive
    and excluded from pass/fail."""
    config = config or AuditConfig()
    pairs = sample_subintervals(candidate.grid, config)
    entries = [_audit_one(model, candidate, i, j, config, config.seed + 1000 + k)
               for k, (i, j) in enumerate(pairs)]
    return AuditReport(entries, config.tol_audit)


# -- comparison-map gluing ----------------------------------------------------


def snap_delta(grid: Grid, delta: float, clamp: bool = False) -> tuple[int, int]:
    """Node indices (i_left, i_right) of the layer junctions for width delta.

    The left junction is the largest node within delta of the left endpoint,
    the right junction the smallest node within delta of the right endpoint
    (widths snap down).  Without ``clamp`` a layer narrower than its boundary
    element raises GridTooCoarse; with it the junction falls back to the
    adjacent node.
    """
    nodes = grid.nodes
    a, b = grid.a, grid.b
    slack = 1.0 + 1e-12
    left_ok = np.nonzero((nodes > a) & (nodes - a <= delta * slack))[0]
    right_ok = np.nonzero((nodes < b) & (b - nodes <= delta * slack))[0]
    if left_ok.size == 0 or right_ok.size == 0:
        if not clamp:
            raise GridTooCoarse(f"no grid node within delta={delta} of an endpoint")
        i_left = 1 if left_ok.size == 0 else int(left_ok[-1])
        i_right = nodes.size - 2 if right_ok.size == 0 else int(right_ok[0])
    else:
        i_left, i_right = int(left_ok[-1]), int(right_ok[0])
    if i_left >= i_right:
        raise GridTooCoarse("boundary layers overlap; grid too coarse for delta")
    return i_left, i_right


def _glued_values(psi: Path, u_left, u_right, i_left: int, i_right: int) -> np.ndarray:
    nodes = psi.grid.nodes
    a, b = psi.grid.a, psi.grid.b
    values = np.array(psi.values)
    xl, xr = nodes[i_left], nodes[i_right]
    for k in range(i_left):
        values[k] = u_left + (nodes[k] - a) / (xl - a) * (psi.values[i_left] - u_left)
    for k in range(i_right + 1, nodes.size):
        values[k] = psi.values[i_right] + (nodes[k] - xr) / (b - xr) * (u_right - psi.values[i_right])
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
        raise BadDelta(f"delta must lie in (0, {length / 3.0}), got {delta}")
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
    if len(approx_paths) < 3:
        raise TooFewEntries("semicontinuity check needs at least 3 approximating paths")
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

    @property
    def left_limit(self) -> ScanEntry:
        return self.left[-1]

    @property
    def right_limit(self) -> ScanEntry:
        return self.right[-1]


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
    glued path over the layer; its value deviation is the largest distance of
    the glued nodal values there from the endpoint value.
    """
    grid = psi.grid
    length = grid.b - grid.a
    if delta_schedule is None:
        delta_schedule = default_delta_schedule(length)
    deltas = [float(d) for d in delta_schedule]
    if not deltas or any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise BadDelta("delta schedule must be strictly decreasing")
    if deltas[0] >= length / 3.0 or deltas[-1] <= 0.0:
        raise BadDelta("delta schedule must lie in (0, length/3)")

    u_left, u_right = psi.values[0], psi.values[-1]
    left_entries, right_entries = [], []
    for d in deltas:
        i_left, i_right = snap_delta(grid, d, clamp=True)
        d_left = float(grid.nodes[i_left] - grid.a)
        d_right = float(grid.b - grid.nodes[i_right])
        glued = Path(grid, _glued_values(psi, u_left, u_right, i_left, i_right))
        q_left = difference_quotient(psi, grid.a, d_left)
        q_right = difference_quotient(psi, grid.b, -d_right)
        for anchor, width, quotient, nodes, entries in (
                (u_left, d_left, q_left, slice(0, i_left + 1), left_entries),
                (u_right, d_right, q_right, slice(i_right, None), right_entries)):
            layer = grid.nodes[nodes]
            layer_sup = sup_energy(model, glued, (layer[0], layer[-1]))
            dev = float(np.max(np.linalg.norm(glued.values[nodes] - anchor, axis=1)))
            entries.append(ScanEntry(d, width, quotient, layer_sup, dev))

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
