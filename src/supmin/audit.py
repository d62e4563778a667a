"""Numerical audits of candidate sup-energy minimisers.

``audit_absolute_minimality`` re-solves the minimization on seeded random
node-aligned subintervals with the candidate's own boundary values and
reports the deficit of the restricted candidate against each local
competitor: a positive deficit beyond tolerance refutes absolute minimality.
A local sweep that aborted, stopped short, or ended above the restricted
candidate's sup beyond tolerance decides nothing (inconclusive).  Each
subinterval is the discrete problem on the grid of its nodes.  The local
sweeps run as one lockstep batch (``solver.m_sweep_many``), and the
restricted sups are slices of one evaluation of the candidate.  The audit's
settings, ``AuditConfig``, are defined in ``options``, beside the sweep's;
its tolerance and least subinterval are the constants ``TOL_AUDIT`` and
``MIN_ELEMENTS``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .energy import MidpointPowerRule
from .errors import SupminError
from .lagrangian import LagrangianModel
from .options import AuditConfig
from .path import AffineMap, Grid, Path, interpolate_affine
from .solver import m_sweep_many

# the relative tolerance of a deficit: an allowance of TOL_AUDIT * (1 + sup)
TOL_AUDIT = 1e-3
# the fewest elements of a sampled subinterval; one element has no free node
# to re-solve
MIN_ELEMENTS = 3


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
    sweep_stop_reason: str  # the local sweep's: "settled" | "m_max" | "aborted"
    solve_totals: dict  # the local sweep's ``SweepResult.solve_totals``


@dataclass(frozen=True)
class AuditReport:
    entries: list

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
            "tol_audit": TOL_AUDIT,
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
    num_subintervals seeded random draws spanning at least ``MIN_ELEMENTS``
    elements each."""
    m_el = grid.num_elements
    if m_el < MIN_ELEMENTS:
        raise SupminError("grid has fewer elements than the audit minimum")
    rng = np.random.default_rng(config.seed)
    pairs = {}
    for _ in range(config.num_subintervals):
        i = int(rng.integers(0, m_el - MIN_ELEMENTS + 1))
        j = int(rng.integers(i + MIN_ELEMENTS, m_el + 1))
        pairs[i, j] = None
    return list(pairs)


def _entry(alpha, beta, sup_global, sweep) -> SubintervalAudit:
    sup_local, deficit, status, error = (sweep.sup_of_candidate, float("nan"),
                                         "inconclusive", sweep.error)
    allowance = TOL_AUDIT * (1.0 + sup_global)
    if sweep.aborted:
        sup_local = float("nan")
    elif not (last := sweep.records[-1]).stats.converged:
        error = f"m={last.m}: stopped at {last.stats.stop_reason}"
    elif sup_local > sup_global + allowance:
        # the restricted candidate is a competitor the local sweep did not match
        error = (f"local sup {sup_local!r} above the restricted candidate's sup "
                 f"{sup_global!r}: the local min-max was not found")
    else:
        deficit = sup_global - sup_local
        status = "violation" if deficit > allowance else "ok"
    return SubintervalAudit(alpha, beta, sup_global, sup_local, deficit, status, error,
                            [rec.stats.stop_reason for rec in sweep.records],
                            sweep.stop_reason, sweep.solve_totals)


def audit_absolute_minimality(model: LagrangianModel, candidate: Path,
                              config: AuditConfig | None = None) -> AuditReport:
    """Compare the restricted candidate to a fresh local re-solve on each
    distinct sampled subinterval (its boundary carrier is the chord through
    the candidate's values there).  Both sups are midpoint-rule values, those
    of the discrete problem the local sweep minimises.  A subinterval is
    inconclusive (NaN deficit), excluded from pass/fail, when its local
    sweep aborted, when its last solve stopped at ``max_iters`` or
    ``line_search``, or when its local sup lies above the restricted sup by
    more than ``TOL_AUDIT * (1 + sup)``: the restricted candidate competes
    there, so that sweep missed the local min-max.  A report with no
    conclusive subinterval does not pass.

    The restricted candidate over nodes i..j, ``Path(Grid(nodes[i:j+1]),
    values[i:j+1])``, has bitwise the samples of elements i..j-1 of one
    midpoint evaluation on the whole grid.  The local sweeps, and every
    restart of each, run as one lockstep batch (``m_sweep_many``)."""
    config = config or AuditConfig()
    pairs = sample_subintervals(candidate.grid, config)
    nodes = candidate.grid.nodes
    sampled = MidpointPowerRule([candidate.grid]).evaluate(model, candidate.values)
    problems = []
    for k, (i, j) in enumerate(pairs):
        alpha, beta = float(nodes[i]), float(nodes[j])
        u_a, u_b = candidate.values[i], candidate.values[j]
        b1 = (u_b - u_a) / (beta - alpha)
        grid = Grid(nodes[i : j + 1])
        start = interpolate_affine(AffineMap(u_a - b1 * alpha, b1), grid).values
        problems.append((grid, start, config.seed + 1000 + k))
    sweeps = m_sweep_many(model, problems, config.schedule, config.options)
    entries = [_entry(float(nodes[i]), float(nodes[j]), float(np.max(sampled[i:j])), sweep)
               for (i, j), sweep in zip(pairs, sweeps)]
    return AuditReport(entries)
