"""Power-energy minimization over paths with clamped affine boundary values.

``minimize_power`` runs a limited-memory quasi-Newton descent (two-loop
recursion, Armijo backtracking) on the normalized power root for one
exponent m.  It prepares one ``MidpointPowerRule`` (the rule behind the
public ``power_energy`` and ``power_energy_gradient``) per solve, evaluates L
once per trial iterate, and takes the gradient of an accepted trial from that
trial's samples and one first-order jet.  ``m_sweep`` chains solves over the
exponents m = 2, 4, 8, ... up to ``m_max``, warm-starting each exponent from
the previous minimizer, and extracts the final path as the sup-energy
candidate.  Everything is deterministic: fixed accumulation order, no
randomness unless restarts > 1, in which case the perturbed starts are drawn
from a caller-supplied seed.

The line search and the quasi-Newton memory are constants, not options, as
no caller has needed other values.  Each line search tries the full
quasi-Newton step first (``INIT_STEP`` = 1; the two-loop recursion scales the
direction to a Newton-sized step), halves it (``BACKTRACK`` = 0.5) until the
Armijo condition with the customary constant ``SUFFICIENT_DECREASE`` = 1e-4
holds, and fails below ``MIN_STEP`` = 1e-20, far below the resolution of a
double at unit scale.  ``HISTORY`` = 10 curvature pairs is the usual L-BFGS
memory (Nocedal & Wright, *Numerical Optimization*, ch. 3 and 7).  What a
caller sets in ``SolveOptions`` is the stopping rule: the gradient tolerance
and the iteration budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import MidpointPowerRule, sup_energy
from .errors import NonFinite, SupminError
from .lagrangian import LagrangianModel
from .path import AffineMap, Grid, Path, interpolate_affine


INIT_STEP = 1.0
BACKTRACK = 0.5
SUFFICIENT_DECREASE = 1e-4
MIN_STEP = 1e-20
HISTORY = 10


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 2000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if min(self.max_iters, self.grad_tol) <= 0:
            raise SupminError("solve options must be positive")


@dataclass(frozen=True)
class SolveStats:
    """Why and where one solve stopped.  ``f_evals`` counts objective
    evaluations (the start and every line-search trial)."""

    iterations: int
    grad_norm: float
    objective: float
    converged: bool
    line_search_failed: bool = False
    f_evals: int = 0

    @property
    def g_evals(self) -> int:
        """Gradient evaluations: the start and every accepted trial."""
        return self.iterations + 1


@dataclass(frozen=True)
class SweepSchedule:
    m_max: int = 1024
    tol_sweep: float = 1e-4
    restarts: int = 1

    def __post_init__(self):
        if self.m_max < 2:
            raise SupminError("schedule needs m_max >= 2")
        if self.tol_sweep <= 0:
            raise SupminError("tol_sweep must be positive")
        if self.restarts < 1:
            raise SupminError("restarts must be >= 1")

    def exponents(self) -> list[int]:
        """2, 4, 8, ... up to m_max."""
        return [2**k for k in range(1, self.m_max.bit_length())]


@dataclass(frozen=True)
class SweepRecord:
    """One exponent of a sweep; ``stats.objective`` is its normalized root."""

    m: int
    path: Path
    stats: SolveStats


@dataclass(frozen=True)
class SweepResult:
    records: list
    candidate: Path
    sup_of_candidate: float
    aborted: bool = False
    error: str | None = None
    restart_sups: list = field(default_factory=list)
    tied_candidates: list = field(default_factory=list)

    @property
    def c_sequence(self) -> np.ndarray:
        """The normalized roots of the records, one per exponent."""
        return np.array([rec.stats.objective for rec in self.records])


def minimize_power(model: LagrangianModel, grid: Grid, boundary: AffineMap, m: int,
                   init: Path | None = None, options: SolveOptions | None = None):
    """Minimize the normalized power root of order m over interior nodes.

    Endpoints are clamped to boundary(a), boundary(b) and never updated.
    Returns (path, stats); on a failed line search the best iterate found so
    far is returned with the failure flagged in the stats.
    """
    opts = options or SolveOptions()
    if init is None:
        init = interpolate_affine(boundary, grid)
    if init.grid.nodes.shape != grid.nodes.shape or np.any(init.grid.nodes != grid.nodes):
        raise SupminError("init path must live on the solve grid")
    values = np.array(init.values)
    values[0] = boundary(grid.a)
    values[-1] = boundary(grid.b)
    free = slice(1, values.shape[0] - 1)
    rule = MidpointPowerRule(grid, m)

    samples = rule.samples(model, values)
    f = samples.root
    g = rule.gradient(model, samples)[free]
    f_evals = 1
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise NonFinite("objective or gradient not finite at the initial path")

    memory: deque = deque(maxlen=HISTORY)
    iterations = 0
    line_search_failed = False
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0

    while gnorm > opts.grad_tol and iterations < opts.max_iters:
        d = _two_loop_direction(memory, g)
        slope = float(np.sum(d * g))
        if slope >= 0.0:  # not a descent direction; fall back to steepest descent
            d = -g
            slope = -float(np.sum(g * g))
        step = INIT_STEP
        accepted = False
        while step >= MIN_STEP:
            trial = values.copy()
            trial[free] += step * d
            trial_samples = rule.samples(model, trial)
            f_trial = trial_samples.root
            f_evals += 1
            if np.isfinite(f_trial) and f_trial <= f + SUFFICIENT_DECREASE * step * slope:
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            line_search_failed = True
            break
        g_trial = rule.gradient(model, trial_samples)[free]
        s = step * d
        y = g_trial - g
        sy = float(np.sum(s * y))
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            memory.append((s, y, 1.0 / sy))
        values, f, g = trial, f_trial, g_trial
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        iterations += 1

    stats = SolveStats(
        iterations=iterations,
        grad_norm=gnorm,
        objective=f,
        converged=gnorm <= opts.grad_tol,
        line_search_failed=line_search_failed,
        f_evals=f_evals,
    )
    return Path(grid, values), stats


def _two_loop_direction(memory, g):
    """L-BFGS two-loop recursion; s, y, g and the result share one shape."""
    d = -g
    if not memory:
        return d
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(np.sum(s * d))
        alphas.append(a)
        d = d - a * y
    s_last, y_last, _ = memory[-1]
    yy = float(np.sum(y_last * y_last))
    if yy > 0:
        d = d * (float(np.sum(s_last * y_last)) / yy)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(np.sum(y * d))
        d = d + (a - b) * s
    return d


def m_sweep(model: LagrangianModel, grid: Grid, boundary: AffineMap,
            schedule: SweepSchedule | None = None, options: SolveOptions | None = None,
            init: Path | None = None, seed: int = 0) -> SweepResult:
    """Warm-started solves over m = 2, 4, 8, ... up to m_max,
    stopping early once the normalized roots stall within tol_sweep.

    The final minimizer is the candidate; its sup energy over the whole
    interval is reported alongside the root sequence.  With restarts > 1 the
    sweep is repeated from seeded perturbed initial paths and the candidate
    with the smallest sup energy wins; distinct candidates whose sup energies
    tie within tol_sweep are all reported.
    """
    schedule = schedule or SweepSchedule()
    if schedule.restarts == 1:
        return _single_sweep(model, grid, boundary, schedule, options, init)

    rng = np.random.default_rng(seed)
    base = init if init is not None else interpolate_affine(boundary, grid)
    scale = 1.0 + float(np.max(np.abs(base.values)))
    results = []
    for start in range(schedule.restarts):
        if start == 0:
            start_path = base
        else:
            values = np.array(base.values)
            values[1:-1] += rng.normal(scale=0.1 * scale, size=values[1:-1].shape)
            start_path = Path(grid, values)
        results.append(_single_sweep(model, grid, boundary, schedule, options, start_path))
    sups = [res.sup_of_candidate if not res.aborted else np.inf for res in results]
    best = int(np.argmin(sups))
    chosen = results[best]
    tol = schedule.tol_sweep * (1.0 + abs(sups[best]))
    ties = [
        res.candidate
        for i, res in enumerate(results)
        if i != best
        and np.isfinite(sups[i])
        and abs(sups[i] - sups[best]) <= tol
        and np.max(np.abs(res.candidate.values - chosen.candidate.values)) > tol
    ]
    return replace(chosen, restart_sups=[float(s) for s in sups], tied_candidates=ties)


def _single_sweep(model, grid, boundary, schedule, options, init) -> SweepResult:
    records = []
    aborted = False
    error = None
    current = init
    prev_root = None
    for m in schedule.exponents():
        try:
            path, stats = minimize_power(model, grid, boundary, m, current, options)
        except NonFinite as exc:
            aborted, error = True, f"m={m}: {exc}"
            break
        records.append(SweepRecord(m, path, stats))
        current = path
        root = stats.objective
        if prev_root is not None and abs(root - prev_root) <= schedule.tol_sweep * (1.0 + abs(root)):
            break
        prev_root = root
    if not records:
        empty = init if init is not None else interpolate_affine(boundary, grid)
        return SweepResult([], empty, np.nan, aborted=True, error=error)
    candidate = records[-1].path
    sup = sup_energy(model, candidate)
    return SweepResult(records, candidate, float(sup), aborted=aborted, error=error)
