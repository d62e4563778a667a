"""Power-energy minimization over paths with clamped affine boundary values.

``minimize_power`` runs a damped Newton descent (exact Hessian, Armijo
backtracking) on the normalized power root for one exponent m.  It prepares
one ``MidpointPowerRule`` (the rule behind the public ``power_energy`` and
``power_energy_gradient``) per solve, evaluates L once per trial iterate,
and takes the gradient and Hessian of an accepted trial from that trial's
samples and one jet.  ``m_sweep`` chains solves over the exponents m = 2, 4, 8,
... up to ``m_max``, warm-starting each exponent from the previous
minimizer, and extracts the final path as the sup-energy candidate.
Everything is deterministic: fixed accumulation order, no randomness unless
restarts > 1, in which case the perturbed starts are drawn from a
caller-supplied seed.

The midpoint rule couples only neighbouring nodes, so the Hessian of the
root is block tridiagonal with N x N blocks (``MidpointPowerRule.derivatives``)
minus one rank-one term, ``(m-1)/root g g^T``.  ``_block_tridiagonal_solve``
solves the block-tridiagonal part by block cyclic reduction: O(M N^3) flops
for M nodes in ``M.bit_length()`` stacked solves, each eliminating every
other remaining node, so the number of numpy calls grows with log M, not
M.  Since the rank-one vector is the gradient, the right-hand side of the
Newton system, Sherman-Morrison turns that one solve into the exact Newton
step.  The problem is conditioned like a discrete Laplacian, 1/h^2, which
a first-order method pays for with iteration counts linear in M; Newton's
do not grow with M (Nocedal & Wright, *Numerical Optimization*, ch. 3).
When the direction is not a finite descent direction, as where L is not
convex or the Hessian is singular, the iteration steps along -g instead.
A trial at which the model overflows is a rejected step, like one that
fails the Armijo test.

The line search is constant, not an option, as no caller has needed other
values.  Each line search tries the full Newton step first (``INIT_STEP`` =
1, the step that minimises the local quadratic model, so near a minimiser
it is accepted and convergence is quadratic), halves it (``BACKTRACK`` =
0.5) until the Armijo condition with the customary constant
``SUFFICIENT_DECREASE`` = 1e-4 holds, and fails below ``MIN_STEP`` = 1e-20,
far below the resolution of a double at unit scale.  What a caller sets in
``SolveOptions`` is the iteration budget.

A solve converges when the Newton decrement reaches the round-off floor of
the objective: ``-g.d <= eps f``, with d the direction the iteration was
about to take (``-g`` on the fallback, where the test reads
``|g|^2 <= eps f``) and eps the spacing of doubles at 1.  There the
decrease ``-g.d / 2`` that the local quadratic model predicts for the full
step is at most ``eps f / 2``, less than one ulp of f, so no step can gain
anything that shows.
The decrement is invariant under affine changes of variables (Boyd &
Vandenberghe, *Convex Optimization*, 9.5.1), so the rule needs no tolerance
scaled to the grid, the model or the exponent.  f = 0 is a global minimum
(L >= 0) and stops the solve too.  A solve stops for one of three reasons,
reported as ``SolveStats.stop_reason``: ``decrement`` (the only one that
counts as converged), ``max_iters`` or ``line_search`` (no step down to
``MIN_STEP`` passed the Armijo test).  A sweep reports its own
``stop_reason``: ``tol_sweep``, ``m_max`` or ``aborted``.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 2000

    def __post_init__(self):
        if not self.max_iters > 0:  # written so that NaN fails it
            raise SupminError("max_iters must be positive")


@dataclass(frozen=True)
class SolveStats:
    """Why and where one solve stopped.  ``stop_reason`` is one of
    ``decrement``, ``max_iters`` or ``line_search``; ``f_evals`` counts
    objective evaluations (the start and every line-search trial)."""

    iterations: int
    grad_norm: float
    objective: float
    stop_reason: str
    f_evals: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "decrement"

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
        if not self.tol_sweep > 0:
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
    """One sweep's records and candidate.  ``stop_reason`` is ``tol_sweep``
    (the roots settled), ``m_max`` (every exponent ran) or ``aborted`` (a
    solve failed); ``solves`` holds the stats of every solve run, across all
    restarts, whereas ``records`` keeps the chosen sweep's alone."""

    records: list
    candidate: Path
    sup_of_candidate: float
    stop_reason: str
    error: str | None = None
    restart_sups: list = field(default_factory=list)
    tied_candidates: list = field(default_factory=list)
    solves: list = field(default_factory=list)

    @property
    def aborted(self) -> bool:
        return self.stop_reason == "aborted"

    @property
    def c_sequence(self) -> np.ndarray:
        """The normalized roots of the records, one per exponent."""
        return np.array([rec.stats.objective for rec in self.records])

    @property
    def solve_totals(self) -> dict:
        """Iterations, objective and gradient evaluations summed over ``solves``."""
        return {key: sum(getattr(stats, key) for stats in self.solves)
                for key in ("iterations", "f_evals", "g_evals")}


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
    if not boundary.dim == init.dim == model.dim:
        raise SupminError(f"boundary dimension {boundary.dim} and init dimension {init.dim} "
                          f"must equal the model dimension {model.dim}")
    values = np.array(init.values)
    values[0] = boundary(grid.a)
    values[-1] = boundary(grid.b)
    rule = MidpointPowerRule(grid, m)

    samples = rule.samples(model, values)
    f = samples.root
    f_evals = 1
    iterations = 0

    while True:
        grad, hessian = rule.derivatives(model, samples)
        if f == 0.0:  # L >= 0, so this is a global minimum
            stop_reason = "decrement"
            break
        d = _newton_direction(grad, hessian, (rule.m - 1) / f)
        slope = float(np.sum(d * grad))
        if not -np.inf < slope < 0.0:  # no finite descent; fall back to steepest descent
            d = -grad
            with np.errstate(over="ignore"):  # an infinite slope fails the Armijo test
                slope = -float(np.sum(grad * grad))
        if -slope <= np.finfo(float).eps * f:  # the decrement is at f's round-off floor
            stop_reason = "decrement"
            break
        if iterations >= opts.max_iters:
            stop_reason = "max_iters"
            break
        step = INIT_STEP
        accepted = False
        while step >= MIN_STEP:
            trial = values.copy()
            trial += step * d
            f_evals += 1
            try:
                trial_samples = rule.samples(model, trial)
            except NonFinite:  # the model overflows at the trial: reject the step
                step *= BACKTRACK
                continue
            f_trial = trial_samples.root
            if f_trial <= f + SUFFICIENT_DECREASE * step * slope:
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            stop_reason = "line_search"
            break
        values, f, samples = trial, f_trial, trial_samples
        iterations += 1

    stats = SolveStats(iterations, float(np.max(np.abs(grad))), f, stop_reason, f_evals)
    return Path(grid, values), stats


def _newton_direction(grad, hessian, sigma):
    """The Newton direction -H^{-1} grad of the normalized root, one row per
    node, or NaN rows when the element part of H is singular.

    ``hessian`` is the block-tridiagonal element part B = (diag, upper) of
    H from ``MidpointPowerRule.derivatives``, and H is B minus the rank-one
    term sigma grad grad^T, sigma = (m-1)/root.  The right-hand side is
    that same vector, so Sherman-Morrison reduces to a scalar: with
    z = B^{-1} grad, H^{-1} grad = z / (1 - sigma grad.z), one single-column
    block solve.
    """
    diag, upper = hessian
    with np.errstate(all="ignore"):  # a singular or indefinite H fails the descent test
        try:
            z = _block_tridiagonal_solve(diag, upper, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return np.full_like(grad, np.nan)
        return -z / (1.0 - sigma * float(np.sum(grad * z)))


def _block_tridiagonal_solve(diag, upper, rhs):
    """Solve the symmetric block-tridiagonal system with diagonal blocks
    ``diag`` (K, N, N), blocks ``upper`` (K-1, N, N) above the diagonal and
    their transposes below, for ``rhs`` (K, N, C), by block cyclic reduction
    (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).

    The system is padded with identity rows to 2^p - 1 rows, p =
    ``K.bit_length()``.  Each level eliminates every other row: one stacked
    ``np.linalg.solve`` of the eliminated rows' diagonal blocks against
    their two couplings and their right-hand side, then a Schur complement
    onto the kept rows, which form a system of the same shape with half the
    rows.  The last level has one row, so a solve makes p stacked solves and
    O(K N^3) flops; back-substitution reuses the solved blocks and solves
    nothing.  Both arguments of every solve are 3-D stacks, which numpy 1
    and 2 read alike.  Only the upper couplings are kept, since every
    Schur complement of a symmetric system is symmetric.
    """
    k, n, c = rhs.shape
    size = (1 << k.bit_length()) - 1
    # coupling[i] couples rows i - 1 and i; rows -1 and size are zero
    coupling = np.zeros((size + 1, n, n))
    coupling[1:k] = upper
    pivots = np.zeros((size, n, n))
    pivots[:k] = diag
    pivots[k:] = np.eye(n)
    right = np.zeros((size, n, c))
    right[:k] = rhs
    levels = []
    while len(pivots) > 1:
        before, after = coupling[0::2], coupling[1::2]
        # pivot^{-1} [coupling to the row before, to the row after, rhs]
        gains = np.linalg.solve(pivots[0::2], np.concatenate(
            [before.transpose(0, 2, 1), after, right[0::2]], axis=2))
        # what each kept row takes from the eliminated row after it (indexed
        # by that row) and from the one before it
        from_after = before @ gains
        from_before = after[:-1].transpose(0, 2, 1) @ gains[:-1, :, n:]
        pivots = pivots[1::2] - from_before[..., :n] - from_after[1:, :, :n]
        right = right[1::2] - from_before[..., n:] - from_after[1:, :, 2 * n:]
        # the two kept rows beside an eliminated row are coupled through it
        coupling = -from_after[..., n:2 * n]
        levels.append(gains)
    # row i of the solution is out[i + 1], between two zero rows
    out = np.zeros((size + 2, n, c))
    out[len(out) // 2] = np.linalg.solve(pivots, right)[0]
    for level in range(len(levels) - 1, -1, -1):
        gains, step = levels[level], 1 << level
        out[step::2 * step] = (gains[..., 2 * n:] - gains[..., :n] @ out[:-1:2 * step]
                               - gains[..., n:2 * n] @ out[2 * step::2 * step])
    return out[1:k + 1]


def m_sweep(model: LagrangianModel, grid: Grid, boundary: AffineMap,
            schedule: SweepSchedule | None = None, options: SolveOptions | None = None,
            init: Path | None = None, seed: int = 0) -> SweepResult:
    """Warm-started solves over m = 2, 4, 8, ... up to m_max,
    stopping early once the normalized roots settle within tol_sweep.

    The final minimizer is the candidate; its sup energy over the whole
    interval, the largest sample of the midpoint rule the solves minimise,
    is reported alongside the root sequence.  With restarts > 1 the
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
    return replace(chosen, restart_sups=[float(s) for s in sups], tied_candidates=ties,
                   solves=[stats for res in results for stats in res.solves])


def _single_sweep(model, grid, boundary, schedule, options, init) -> SweepResult:
    records = []
    stop_reason = "m_max"
    error = None
    current = init
    prev_root = None
    for m in schedule.exponents():
        try:
            path, stats = minimize_power(model, grid, boundary, m, current, options)
        except NonFinite as exc:
            stop_reason, error = "aborted", f"m={m}: {exc}"
            break
        records.append(SweepRecord(m, path, stats))
        current = path
        root = stats.objective
        if prev_root is not None and abs(root - prev_root) <= schedule.tol_sweep * (1.0 + abs(root)):
            stop_reason = "tol_sweep"
            break
        prev_root = root
    solves = [rec.stats for rec in records]
    if not records:
        empty = init if init is not None else interpolate_affine(boundary, grid)
        return SweepResult([], empty, np.nan, stop_reason, error, solves=solves)
    candidate = records[-1].path
    sup = sup_energy(model, candidate)
    return SweepResult(records, candidate, float(sup), stop_reason, error, solves=solves)
