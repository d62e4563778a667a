"""Power-energy minimization over paths with clamped affine boundary values.

``minimize_power`` runs a damped Newton descent (exact Hessian, Armijo
backtracking) on the normalized power root for one exponent m, by the
``MidpointPowerRule`` behind the public ``power_energy`` and
``power_energy_gradient``.  It evaluates L once per trial iterate, and
takes the gradient and Hessian of an accepted trial from one jet at its
nodal values; the line search keeps only the trial's root and largest
sample.  ``m_sweep`` chains solves over the exponents ``EXPONENTS``, m =
2, 4, 8, ..., 1024, warm-starting each exponent from the previous
minimizer, and extracts the final path as the sup-energy candidate.
Everything is deterministic: fixed accumulation order, no randomness unless
restarts > 1, in which case the perturbed starts are drawn from a
caller-supplied seed.

Independent problems run in lockstep.  One generator, ``_newton``, holds
one solve and yields the model calls it needs, each naming its grid and
order.  One generator, ``_sweep``, holds one sweep and runs a ``_newton``
per exponent.  One scheduler, ``_lockstep``, builds one rule over the
grids of all pending calls of one kind and order and serves them with one
call at that order, the lowest order first.  So a round of solves makes one
``jet_many`` call, one block solve per padded system size and one
``eval_many`` call per line-search step, however many problems it holds.
Where a stack's block systems go in those solves (``block_layout``), and
the padded batches they are solved in, are built once per stack of
problems, at its first Newton round; every later round of the same stack
only scatters its rows into them.
``m_sweep_many`` runs sweeps this way, every restart of each; the audit
runs all its subintervals as one such batch.  A batched problem is its grid
and started nodal values, whose two ends are the clamped data (``_start``).
``minimize_power`` is one ``_newton`` run alone, and ``m_sweep`` the batch
of one sweep.  A problem's numbers do not depend on its batch: every
operation acts on one problem's rows, its sums are rounded as its own, and
its block system is solved exactly as alone.  When a stacked call raises
``NonFinite``, or a batch of block systems ``LinAlgError``, each problem is
run alone to find the failing ones, and only those fail (``_attributed``).

The midpoint rule couples only neighbouring nodes, so the Hessian of the
root is block tridiagonal with N x N blocks (``MidpointPowerRule.derivatives``)
minus one rank-one term, ``(m-1)/root g g^T``.  ``_block_tridiagonal_solve``
solves the block-tridiagonal part by block cyclic reduction: O(M N^3) flops
for M nodes in ``M.bit_length()`` stacked solves, each eliminating every
other remaining node, so the number of numpy calls grows with log M, not
M; a batch of systems of one padded size takes the same calls.  Since the
rank-one vector is the gradient, the right-hand side of the Newton system,
Sherman-Morrison turns that one solve into the exact Newton step.  The
problem is conditioned like a discrete Laplacian, 1/h^2, which a
first-order method pays for with iteration counts linear in M; Newton's
do not grow with M (Nocedal & Wright, *Numerical Optimization*, ch. 3).
When the direction is not a finite descent direction, as where L is not
convex or the Hessian is singular, the iteration steps along -g instead.
A trial at which the model overflows is a rejected step, like one that
fails the Armijo test.

The exponents and the line search are constant, not options, as no caller
has needed other values.  ``EXPONENTS`` runs up to 2^10, the top that the
factored power root of ``energy`` is built to reach.  Each line search
tries the full Newton step first (``INIT_STEP`` = 1, the step that
minimises the local quadratic model, so near a minimiser it is accepted and
convergence is quadratic), halves it (``BACKTRACK`` = 0.5) until the Armijo
condition with the customary constant ``SUFFICIENT_DECREASE`` = 1e-4 holds,
and fails below ``MIN_STEP`` = 1e-20, far below the resolution of a double
at unit scale.  What a caller sets in ``SolveOptions`` is the iteration
budget, and in ``SweepSchedule`` the restarts; both are defined in
``options``, which a config reader can load without this module.

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
``MIN_STEP`` passed the Armijo test).

A sweep stops at the same floor: when two consecutive normalized roots
agree to round-off, ``|root - prev_root| <= eps root``, doubling m moved
the root by nothing that shows, as where L is constant along the
minimiser.  A sweep whose roots still move runs on to the last exponent.
So neither a solve nor a sweep has a tolerance.  A sweep reports its own
``stop_reason``: ``settled`` (that rule), ``m_max`` or ``aborted``.
Restarts whose sups agree within ``TIE_TOL (1 + sup)``, at distinct
candidates, are reported as ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .energy import MidpointPowerRule, segment_sums
from .errors import NonFinite, SupminError, check_count
from .lagrangian import LagrangianModel
from .options import SolveOptions, SweepSchedule
from .path import AffineMap, Grid, Path, interpolate_affine


# the exponents of every sweep: 2, 4, 8, ..., 1024
EXPONENTS = tuple(2**k for k in range(1, 11))
INIT_STEP = 1.0
BACKTRACK = 0.5
SUFFICIENT_DECREASE = 1e-4
MIN_STEP = 1e-20
# relative gap within which two restarts' sups tie
TIE_TOL = 1e-4
# the spacing of doubles at 1, the round-off floor of the Newton decrement
# and of a sweep's roots
_EPS = np.finfo(float).eps


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
class SweepRecord:
    """One exponent of a sweep; ``stats.objective`` is its normalized root."""

    m: int
    path: Path
    stats: SolveStats


@dataclass(frozen=True)
class SweepResult:
    """One sweep's records and candidate.  ``stop_reason`` is ``settled``
    (two consecutive roots agreed to round-off), ``m_max`` (every exponent
    of ``EXPONENTS`` ran) or ``aborted`` (a solve failed); ``solves`` holds
    the stats of every solve run, across all restarts, whereas ``records``
    keeps the chosen sweep's alone."""

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
    far is returned with the failure flagged in the stats.  Raises
    ``NonFinite`` when L is not finite at the start, or its jet or
    derivatives at an iterate; a trial at which L is not finite is a
    rejected step.
    """
    check_count(m, 1, "power energy needs m >= 1, an integer")
    max_iters = (options or SolveOptions()).max_iters
    [outcome] = _lockstep(model, [_newton(grid, m, _start(model, grid, boundary, init), max_iters)])
    if isinstance(outcome, NonFinite):
        raise outcome
    return outcome[:2]


def _start(model, grid, boundary, init):
    """The nodal values of ``init``, the affine interpolant when it is None,
    checked against the grid and the model, with the ends clamped to the
    boundary."""
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
    return values


def _newton(grid, m, values, max_iters):
    """One damped Newton solve of order m from the nodal ``values`` on
    ``grid``, as a generator: it yields ``("samples", grid, m, values)``
    for the normalized root and largest sample ``(root, top)`` of a path,
    and ``("newton", grid, m, values, f)`` for ``(grad, d, g.d)`` at the
    path with root f, d the Newton direction, and returns ``(path, stats,
    sup)``; |g|^2 and max|g| it takes itself, on the fallback and at the
    stop.  A ``NonFinite`` thrown in at the start or at a jet ends the
    solve; at a trial it rejects the step."""
    f, top = yield "samples", grid, m, values
    f_evals, iterations = 1, 0

    def outcome(stop_reason, grad=None):
        grad_norm = 0.0 if grad is None else float(np.max(np.abs(grad)))
        return Path(grid, values), SolveStats(iterations, grad_norm, f, stop_reason, f_evals), top

    while True:
        if f == 0.0:  # L >= 0, so this is a global minimum
            return outcome("decrement")
        grad, d, slope = yield "newton", grid, m, values, f
        if not -np.inf < slope < 0.0:  # no finite descent; fall back to steepest descent
            with np.errstate(over="ignore"):  # an infinite |g|^2 fails the Armijo test
                d, slope = -grad, -float(np.sum(grad * grad))
        if -slope <= _EPS * f:  # the decrement is at f's round-off floor
            return outcome("decrement", grad)
        if iterations >= max_iters:
            return outcome("max_iters", grad)
        step = INIT_STEP
        while True:
            trial = values + step * d
            f_evals += 1
            try:
                trial_f, trial_top = yield "samples", grid, m, trial
                if trial_f <= f + SUFFICIENT_DECREASE * step * slope:
                    break
            except NonFinite:  # L not finite at the trial: a rejected step
                pass
            step *= BACKTRACK
            if step < MIN_STEP:
                return outcome("line_search", grad)
        values, f, top = trial, trial_f, trial_top
        iterations += 1


def _lockstep(model, solves) -> list:
    """The outcomes of the generators ``solves`` (``_newton`` or
    ``_sweep``), or the ``NonFinite`` that ended each.

    Each step serves every pending request of one kind and order with one
    stacked call (``_attributed``) by one ``MidpointPowerRule`` over the
    requests' grids.  The lowest pending order goes first, and within it
    samples before directions: a round's jets wait until every line search
    of the round has ended, and a sweep's next exponent until every solve
    of the current one has.  So each call is the one that a batch of one
    exponent's solves makes.  Each set of requests keeps its rule, and the
    set of Newton requests its ``block_layout`` with the padded batches of
    its block solves, until the set of Newton requests changes, which drops
    all but the new set's; a rise of the order drops all.  So a round
    builds no geometry, weights or padding, only its own rows.  Within an
    order the set of Newton requests only shrinks, so a dropped layout is
    never needed again, and a dropped rule only when an earlier round's
    line-search set recurs.  Measured on a 2-CPU Xeon, in the 257-node,
    64-subinterval DA-rot audit after its solve in the same process, that
    makes 49 rule builds and a peak RSS of 42.5 MB; keeping every rule of
    an order makes 47 builds and 43.1 MB, and every layout raised the peak
    RSS from 43.3 to 44.8 MB; keeping only the last rule built makes 53
    (22 instead of 14 in the 65-node, 3-restart DA-rot solve).  Rebuilding
    the layout every round (about 92 us for the 19-problem ``audit-drift``
    stack) was slower in 6 of 6 alternating pairs of ``perfbench``
    ``pipeline_ref_s``, 0.0551 -> 0.0566 s on ``audit-drift`` and 0.0509
    -> 0.0518 s on ``min-norms``; keeping rules across exponents cut rule
    builds from 41 to 37 but raised the 257-node DA-rot audit's peak RSS
    from 40.1 to 46.6 MB."""
    requests, outcomes, rules, layouts, order = {}, [None] * len(solves), {}, {}, 0

    def rule(ids):
        key = tuple(ids)
        if key not in rules:
            rules[key] = MidpointPowerRule([requests[i][1] for i in key])
        return rules[key]

    def values(ids):
        return np.concatenate([requests[i][3] for i in ids])

    def samples(ids):
        root, top = rule(ids).samples(model, values(ids), order)
        return list(zip(root.tolist(), top.tolist()))

    def newton(ids):
        key, stack = tuple(ids), rule(ids)
        grad, hessian = stack.derivatives(model, values(ids), order)
        sigma = (order - 1) / np.array([requests[i][4] for i in ids])
        if key not in layouts:  # no earlier set of Newton requests recurs at this order
            rules.clear()
            layouts.clear()
            rules[key], layouts[key] = stack, block_layout(stack.node_problem)
        d = _newton_direction(grad, hessian, sigma, layouts[key])
        slopes = segment_sums(d * grad, stack.node_starts).tolist()
        bounds = np.append(stack.node_starts, len(grad)).tolist()
        return [(grad[lo:hi], d[lo:hi], slope)
                for lo, hi, slope in zip(bounds, bounds[1:], slopes)]

    def resume(i, reply):
        step = solves[i].throw if isinstance(reply, NonFinite) else solves[i].send
        try:
            requests[i] = step(reply)
        except StopIteration as done:
            outcomes[i] = done.value
        except NonFinite as exc:
            outcomes[i] = exc

    for i in range(len(solves)):
        resume(i, None)
    while requests:
        lowest = min(m for _, _, m, *_ in requests.values())
        if lowest > order:
            order = lowest
            rules.clear()
            layouts.clear()
        pending = {i: kind for i, (kind, _, m, *_) in requests.items() if m == order}
        kind = "samples" if "samples" in pending.values() else "newton"
        ids = sorted(i for i, k in pending.items() if k == kind)
        done, replies, failed = _attributed(samples if kind == "samples" else newton, ids)
        for i in ids:
            del requests[i]
        for i, reply in [*zip(done, replies or ()), *failed.items()]:
            resume(i, reply)
    return outcomes


def _attributed(run, ids, error=NonFinite):
    """``run(ids)``, one stacked call on the problems ``ids``, as (the
    problems it ran on, its result, {problem: the ``error`` it raised}).

    When the stacked call raises ``error``, each problem is run alone to
    find the ones that raise, and the call is repeated on the rest, so that
    a problem's failure is its own.  The result is None when every problem
    failed.
    """
    try:
        return ids, run(ids), {}
    except error as exc:
        if len(ids) == 1:
            return [], None, {ids[0]: exc}
        failed = {}
        for i in ids:
            try:
                run([i])
            except error as alone:
                failed[i] = alone
        rest = [i for i in ids if i not in failed]
        return rest, (run(rest) if rest else None), failed


def _newton_direction(grad, hessian, sigma, layout):
    """The Newton direction -H^{-1} grad of the normalized root, one row per
    node, or NaN rows where the element part of H is singular, for a stack
    of problems laid out by ``layout`` (``block_layout``), one sigma each.

    ``hessian`` is the block-tridiagonal element part B = (diag, upper) of
    H from ``MidpointPowerRule.derivatives``, and H is B minus the rank-one
    term sigma grad grad^T, sigma = (m-1)/root.  The right-hand side is
    that same vector, so Sherman-Morrison reduces to a scalar per problem:
    with z = B^{-1} grad, H^{-1} grad = z / (1 - sigma grad.z), one
    single-column block solve (``_stacked_solve``).

    Where 1 - sigma grad.z <= 0 that direction climbs: the m-th root of the
    power sum need not be convex where L is level-convex but not convex.
    There the direction is -z, the Newton step of the power sum itself,
    whose Hessian is B up to the factor m root^(m-1); it descends, since
    grad.z >= 1/sigma > 0 (Hessian modification, Nocedal & Wright 3.4).
    A NaN scale (a singular B) keeps its NaN rows, and the caller falls
    back to steepest descent.
    """
    diag, upper = hessian
    with np.errstate(all="ignore"):  # a singular or indefinite H fails the descent test
        z = _stacked_solve(diag, upper, grad[:, :, None], layout)[:, :, 0]
        scale = 1.0 - sigma * segment_sums(grad * z, layout.starts)
        scale = np.where(scale <= 0.0, 1.0, scale)
        return -z / scale[layout.system][:, None]


@dataclass(frozen=True)
class BlockLayout:
    """Where a stack of uncoupled block-tridiagonal systems goes in a
    batched block solve, worked out once per stack by ``block_layout``,
    with the padded batches it is solved in.

    System k begins at row ``starts[k]``, and ``system`` is the system of
    each row.  A system of K rows is padded to 2^p - 1 rows, p =
    ``K.bit_length()``, and ``batches`` holds one entry per padded size,
    ascending: ``(size, count, rows, slots, links, link_slots)``, the number
    of systems of that size, their rows in the stack and their slots in the
    flattened (count, size) batch, then their couplings in the stack, where
    coupling i joins rows i and i + 1, and their slots in the flattened
    (count, size + 1) batch, where coupling i joins rows i - 1 and i, so a
    system's first is zero.  ``padded`` gives each batch's buffers.
    """

    starts: np.ndarray
    system: np.ndarray
    batches: list
    buffers: dict = field(default_factory=dict, repr=False, compare=False)

    def padded(self, n: int, c: int) -> list:
        """One ``(pivots, coupling, right)`` per batch, (count, size, N, N),
        (count, size + 1, N, N) and (count, size, N, C), for N x N blocks
        and C right-hand columns.  They are built at the first call for
        (N, C) with identity pivots and zero couplings and right-hand sides,
        and kept: every solve writes the same slots, so the padding stays."""
        if (n, c) not in self.buffers:
            self.buffers[n, c] = [(np.broadcast_to(np.eye(n), (count, size, n, n)).copy(),
                                   np.zeros((count, size + 1, n, n)),
                                   np.zeros((count, size, n, c)))
                                  for size, count, *_ in self.batches]
        return self.buffers[n, c]


def block_layout(system: np.ndarray) -> BlockLayout:
    """The ``BlockLayout`` of the systems whose rows are numbered by
    ``system``: ascending, each system's rows contiguous."""
    counts = np.bincount(system)
    starts = np.cumsum(counts) - counts
    padded = np.array([(1 << k.bit_length()) - 1 for k in counts.tolist()])
    batches = []
    for size in sorted(set(padded.tolist())):
        members = padded == size
        first, count = starts[members], counts[members]
        at = np.arange(len(count))
        batches.append((size, len(count), _ranges(first, count), _ranges(at * size, count),
                        _ranges(first, count - 1), _ranges(at * (size + 1) + 1, count - 1)))
    return BlockLayout(starts, system, batches)


def _ranges(firsts, counts):
    """The concatenated ranges firsts[k], ..., firsts[k] + counts[k] - 1."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(firsts - (ends - counts), counts)


def _stacked_solve(diag, upper, rhs, layout):
    """B^{-1} rhs for a stack of uncoupled block-tridiagonal systems laid
    out by ``layout`` (``block_layout``), with NaN rows for a
    singular one.

    Each system is padded to its layout's size with identity pivots, zero
    couplings and zero right-hand sides, and the systems of one padded size
    are solved as one batch (``_block_tridiagonal_solve``).  Each is laid
    out exactly as it would be alone, so a system's solution does not
    depend on the others.  The layout and its padded batches are built once
    per stack (``BlockLayout.padded``), so a call only scatters its systems'
    rows into them, solves and gathers; the solve leaves its arguments as
    they are.  When a batch raises ``LinAlgError``, ``_attributed`` finds
    the singular systems, and the rest are solved without them.
    """
    out = np.empty_like(rhs)
    n, c = rhs.shape[1:]
    for (size, count, rows, slots, links, link_slots), (pivots, coupling, right) in zip(
            layout.batches, layout.padded(n, c)):
        pivots.reshape(-1, n, n)[slots] = diag[rows]
        coupling.reshape(-1, n, n)[link_slots] = upper[links]
        right.reshape(-1, n, c)[slots] = rhs[rows]
        try:
            solved = _block_tridiagonal_solve(pivots, coupling, right)
        except np.linalg.LinAlgError:
            solved = np.full_like(right, np.nan)
            regular, result, _ = _attributed(
                lambda ids: _block_tridiagonal_solve(pivots[ids], coupling[ids], right[ids]),
                list(range(count)), np.linalg.LinAlgError)
            if regular:  # not every system is singular
                solved[regular] = result
        out[rows] = solved.reshape(-1, n, c)[slots]
    return out


def _block_tridiagonal_solve(pivots, coupling, right):
    """Solve a batch of symmetric block-tridiagonal systems of 2^p - 1 rows
    by block cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer.
    Anal. 7, 1970).  System b has diagonal blocks ``pivots[b]`` (2^p - 1, N,
    N), blocks ``coupling[b]`` (2^p, N, N) above the diagonal, the i-th
    between rows i - 1 and i and the two end ones zero, their transposes
    below, and right-hand side ``right[b]`` (2^p - 1, N, C).  Each system
    takes the same operations as alone.

    Each level eliminates every other row: one stacked ``np.linalg.solve``
    of the eliminated rows' diagonal blocks against their two couplings and
    their right-hand side, then a Schur complement onto the kept rows, which
    form a system of the same shape with half the rows.  The last level has
    one row, so a solve makes p stacked solves and O(2^p N^3) flops;
    back-substitution reuses the solved blocks and solves nothing.  Both
    arguments of every solve are 4-D stacks, which numpy 1 and 2 read
    alike.  Only the upper couplings are kept, since every Schur complement
    of a symmetric system is symmetric.
    """
    systems, size, n, c = right.shape
    levels = []
    while pivots.shape[1] > 1:
        before, after = coupling[:, 0::2], coupling[:, 1::2]
        # pivot^{-1} [coupling to the row before, to the row after, rhs]
        gains = np.linalg.solve(pivots[:, 0::2], np.concatenate(
            [before.swapaxes(2, 3), after, right[:, 0::2]], axis=3))
        # what each kept row takes from the eliminated row after it (indexed
        # by that row) and from the one before it
        from_after = before @ gains
        from_before = after[:, :-1].swapaxes(2, 3) @ gains[:, :-1, :, n:]
        pivots = pivots[:, 1::2] - from_before[..., :n] - from_after[:, 1:, :, :n]
        right = right[:, 1::2] - from_before[..., n:] - from_after[:, 1:, :, 2 * n:]
        # the two kept rows beside an eliminated row are coupled through it
        coupling = -from_after[..., n:2 * n]
        levels.append(gains)
    # row i of the solution is out[:, i + 1], between two zero rows
    out = np.zeros((systems, size + 2, n, c))
    out[:, (size + 2) // 2] = np.linalg.solve(pivots, right)[:, 0]
    for level in range(len(levels) - 1, -1, -1):
        gains, step = levels[level], 1 << level
        out[:, step::2 * step] = (gains[..., 2 * n:] - gains[..., :n] @ out[:, :-1:2 * step]
                                  - gains[..., n:2 * n] @ out[:, 2 * step::2 * step])
    return out[:, 1:-1]


def m_sweep(model: LagrangianModel, grid: Grid, boundary: AffineMap,
            schedule: SweepSchedule | None = None, options: SolveOptions | None = None,
            init: Path | None = None, seed: int = 0) -> SweepResult:
    """Warm-started solves over ``EXPONENTS``, m = 2, 4, 8, ..., 1024,
    stopping early once two consecutive normalized roots agree to round-off.

    The final minimizer is the candidate; its sup energy over the whole
    interval, the largest sample of the midpoint rule the solves minimise,
    is reported alongside the root sequence.  With restarts > 1 the
    sweep is repeated from seeded perturbed initial paths and the candidate
    with the smallest sup energy wins; distinct candidates whose sup energies
    tie within ``TIE_TOL`` are all reported.  This is the batch of one of
    ``m_sweep_many``.
    """
    return m_sweep_many(model, [(grid, _start(model, grid, boundary, init), seed)], schedule,
                        options)[0]


def m_sweep_many(model: LagrangianModel, problems, schedule: SweepSchedule | None = None,
                 options: SolveOptions | None = None) -> list:
    """``m_sweep`` of each of ``problems``, (grid, values, seed) triples
    whose nodal ``values`` are started (``_start``); every restart of every
    problem runs as one ``_sweep`` generator, all run together by
    ``_lockstep``."""
    schedule = schedule or SweepSchedule()
    max_iters = (options or SolveOptions()).max_iters
    starts = [_restart_starts(values, schedule.restarts, seed) for _, values, seed in problems]
    runs = iter(_lockstep(model, [_sweep(grid, start, max_iters)
                                  for (grid, _, _), group in zip(problems, starts)
                                  for start in group]))
    return [_best_of([next(runs) for _ in group]) for group in starts]


def _sweep(grid, values, max_iters):
    """One sweep from the started nodal ``values``, as a generator that
    runs a ``_newton`` solve per exponent, each warm-started from the last
    one's path, and returns its ``SweepResult``, its start the candidate
    if none ran.  The sweep stops when two consecutive roots agree to
    round-off (``settled``), after the last exponent (``m_max``), or when a
    solve fails (``aborted``)."""
    records, prev_root, sup = [], None, np.nan
    stop_reason, error = "m_max", None
    for m in EXPONENTS:
        try:
            path, stats, sup = yield from _newton(grid, m, values, max_iters)
        except NonFinite as exc:
            stop_reason, error = "aborted", f"m={m}: {exc}"
            break
        records.append(SweepRecord(m, path, stats))
        values, root = path.values, stats.objective
        if prev_root is not None and abs(root - prev_root) <= _EPS * root:
            stop_reason = "settled"
            break
        prev_root = root
    return SweepResult(records, records[-1].path if records else Path(grid, values), sup,
                       stop_reason, error, solves=[rec.stats for rec in records])


def _restart_starts(values, restarts, seed) -> list:
    """The nodal values of each restart's start: ``values`` itself when
    there is one restart; else ``values``, then perturbations of its
    interior drawn from ``seed``."""
    check_count(seed, 0, "sweep seed must be an integer >= 0")
    if restarts == 1:
        return [values]
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.max(np.abs(values)))
    starts = [values]
    for _ in range(restarts - 1):
        start = np.array(values)
        start[1:-1] += rng.normal(scale=0.1 * scale, size=start[1:-1].shape)
        starts.append(start)
    return starts


def _best_of(results) -> SweepResult:
    """The restart whose candidate has the smallest sup energy, with every
    restart's sup, the distinct candidates that tie with it within
    ``TIE_TOL``, and the solves of all of them."""
    if len(results) == 1:
        return results[0]
    sups = [res.sup_of_candidate if not res.aborted else np.inf for res in results]
    best = int(np.argmin(sups))
    chosen = results[best]
    tol = TIE_TOL * (1.0 + abs(sups[best]))
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
