import dataclasses
import warnings

import numpy as np
import pytest

import supmin as sm
from supmin.energy import MidpointPowerRule
from supmin.solver import (BACKTRACK, INIT_STEP, MIN_STEP, SUFFICIENT_DECREASE, _lockstep,
                           _newton, _newton_direction, _stacked_solve, _start, block_layout)

from conftest import ROTATION, dense_block_tridiagonal, drift_model, record_sweep_solves, started
from test_energy import dense_root_hessian


def normal_equations_path(grid, bmap, velocity):
    """Exact minimizer of sum_e len_e |slope_e - v|^2 with clamped endpoints,
    assembled and solved as a linear system (independent of the solver)."""
    nodes = grid.nodes
    n_nodes = nodes.size
    dim = bmap.dim
    lens = np.diff(nodes)
    # stiffness of the piecewise-linear Dirichlet energy
    main = np.zeros(n_nodes)
    main[:-1] += 1.0 / lens
    main[1:] += 1.0 / lens
    off = -1.0 / lens
    K = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    rhs = np.zeros((n_nodes, dim))
    rhs[:-1] -= velocity[None, :]
    rhs[1:] += velocity[None, :]
    # clamp endpoints
    interior = slice(1, n_nodes - 1)
    ua, ub = bmap(grid.a), bmap(grid.b)
    b = rhs[interior].copy()
    b -= K[interior, 0][:, None] * ua[None, :]
    b -= K[interior, n_nodes - 1][:, None] * ub[None, :]
    sol = np.linalg.solve(K[interior, interior.start : interior.stop], b)
    values = np.vstack([ua, sol, ub])
    return sm.Path(grid, values)


def spike_init(grid, bmap, bump):
    values = sm.interpolate_affine(bmap, grid).values.copy()
    mid = values.shape[0] // 2
    values[mid] += bump
    return sm.Path(grid, values)


def reference_minimize_power(model, grid, boundary, m, init=None, options=None):
    """The solver's loop written the plain way: a Path, ``power_energy`` and
    ``power_energy_gradient`` per trial, and the gradient and the Newton
    direction evaluated afresh from a new rule at every iterate; it stops
    where the Newton decrement reaches the round-off floor of f."""
    opts = options or sm.SolveOptions()
    init = init if init is not None else sm.interpolate_affine(boundary, grid)
    values = np.array(init.values)
    values[0], values[-1] = boundary(grid.a), boundary(grid.b)
    free = slice(1, values.shape[0] - 1)

    def fval(v):
        return sm.power_energy(model, sm.Path(grid, v), m).normalized_root

    def gval(v):
        return sm.power_energy_gradient(model, sm.Path(grid, v), m)

    def newton(v, grad):
        rule = MidpointPowerRule([grid])
        root, _ = rule.samples(model, v, m)
        hessian = rule.derivatives(model, v, m)[1]
        return _newton_direction(grad, hessian, (m - 1) / root, alone(len(v)))[free]

    f = fval(values)
    f_evals, iterations = 1, 0
    while True:
        grad = gval(values)
        g = grad[free]
        if f == 0.0:
            reason = "decrement"
            break
        d = newton(values, grad)
        slope = float(np.sum(d * g))
        if not -np.inf < slope < 0.0:
            d, slope = -g, -float(np.sum(g * g))
        if -slope <= np.finfo(float).eps * f:
            reason = "decrement"
            break
        if iterations >= opts.max_iters:
            reason = "max_iters"
            break
        step, accepted = INIT_STEP, False
        while step >= MIN_STEP:
            trial = values.copy()
            trial[free] += step * d
            f_trial = fval(trial)
            f_evals += 1
            if np.isfinite(f_trial) and f_trial <= f + SUFFICIENT_DECREASE * step * slope:
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            reason = "line_search"
            break
        values, f = trial, f_trial
        iterations += 1
    stats = sm.SolveStats(iterations, float(np.max(np.abs(g))), f, reason, f_evals)
    return sm.Path(grid, values), stats


def da_rot_model():
    return sm.DataAssimilationModel(
        [[1.0, 0.0]], sm.SampledSignal.from_rows([[0.0, 0.5], [0.5, -0.3], [1.0, 0.2]]),
        [[0.0, 1.0], [-1.0, 0.0]],
        sm.SampledSignal.from_rows([[0.0, 1.0, 0.0], [0.5, 0.0, 2.0], [1.0, 1.0, 0.0]]))


def perturbed_start(grid, bmap, seed, scale=0.2):
    values = sm.interpolate_affine(bmap, grid).values.copy()
    values[1:-1] += np.random.default_rng(seed).normal(scale=scale, size=values[1:-1].shape)
    return sm.Path(grid, values)


def loop_reference_cases():
    grid17 = sm.Grid.uniform(0.0, 1.0, 17)
    drift_bmap = sm.AffineMap([0.0, 0.0], [1.0, -0.5])
    rot_bmap = sm.AffineMap([0.0, 0.0], [1.0, 1.0])
    zig_bmap = sm.AffineMap([0.0, 0.0], [0.0, 1.0])
    radial = sm.RadialModel(sm.radial_profile("power", gamma=1.5), [[0.0, 0.4], [-0.4, 0.0]],
                            sm.SampledSignal.from_rows([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
    # an audit-style re-solve: a sub-grid of a perturbed path, clamped to its chord
    nodes = sm.Grid.uniform(0.0, 1.0, 33).nodes
    outer = perturbed_start(sm.Grid(nodes), drift_bmap, 3)
    i, j = 5, 19
    b1 = (outer.values[j] - outer.values[i]) / (nodes[j] - nodes[i])
    chord = sm.AffineMap(outer.values[i] - b1 * nodes[i], b1)
    return {
        "drift-oracle": (drift_model(), grid17, drift_bmap, 2, None, None),
        "drift-oracle-m8": (drift_model(), grid17, drift_bmap, 8,
                            perturbed_start(grid17, drift_bmap, 1), None),
        "da-rot-17": (da_rot_model(), grid17, rot_bmap, 2, None, sm.SolveOptions(max_iters=40)),
        # non-convex: two of its Newton directions fail the descent test
        "min-norms": (sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0), grid17,
                      zig_bmap, 4, perturbed_start(grid17, zig_bmap, 1),
                      sm.SolveOptions(max_iters=30)),
        "radial": (radial, grid17, rot_bmap, 4, perturbed_start(grid17, rot_bmap, 4),
                   sm.SolveOptions(max_iters=60)),
        "sub-grid": (drift_model(), sm.Grid(nodes[i : j + 1]), chord, 2, None,
                     sm.SolveOptions(max_iters=60)),
    }


@pytest.mark.parametrize("case", sorted(loop_reference_cases()))
def test_minimize_power_matches_loop_reference(case):
    """The prepared rule and the reused samples change no bit of the solve."""
    model, grid, bmap, m, init, options = loop_reference_cases()[case]
    path, stats = sm.minimize_power(model, grid, bmap, m, init, options)
    ref_path, ref_stats = reference_minimize_power(model, grid, bmap, m, init, options)
    assert stats.iterations > 0
    assert np.array_equal(path.values, ref_path.values)
    assert stats == ref_stats


def count_model_calls(model):
    """Count the model's eval_many calls (including those of its finite
    differences) with their row counts, and its jet_many calls."""
    calls = {"eval_many": 0, "jet_many": 0, "rows": []}
    eval_many, jet_many = model.eval_many, model.jet_many

    def counted_eval(*args):
        calls["eval_many"] += 1
        calls["rows"].append(len(args[0]))
        return eval_many(*args)

    def counted_jet(*args):
        calls["jet_many"] += 1
        return jet_many(*args)

    model.eval_many, model.jet_many = counted_eval, counted_jet
    return calls


def newton_batch(model, problems, m):
    """The ``_newton`` solve of order m of each of ``problems``, (grid,
    boundary, init) triples, run together by ``_lockstep``: per problem
    ``(path, stats, sup)`` or the ``NonFinite`` that ended it."""
    max_iters = sm.SolveOptions().max_iters
    return _lockstep(model, [_newton(grid, m, _start(model, grid, bmap, init), max_iters)
                             for grid, bmap, init in problems])


class TestSolveCounts:
    """One jet per iterate: the start and every accepted trial each take
    their gradient and Hessian from one jet_many call."""

    def test_analytic_model_one_eval_per_objective(self):
        model = da_rot_model()
        calls = count_model_calls(model)
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, 1.0])
        _, stats = sm.minimize_power(model, grid, bmap, 8, perturbed_start(grid, bmap, 1))
        assert stats.converged and stats.f_evals > stats.g_evals == stats.iterations + 1 > 1
        assert calls["eval_many"] == stats.f_evals
        assert calls["jet_many"] == stats.g_evals

    def test_finite_difference_model_one_eval_of_41_rows_per_jet(self):
        min_norms = sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0)
        model = sm.CustomModel(min_norms.eval_many, 2)
        calls = count_model_calls(model)
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [0.0, 1.0])
        _, stats = sm.minimize_power(model, grid, bmap, 4, perturbed_start(grid, bmap, 2),
                                     sm.SolveOptions(max_iters=20))
        assert stats.g_evals == stats.iterations + 1 > 1
        assert calls["jet_many"] == stats.g_evals
        assert calls["eval_many"] == stats.f_evals + stats.g_evals
        # one row per element per objective, 41 per element in a jet's stencil
        elements = grid.num_elements
        assert sorted(set(calls["rows"])) == [elements, 41 * elements]
        assert calls["rows"].count(41 * elements) == stats.g_evals

    def test_sweep_records_carry_counts(self):
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, -0.5])
        res = sm.m_sweep(drift_model(), grid, bmap, sm.SweepSchedule(m_max=8))
        current = None
        for rec in res.records:
            current, stats = sm.minimize_power(drift_model(), grid, bmap, rec.m, current)
            assert rec.stats == stats and stats.f_evals >= stats.g_evals

    def test_solve_totals_cover_every_restart(self, monkeypatch):
        """``solve_totals`` sums every solve of every restart, not only the
        chosen sweep's records."""
        sweeps = record_sweep_solves(monkeypatch)
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [0.0, 1.0])
        model = sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0)
        res = sm.m_sweep(model, grid, bmap, sm.SweepSchedule(m_max=8, restarts=3), seed=3)
        solves = [stats for sweep in sweeps for stats in sweep]
        assert len(sweeps) == 3
        assert res.solves == solves and len(solves) > len(res.records)
        assert res.solve_totals == {
            "iterations": sum(s.iterations for s in solves),
            "f_evals": sum(s.f_evals for s in solves),
            "g_evals": sum(s.g_evals for s in solves),
        }


def alone(k):
    """The block layout of one system of k rows."""
    return block_layout(np.zeros(k, dtype=int))


class TestNewtonDirection:
    @staticmethod
    def system(rng, k, n, cols):
        upper = rng.normal(size=(k - 1, n, n))
        diag = rng.normal(size=(k, n, n))
        diag = diag + diag.transpose(0, 2, 1) + 4.0 * n * np.eye(n)
        return diag, upper, rng.normal(size=(k, n, cols))

    # both sides of every padding boundary 2^p - 1 up to 17 blocks
    @pytest.mark.parametrize("cols", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 40, 257])
    def test_block_solve_matches_dense_solve(self, k, n, cols, rng):
        """Block cyclic reduction equals a dense solve of the same system."""
        diag, upper, rhs = self.system(rng, k, n, cols)
        got = _stacked_solve(diag, upper, rhs, alone(k))
        want = np.linalg.solve(dense_block_tridiagonal(diag, upper), rhs.reshape(k * n, cols))
        assert np.max(np.abs(got.reshape(k * n, cols) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 9, 40, 257])
    def test_block_solve_makes_one_stacked_solve_per_level(self, k, rng, monkeypatch):
        """A system of K blocks takes K.bit_length() calls of np.linalg.solve,
        not one per block."""
        diag, upper, rhs = self.system(rng, k, 2, 1)
        calls = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        _stacked_solve(diag, upper, rhs, alone(k))
        assert len(calls) == k.bit_length(), calls

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 17])
    def test_block_solve_batch_matches_each_alone(self, k, rng):
        """A stack of systems, with zero links between them, is solved as
        one batch with the same operations as each alone: every solution
        agrees bit for bit."""
        systems = [self.system(rng, k, 2, 1) for _ in range(3)]
        diags, uppers, rhss = zip(*systems)
        zero = np.zeros((1, 2, 2))
        upper = np.concatenate([uppers[0], zero, uppers[1], zero, uppers[2]])
        got = _stacked_solve(np.concatenate(diags), upper, np.concatenate(rhss),
                             block_layout(np.repeat([0, 1, 2], k)))
        for solved, system in zip(np.split(got, 3), systems):
            assert np.array_equal(solved, _stacked_solve(*system, alone(len(system[0]))))

    @pytest.mark.parametrize("draw", range(4))
    def test_block_solve_batch_of_padded_sizes_matches_each_alone(self, draw):
        """Systems of 1, 5 and 17 blocks, padded to 1, 7 and 31 rows, in one
        stack: each is solved at its own padded size, bit for bit as alone.
        (Padded to 31 rows, the smaller ones would differ in the last bits
        for some draws.)"""
        rng = np.random.default_rng([draw, 20240811])
        systems = [self.system(rng, k, 2, 1) for k in (1, 5, 17)]
        diags, uppers, rhss = zip(*systems)
        zero = np.zeros((1, 2, 2))
        upper = np.concatenate([uppers[0], zero, uppers[1], zero, uppers[2]])
        got = _stacked_solve(np.concatenate(diags), upper, np.concatenate(rhss),
                             block_layout(np.repeat([0, 1, 2], [1, 5, 17])))
        for solved, system in zip(np.split(got, [1, 6]), systems):
            assert np.array_equal(solved, _stacked_solve(*system, alone(len(system[0]))))

    @pytest.mark.parametrize("draw", range(3))
    def test_block_solve_reuses_its_layout_buffers(self, draw):
        """One layout solves two stacks of other systems, padded to 1, 7 and
        31 rows, the second with a singular one: each call gets bit for bit
        what a freshly built layout gets, so every call fills the padded
        batches that the layout keeps with its own rows."""
        rng = np.random.default_rng([draw, 20261020])
        sizes = (1, 5, 17)
        system = np.repeat([0, 1, 2], sizes)
        layout = block_layout(system)
        for singular in (None, 1):
            systems = [self.system(rng, k, 2, 1) for k in sizes]
            if singular is not None:
                systems[singular] = (np.zeros_like(systems[singular][0]),
                                     np.zeros_like(systems[singular][1]), systems[singular][2])
            diags, uppers, rhss = zip(*systems)
            zero = np.zeros((1, 2, 2))
            stack = (np.concatenate(diags),
                     np.concatenate([uppers[0], zero, uppers[1], zero, uppers[2]]),
                     np.concatenate(rhss))
            got = _stacked_solve(*stack, layout)
            assert np.array_equal(got, _stacked_solve(*stack, block_layout(system)),
                                  equal_nan=True)
            assert np.isnan(got[1:6]).all() == (singular == 1)
            assert not np.isnan(got[np.r_[0, 6:23]]).any()

    @pytest.mark.parametrize("singular", [(1,), (0, 2), (0, 1, 2)])
    def test_singular_systems_keep_nan_rows(self, singular, rng):
        """A singular system of a batch, here one of zero blocks, gets NaN
        rows, and each other system what it gets alone, bit for bit; a
        batch with no regular system is all NaN."""
        k = 5
        systems = [self.system(rng, k, 2, 1) for _ in range(3)]
        for i in singular:
            systems[i] = (np.zeros_like(systems[i][0]), np.zeros_like(systems[i][1]),
                          systems[i][2])
        diags, uppers, rhss = zip(*systems)
        zero = np.zeros((1, 2, 2))
        upper = np.concatenate([uppers[0], zero, uppers[1], zero, uppers[2]])
        got = _stacked_solve(np.concatenate(diags), upper, np.concatenate(rhss),
                             block_layout(np.repeat([0, 1, 2], k)))
        for i, (solved, system) in enumerate(zip(np.split(got, 3), systems)):
            if i in singular:
                assert np.all(np.isnan(solved))
            else:
                assert np.array_equal(solved, _stacked_solve(*system, alone(len(system[0]))))

    @pytest.mark.parametrize("m", [2, 8, 64])
    def test_direction_solves_the_exact_hessian(self, m):
        """The Sherman-Morrison scaling of the block solve is the dense
        Newton step with the rank-one term of the root included."""
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, -0.5])
        model = drift_model(ROTATION)
        # near the minimiser, where every sample is close to the largest one:
        # far from it the weights ratio^(m-1) make H singular to round-off
        values = sm.minimize_power(model, grid, bmap, m)[0].values.copy()
        values[1:-1] += np.random.default_rng(5).normal(scale=1e-3, size=values[1:-1].shape)
        rule = MidpointPowerRule([grid])
        root, _ = rule.samples(model, values, m)
        grad, hessian = rule.derivatives(model, values, m)
        hess = dense_root_hessian(model, sm.Path(grid, values), m)
        want = np.linalg.solve(hess, -grad.ravel())
        got = _newton_direction(grad, hessian, (m - 1) / root, alone(17)).ravel()
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.all(got.reshape(grad.shape)[[0, -1]] == 0.0)

    def test_singular_hessian_falls_back_to_steepest_descent(self):
        """|p|^4 is flat to second order at p = 0, so a node between two flat
        elements has a zero Hessian block: the direction is NaN, the solver
        steps along -g and then converges by Newton steps."""
        grid = sm.Grid.uniform(0.0, 1.0, 5)
        model = sm.PowerNormModel(4.0, [0.0])
        bmap = sm.AffineMap([0.0], [1.0])
        init = sm.Path(grid, np.array([[0.0], [0.0], [0.0], [0.5], [1.0]]))
        rule = MidpointPowerRule([grid])
        root, _ = rule.samples(model, init.values, 2)
        grad, hessian = rule.derivatives(model, init.values, 2)
        assert np.any(grad != 0.0)
        assert np.all(np.isnan(_newton_direction(grad, hessian, 1.0 / root, alone(5))))
        path, stats = sm.minimize_power(model, grid, bmap, 2, init)
        assert stats.converged
        np.testing.assert_allclose(path.values, sm.interpolate_affine(bmap, grid).values,
                                   atol=1e-8)

    def test_level_convex_radial_takes_the_power_sum_step(self):
        """Radial-gamma at gamma = 1/4, f(t) = (1 + t)^(1/4) - 1 of DA-rot's
        deviation, is level-convex but not convex in p: the root's
        Sherman-Morrison direction climbs at many iterates.  Stepping along
        -z there, the power sum's Newton step, converges every record in at
        most 100 iterations over 3 restarts, where -g took 205."""
        model = sm.RadialModel(sm.radial_profile("power", gamma=0.25), ROTATION,
                               da_rot_model().c)
        res = sm.m_sweep(model, sm.Grid.uniform(0.0, 1.0, 257),
                         sm.AffineMap([0.0, 0.0], [1.0, 1.0]), sm.SweepSchedule(restarts=3),
                         seed=42)
        assert res.records and all(rec.stats.converged for rec in res.records)
        assert res.solve_totals["iterations"] <= 100


class TestConvergenceUnderRefinement:
    @staticmethod
    def m2_iterations(A):
        bmap = sm.AffineMap([0.0, 0.0], [1.0, -0.5])
        counts = []
        for nodes in (17, 33, 65, 129):
            _, stats = sm.minimize_power(drift_model(A), sm.Grid.uniform(0.0, 1.0, nodes), bmap, 2)
            assert stats.converged
            counts.append(stats.iterations)
        return counts

    def test_drift_oracle_iterations_flat_in_grid_size(self):
        """Newton's m=2 iteration count does not grow with the number of
        nodes, where a first-order method's grows like the 1/h^2 condition
        number of the discrete Laplacian.  It may differ by the one
        iteration that the last quadratic step takes or saves against the
        round-off floor: 5, 5, 6, 6 for the drift oracle at 17 to 129 nodes,
        8 at each size for the rotating one."""
        for A in (((0.0, 0.0), (0.0, 0.0)), ROTATION):
            counts = self.m2_iterations(A)
            assert max(counts) - min(counts) <= 1 and max(counts) <= 10, counts

    @pytest.mark.parametrize("nodes", [17, 33, 65, 129, 2049])
    def test_da_rot_every_record_converges(self, nodes):
        """DA-rot with the CLI's defaults: every exponent of the sweep stops
        where its Newton decrement reaches the round-off floor of f.  At 2049
        nodes m=128 gets there with |g| still 1.1e-8: the gradient's
        round-off floor grows with the grid, and the decrement's does not."""
        res = sm.m_sweep(da_rot_model(), sm.Grid.uniform(0.0, 1.0, nodes),
                         sm.AffineMap([0.0, 0.0], [1.0, 1.0]), sm.SweepSchedule(),
                         sm.SolveOptions())
        assert [rec.m for rec in res.records] == sm.SweepSchedule().exponents()
        assert [rec.stats.stop_reason for rec in res.records] == ["decrement"] * len(res.records)


class TestMinimizePower:
    @pytest.mark.parametrize("case", ["decrement", "root zero", "max_iters", "line_search"])
    def test_grad_norm_is_the_largest_gradient_entry_of_the_path(self, case):
        """``grad_norm`` is max|g| of the returned path's gradient, bit for
        bit, whichever way the solve stops; 0.0 where the root is zero."""
        grid, coarse = sm.Grid.uniform(0.0, 1.0, 17), sm.Grid.uniform(0.0, 1.0, 5)
        plane, line = sm.AffineMap([0.0, 0.0], [1.0, -0.5]), sm.AffineMap([0.0], [1.0])
        model, grid, bmap, init, options = {
            "decrement": (drift_model(), grid, plane, None, None),
            "root zero": (sm.PowerNormModel(2.0, [1.0]), grid, line, None, None),
            "max_iters": (da_rot_model(), grid, plane, None, sm.SolveOptions(max_iters=2)),
            "line_search": (sm.PowerNormModel(300.0, [0.0]), coarse, line,
                            sm.Path(coarse, np.array([[0.0], [0.25], [0.6], [0.75], [1.0]])),
                            None),
        }[case]
        path, stats = sm.minimize_power(model, grid, bmap, 2, init, options)
        assert stats.stop_reason == ("decrement" if case == "root zero" else case)
        grad = sm.power_energy_gradient(model, path, 2)
        assert stats.grad_norm == float(np.max(np.abs(grad)))
        assert (stats.grad_norm == 0.0) == (case == "root zero")

    def test_affine_already_optimal(self):
        grid = sm.Grid.uniform(0.0, 1.0, 33)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, 0.0])
        model = sm.PowerNormModel(2.0, [0.0, 0.0])
        for m in (1, 2, 8):
            path, stats = sm.minimize_power(model, grid, bmap, m)
            assert stats.iterations == 0 and stats.converged
            assert np.array_equal(path.values, sm.interpolate_affine(bmap, grid).values)

    def test_matches_normal_equations_oracle(self):
        grid = sm.Grid.uniform(0.0, 1.0, 65)
        bmap = sm.AffineMap([0.0, 0.0], [0.0, 1.0])
        v = np.array([1.0, 0.0])
        model = sm.PowerNormModel(2.0, v)
        oracle = normal_equations_path(grid, bmap, v)
        oracle_obj = sm.power_energy(model, oracle, 2).normalized_root
        init = spike_init(grid, bmap, np.array([2.0, -1.0]))
        path, stats = sm.minimize_power(model, grid, bmap, 2, init)
        assert stats.objective <= oracle_obj + 1e-6
        assert abs(stats.objective - oracle_obj) < 1e-6

    def test_spike_descends_to_affine(self):
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, 0.0])
        model = sm.PowerNormModel(2.0, [0.0, 0.0])
        init = spike_init(grid, bmap, np.array([3.0, -2.0]))
        init_obj = sm.power_energy(model, init, 4).normalized_root
        path, stats = sm.minimize_power(model, grid, bmap, 4, init)
        assert stats.objective < init_obj
        assert stats.objective == pytest.approx(1.0, abs=1e-4)
        assert stats.converged

    def test_boundary_clamped_exactly(self):
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.3, -0.2], [1.7, 0.9])
        model = sm.PowerNormModel(2.0, [0.5, 0.5])
        init = spike_init(grid, bmap, np.array([1.0, 1.0]))
        path, _ = sm.minimize_power(model, grid, bmap, 2, init)
        assert np.array_equal(path.values[0], bmap(grid.a))
        assert np.array_equal(path.values[-1], bmap(grid.b))

    def test_objective_nonincreasing_by_construction(self):
        # Armijo acceptance forbids any increase; spot-check via a re-run at
        # intermediate exponents against its own warm starts.
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0], [1.0])
        model = sm.PowerNormModel(2.0, [0.0])
        init = spike_init(grid, bmap, np.array([4.0]))
        prev = sm.power_energy(model, init, 8).normalized_root
        path, stats = sm.minimize_power(model, grid, bmap, 8, init)
        assert stats.objective <= prev

    def test_model_dimension_mismatch(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, 2.0])
        init = spike_init(grid, bmap, np.array([4.0, -1.0]))
        with pytest.raises(sm.SupminError, match="boundary dimension 2 and init dimension 2 "
                                                 "must equal the model dimension 1"):
            sm.minimize_power(sm.PowerNormModel(2.0, [0.0]), grid, bmap, 8, init)

    @pytest.mark.parametrize("nodes", [np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 9) ** 2],
                             ids=["more_nodes", "other_nodes"])
    def test_init_on_another_grid_rejected(self, nodes):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        bmap = sm.AffineMap([0.0], [1.0])
        init = sm.interpolate_affine(bmap, sm.Grid(nodes))
        with pytest.raises(sm.SupminError, match="^init path must live on the solve grid$"):
            sm.minimize_power(sm.PowerNormModel(2.0, [0.0]), grid, bmap, 8, init)

    def test_nonfinite_initial_objective(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        bmap = sm.AffineMap([0.0], [10.0])
        model = sm.PowerNormModel(600.0, [0.0])  # 10^600 overflows
        with pytest.raises(sm.NonFinite):
            sm.minimize_power(model, grid, bmap, 2)

    def test_nonfinite_hessian_at_the_last_iterate_aborts(self):
        """The decrement stop needs the Newton direction at the iterate it
        tests, so a second-order jet that is not finite there aborts the
        solve, even at the minimiser.  This |p|^2 has an infinite dpp once
        every slope is within 1e-6 of 1, the slope of its minimiser; the
        jets of the start and of the iterates before are finite."""

        class SingularAtTheMinimiser(sm.PowerNormModel):
            def jet_many(self, xs, etas, ps):
                jet = super().jet_many(xs, etas, ps)
                if np.all(np.abs(ps - 1.0) < 1e-6):
                    return dataclasses.replace(jet, dpp=np.full_like(jet.dpp, np.inf))
                return jet

        grid = sm.Grid.uniform(0.0, 1.0, 9)
        bmap = sm.AffineMap([0.0], [1.0])
        init = spike_init(grid, bmap, np.array([0.5]))
        model = SingularAtTheMinimiser(2.0, [0.0])
        calls = count_model_calls(model)
        with pytest.raises(sm.NonFinite, match="jet contains non-finite entries"):
            sm.minimize_power(model, grid, bmap, 2, init)
        assert calls["jet_many"] > 1
        res = sm.m_sweep(model, grid, bmap, sm.SweepSchedule(m_max=4), init=init)
        assert res.aborted and res.records == []
        assert res.error == "m=2: jet contains non-finite entries"

    @pytest.mark.parametrize("steep", [0.6, 1.1])
    def test_overflowing_trial_is_a_rejected_step(self, steep):
        """|p|^300 overflows at the full steps from a path with one steep
        element: each such trial is rejected and the step halved, so the
        sweep runs on instead of aborting.  From the steeper start the -g
        fallback's slope -|g|^2 overflows to -inf, which fails the Armijo
        test without a floating-point warning.  No step down to MIN_STEP
        passes, so every record stops at ``line_search``."""
        grid = sm.Grid.uniform(0.0, 1.0, 5)
        init = sm.Path(grid, np.array([[0.0], [0.25], [steep], [0.75], [1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sm.m_sweep(sm.PowerNormModel(300.0, [0.0]), grid, sm.AffineMap([0.0], [1.0]),
                             sm.SweepSchedule(m_max=8), init=init)
        assert res.stop_reason == "m_max" and res.error is None
        assert [rec.m for rec in res.records] == [2, 4, 8]
        assert [rec.stats.stop_reason for rec in res.records] == ["line_search"] * 3


class TestSweep:
    def test_power_norm_constant_roots(self):
        grid = sm.Grid.uniform(0.0, 1.0, 65)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, 0.0])
        res = sm.m_sweep(sm.PowerNormModel(2.0, [0.0, 0.0]), grid, bmap)
        assert np.allclose(res.c_sequence, 1.0, atol=1e-12)
        assert res.sup_of_candidate == pytest.approx(1.0, abs=1e-12)
        assert res.stop_reason == "settled" and len(res.records) == 2
        assert [rec.stats.stop_reason for rec in res.records] == ["decrement"] * 2
        assert np.array_equal(res.candidate.values,
                              sm.interpolate_affine(bmap, grid).values)

    def test_data_assimilation_closed_form(self):
        grid = sm.Grid.uniform(0.0, 1.0, 65)
        bmap = sm.AffineMap([0.0, 0.0], [0.0, 1.0])
        model = sm.DataAssimilationModel(
            np.zeros((1, 2)),
            sm.SampledSignal.from_rows([[0.0, 0.0], [1.0, 0.0]]),
            np.zeros((2, 2)),
            sm.SampledSignal.from_rows([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]),
        )
        res = sm.m_sweep(model, grid, bmap)
        # Jensen lower bound |b1 - v|^2 = 2 is attained by the chord
        assert res.sup_of_candidate == pytest.approx(2.0, rel=0.01)
        # sup consistency against the last normalized root
        assert res.sup_of_candidate >= res.c_sequence[-1] - 10 * 1e-4

    def test_roots_nondecreasing(self):
        grid = sm.Grid.uniform(0.0, 1.0, 33)
        bmap = sm.AffineMap([0.0], [2.0])
        res = sm.m_sweep(sm.PowerNormModel(2.0, [1.0]), grid, bmap)
        roots = res.c_sequence
        for lo, hi in zip(roots, roots[1:]):
            assert lo <= hi + 10 * 1e-6

    def test_endpoints_pinned_every_record(self):
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.5], [-1.5])
        res = sm.m_sweep(sm.PowerNormModel(2.0, [0.3]), grid, bmap)
        for rec in res.records:
            assert np.array_equal(rec.path.values[0], bmap(grid.a))
            assert np.array_equal(rec.path.values[-1], bmap(grid.b))

    def test_deterministic_reruns(self):
        grid = sm.Grid.uniform(0.0, 1.0, 33)
        bmap = sm.AffineMap([0.0, 1.0], [2.0, -1.0])
        model = sm.PowerNormModel(2.0, [1.0, 0.0])
        r1 = sm.m_sweep(model, grid, bmap)
        r2 = sm.m_sweep(model, grid, bmap)
        assert np.array_equal(r1.c_sequence, r2.c_sequence)
        assert np.array_equal(r1.candidate.values, r2.candidate.values)
        assert r1.sup_of_candidate == r2.sup_of_candidate

    def test_model_dimension_mismatch(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        with pytest.raises(sm.SupminError, match="boundary dimension 1 and init dimension 1 "
                                                 "must equal the model dimension 2"):
            sm.m_sweep(sm.PowerNormModel(2.0, [0.0, 0.0]), grid, sm.AffineMap([0.0], [1.0]))

    def test_aborted_sweep_partial(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        bmap = sm.AffineMap([0.0], [10.0])
        res = sm.m_sweep(sm.PowerNormModel(600.0, [0.0]), grid, bmap)
        assert res.aborted and res.error is not None
        assert res.stop_reason == "aborted" and res.records == []
        assert res.solve_totals == {"iterations": 0, "f_evals": 0, "g_evals": 0}

    @pytest.mark.parametrize("restarts", [1, 2])
    def test_sweep_aborted_at_its_start_offers_the_clamped_start(self, restarts):
        """A sweep that aborts before its first record offers its started
        path as the candidate: the init with its two ends clamped to the
        boundary values, not the init as given.  |p|^300 overflows on the
        steep elements of the start, and of its perturbed restart."""
        grid = sm.Grid.uniform(0.0, 1.0, 5)
        init = sm.Path(grid, np.array([[0.5], [0.5], [1e3], [0.5], [2.0]]))
        res = sm.m_sweep(sm.PowerNormModel(300.0, [0.0]), grid, sm.AffineMap([0.0], [1.0]),
                         sm.SweepSchedule(restarts=restarts), init=init)
        assert res.aborted and res.records == []
        assert res.error == "m=2: Lagrangian evaluation is not finite"
        assert np.array_equal(res.candidate.values, [[0.0], [0.5], [1e3], [0.5], [1.0]])

    def test_every_exponent_run_stops_at_m_max(self):
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, -0.5])
        res = sm.m_sweep(drift_model(), grid, bmap, sm.SweepSchedule(m_max=2))
        assert res.stop_reason == "m_max" and not res.aborted
        assert [rec.m for rec in res.records] == [2]
        assert res.solve_totals["g_evals"] == res.records[0].stats.g_evals

    def test_multi_start_deterministic_and_no_worse(self):
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0], [1.0])
        model = sm.PowerNormModel(2.0, [0.0])
        schedule = sm.SweepSchedule(restarts=3)
        r1 = sm.m_sweep(model, grid, bmap, schedule, seed=11)
        r2 = sm.m_sweep(model, grid, bmap, schedule, seed=11)
        single = sm.m_sweep(model, grid, bmap)
        assert np.array_equal(r1.candidate.values, r2.candidate.values)
        assert r1.restart_sups == r2.restart_sups and len(r1.restart_sups) == 3
        assert r1.sup_of_candidate <= single.sup_of_candidate + 1e-8

    def test_schedule_validation(self):
        with pytest.raises(sm.SupminError):
            sm.SweepSchedule(m_max=1)
        with pytest.raises(sm.SupminError, match="schedule needs m_max >= 2"):
            sm.SweepSchedule(m_max=float("nan"))
        with pytest.raises(sm.SupminError, match="restarts must be >= 1"):
            sm.SweepSchedule(restarts=float("nan"))
        assert sm.SweepSchedule().exponents() == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        assert sm.SweepSchedule(m_max=1000).exponents()[-1] == 512
        assert sm.SweepSchedule(m_max=2).exponents() == [2]


class SingularAtSlopeOne(sm.PowerNormModel):
    """|p|^2 with an infinite dpp at each row whose slope is within 1e-6 of 1."""

    def jet_many(self, xs, etas, ps):
        jet = super().jet_many(xs, etas, ps)
        dpp = np.where((np.abs(ps - 1.0) < 1e-6)[:, :, None], np.inf, jet.dpp)
        return dataclasses.replace(jet, dpp=dpp)


class TestLockstep:
    """Problems solved as one batch get exactly what each gets alone, and a
    failure stays with its own problem."""

    @staticmethod
    def audit_style_problems():
        """Sub-grids of a perturbed 33-node path with the chords through its
        values there, keyed by what their sweeps do under |p - v|^8 with
        ``max_iters`` 6: one converges at once from its chord, two run out of
        iterations from the perturbed path, and one, whose chord is 1e40
        times too steep, overflows at its start."""
        nodes = sm.Grid.uniform(0.0, 1.0, 33).nodes
        outer = perturbed_start(sm.Grid(nodes), sm.AffineMap([0.0, 0.0], [1.0, -0.5]), 3).values

        def problem(i, j, steep=1.0, perturbed=False):
            grid = sm.Grid(nodes[i : j + 1])
            b1 = steep * (outer[j] - outer[i]) / (nodes[j] - nodes[i])
            init = sm.Path(grid, outer[i : j + 1].copy()) if perturbed else None
            return grid, sm.AffineMap(outer[i] - b1 * nodes[i], b1), init, 1000 + i

        return {"quick": problem(2, 5), "long": problem(4, 28, perturbed=True),
                "overflow": problem(10, 16, steep=1e40), "mid": problem(8, 20, perturbed=True)}

    @staticmethod
    def assert_same_solve(batched, alone):
        """Equal outcomes: the same exception, or the same stop reason and
        counts with paths equal to 1e-12 relative."""
        if isinstance(alone, sm.NonFinite):
            assert isinstance(batched, sm.NonFinite) and str(batched) == str(alone)
            return
        (path, stats), (ref_path, ref_stats) = batched[:2], alone[:2]
        assert (stats.stop_reason, stats.iterations, stats.f_evals, stats.g_evals) == (
            ref_stats.stop_reason, ref_stats.iterations, ref_stats.f_evals, ref_stats.g_evals)
        scale = np.max(np.abs(ref_path.values))
        assert np.max(np.abs(path.values - ref_path.values)) <= 1e-12 * scale
        assert stats.objective == pytest.approx(ref_stats.objective, rel=1e-12, abs=0.0)

    def assert_records_solved_alone(self, model, grid, bmap, init, res, options):
        """Each record of a sweep is what ``minimize_power`` alone returns
        from the record before it."""
        current = init
        for rec in res.records:
            path, stats = sm.minimize_power(model, grid, bmap, rec.m, current, options)
            self.assert_same_solve((rec.path, rec.stats), (path, stats))
            current = rec.path

    def test_mixed_outcomes_match_solo_solves(self):
        model = sm.PowerNormModel(8.0, [0.5, -0.25])
        problems = self.audit_style_problems()
        schedule, options = sm.SweepSchedule(m_max=16), sm.SolveOptions(max_iters=6)
        batched = dict(zip(problems, sm.solver.m_sweep_many(
            model, started(model, problems.values()), schedule, options)))
        reasons = {name: [rec.stats.stop_reason for rec in res.records]
                   for name, res in batched.items()}
        assert reasons["quick"] == ["decrement", "decrement"]
        assert "max_iters" in reasons["long"] and "max_iters" in reasons["mid"]
        assert [name for name, res in batched.items() if res.aborted] == ["overflow"]
        assert batched["overflow"].error == "m=2: Lagrangian evaluation is not finite"
        for name, (grid, bmap, init, seed) in problems.items():
            alone = sm.m_sweep(model, grid, bmap, schedule, options, init, seed)
            res = batched[name]
            assert (res.stop_reason, res.error) == (alone.stop_reason, alone.error)
            assert res.solve_totals == alone.solve_totals
            assert res.sup_of_candidate == pytest.approx(alone.sup_of_candidate, rel=1e-12,
                                                         nan_ok=True)
            for rec, ref in zip(res.records, alone.records, strict=True):
                self.assert_same_solve((rec.path, rec.stats), (ref.path, ref.stats))
            self.assert_records_solved_alone(model, grid, bmap, init, res, options)

    def test_block_layout_is_built_once_per_stacked_rule(self, monkeypatch):
        """Each stacked rule that serves Newton requests gets its block
        layout once, at its first round, and every later round of the same
        set of problems reuses it."""
        layouts, rounds = [], []
        build, derivatives = sm.solver.block_layout, MidpointPowerRule.derivatives

        def counting_build(system):
            layouts.append(system)
            return build(system)

        def counting_derivatives(rule, model, values, m):
            rounds.append(rule)  # keeps the rule alive, so no two share an id
            return derivatives(rule, model, values, m)

        monkeypatch.setattr(sm.solver, "block_layout", counting_build)
        monkeypatch.setattr(MidpointPowerRule, "derivatives", counting_derivatives)
        model = sm.PowerNormModel(8.0, [0.5, -0.25])
        sm.solver.m_sweep_many(model, started(model, self.audit_style_problems().values()),
                               sm.SweepSchedule(m_max=16), sm.SolveOptions(max_iters=6))
        rules = list({id(rule): rule for rule in rounds}.values())
        # one layout per rule, in the order the rules first served a round
        assert len(layouts) == len(rules)
        assert all(system is rule.node_problem for system, rule in zip(layouts, rules))
        assert len(rounds) > 2 * len(rules)

    def test_restart_batch_matches_each_problem_alone(self):
        """Every restart of every problem runs in one batch; each problem's
        choice among its restarts is the one it makes alone."""
        model = sm.PowerNormModel(8.0, [0.5, -0.25])
        problems = self.audit_style_problems()
        schedule, options = sm.SweepSchedule(m_max=8, restarts=3), sm.SolveOptions(max_iters=6)
        batched = sm.solver.m_sweep_many(model, started(model, problems.values()), schedule,
                                         options)
        for (grid, bmap, init, seed), res in zip(problems.values(), batched):
            alone = sm.m_sweep(model, grid, bmap, schedule, options, init, seed)
            assert (res.stop_reason, res.error) == (alone.stop_reason, alone.error)
            assert len(res.restart_sups) == 3
            assert res.restart_sups == pytest.approx(alone.restart_sups, rel=1e-12)
            assert [(s.stop_reason, s.iterations, s.f_evals) for s in res.solves] == [
                (s.stop_reason, s.iterations, s.f_evals) for s in alone.solves]
            assert len(res.tied_candidates) == len(alone.tied_candidates)
            scale = 1.0 + np.max(np.abs(alone.candidate.values))
            assert np.max(np.abs(res.candidate.values - alone.candidate.values)) <= 1e-12 * scale

    @pytest.mark.parametrize("case", ["trial overflow", "jet", "singular Hessian"])
    def test_failure_stays_with_its_problem(self, case):
        """A batch whose stacked call fails is attributed problem by
        problem: |p|^300 overflows at the trials of a steep start (rejected
        steps), a jet that is not finite aborts its solve, and a singular
        Hessian makes its problem alone step along -g.  The healthy problem
        beside each gets what it gets alone."""
        grid = sm.Grid.uniform(0.0, 1.0, 5)
        bmap = sm.AffineMap([0.0], [1.0])
        healthy = sm.Path(grid, np.array([[0.0], [0.3], [0.5], [0.7], [1.0]]))
        model, failing, m = {
            "trial overflow": (sm.PowerNormModel(300.0, [0.0]),
                               sm.Path(grid, np.array([[0.0], [0.25], [1.1], [0.75], [1.0]])), 2),
            "jet": (SingularAtSlopeOne(2.0, [0.0]), spike_init(grid, bmap, np.array([0.5])), 2),
            "singular Hessian": (sm.PowerNormModel(4.0, [0.0]),
                                 sm.Path(grid, np.array([[0.0], [0.0], [0.0], [0.5], [1.0]])), 2),
        }[case]
        other = sm.AffineMap([0.0], [2.0]) if case == "jet" else bmap
        problems = [(grid, bmap, failing), (grid, other, healthy)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = newton_batch(model, problems, m)
        for problem, outcome in zip(problems, batched):
            alone = newton_batch(model, [problem], m)[0]
            self.assert_same_solve(outcome, alone)
        failed, fine = batched
        if case == "jet":
            assert isinstance(failed, sm.NonFinite) and fine[1].converged
        elif case == "trial overflow":
            assert failed[1].stop_reason == "line_search" and fine[1].converged
        else:
            assert failed[1].converged and fine[1].converged

    def test_one_jet_per_round(self):
        """A batch makes one jet_many call per Newton round, as many as its
        slowest problem's g_evals, and one eval_many call per line-search
        step, shared by every problem still searching."""
        model = da_rot_model()
        calls = count_model_calls(model)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, 1.0])
        grids = [sm.Grid.uniform(0.0, 1.0, n) for n in (5, 9, 17, 33)]
        problems = [(grid, bmap, perturbed_start(grid, bmap, grid.nodes.size)) for grid in grids]
        outcomes = newton_batch(model, problems, 4)
        g_evals = [stats.g_evals for _, stats, _ in outcomes]
        assert len(set(g_evals)) > 1
        assert calls["jet_many"] == max(g_evals) < sum(g_evals)
        f_evals = [stats.f_evals for _, stats, _ in outcomes]
        assert max(f_evals) <= calls["eval_many"] < sum(f_evals)
