import warnings

import numpy as np
import pytest

import supmin as sm
from supmin.energy import MidpointPowerRule
from supmin.solver import (BACKTRACK, INIT_STEP, MIN_STEP, SUFFICIENT_DECREASE,
                           _block_tridiagonal_solve, _newton_direction)

from conftest import ROTATION, dense_block_tridiagonal, drift_model
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
    ``power_energy_gradient`` per trial, the gradient and the Newton direction
    evaluated afresh from a new rule at every iterate, and no fixed-point stop
    (it runs on until ``max_iters``)."""
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
        rule = MidpointPowerRule(grid, m)
        samples = rule.samples(model, v)
        hessian = rule.derivatives(model, samples)[1]
        return _newton_direction(grad, hessian, (m - 1) / samples.root)[free]

    f, grad = fval(values), gval(values)
    f_evals = 1
    iterations, failed = 0, False
    gnorm = float(np.max(np.abs(grad[free])))
    while gnorm > opts.grad_tol and iterations < opts.max_iters:
        g = grad[free]
        d = newton(values, grad)
        slope = float(np.sum(d * g))
        if not -np.inf < slope < 0.0:
            d, slope = -g, -float(np.sum(g * g))
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
            failed = True
            break
        values, f, grad = trial, f_trial, gval(trial)
        gnorm = float(np.max(np.abs(grad[free])))
        iterations += 1
    reason = "line_search" if failed else "grad_tol" if gnorm <= opts.grad_tol else "max_iters"
    stats = sm.SolveStats(iterations, gnorm, f, reason, f_evals)
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


def test_fixed_point_stop_changes_no_returned_value():
    """On 17-node DA-rot at m=2, with ``grad_tol`` below the round-off floor
    of the gradient, the accepted trial equals the current values bitwise
    after 7 iterations; every later iteration repeats that one, so stopping
    there returns what the run to ``max_iters`` returns."""
    grid = sm.Grid.uniform(0.0, 1.0, 17)
    bmap = sm.AffineMap([0.0, 0.0], [1.0, 1.0])
    options = sm.SolveOptions(max_iters=100, grad_tol=1e-15)
    path, stats = sm.minimize_power(da_rot_model(), grid, bmap, 2, options=options)
    ref_path, ref_stats = reference_minimize_power(da_rot_model(), grid, bmap, 2,
                                                   options=options)
    assert (stats.stop_reason, stats.iterations, stats.f_evals) == ("stalled", 7, 10)
    assert (ref_stats.stop_reason, ref_stats.iterations, ref_stats.f_evals) == (
        "max_iters", 100, 194)
    assert not stats.converged and not stats.line_search_failed
    assert np.array_equal(path.values, ref_path.values)
    assert stats.objective == ref_stats.objective
    assert stats.grad_norm == ref_stats.grad_norm


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

    def test_finite_difference_model_one_eval_of_51_rows_per_jet(self):
        model = sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0)
        calls = count_model_calls(model)
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [0.0, 1.0])
        _, stats = sm.minimize_power(model, grid, bmap, 4, perturbed_start(grid, bmap, 2),
                                     sm.SolveOptions(max_iters=20))
        assert stats.g_evals == stats.iterations + 1 > 1
        assert calls["jet_many"] == stats.g_evals
        assert calls["eval_many"] == stats.f_evals + stats.g_evals
        # one row per element per objective, 51 per element in a jet's stencil
        elements = grid.num_elements
        assert sorted(set(calls["rows"])) == [elements, 51 * elements]
        assert calls["rows"].count(51 * elements) == stats.g_evals

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
        solves = []
        minimize_power = sm.solver.minimize_power

        def recorded(*args):
            path, stats = minimize_power(*args)
            solves.append(stats)
            return path, stats

        monkeypatch.setattr(sm.solver, "minimize_power", recorded)
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [0.0, 1.0])
        model = sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0)
        res = sm.m_sweep(model, grid, bmap, sm.SweepSchedule(m_max=8, restarts=3), seed=3)
        assert res.solves == solves and len(solves) > len(res.records)
        assert res.solve_totals == {
            "iterations": sum(s.iterations for s in solves),
            "f_evals": sum(s.f_evals for s in solves),
            "g_evals": sum(s.g_evals for s in solves),
        }


class TestNewtonDirection:
    @pytest.mark.parametrize("k, n, cols", [(1, 2, 1), (2, 1, 1), (9, 2, 2), (40, 3, 1)])
    def test_block_solve_matches_dense_solve(self, k, n, cols, rng):
        """Block Thomas elimination equals a dense solve of the same system."""
        upper = rng.normal(size=(k - 1, n, n))
        diag = rng.normal(size=(k, n, n))
        diag = diag + diag.transpose(0, 2, 1) + 4.0 * n * np.eye(n)
        rhs = rng.normal(size=(k, n, cols))
        got = _block_tridiagonal_solve(diag, upper, rhs)
        want = np.linalg.solve(dense_block_tridiagonal(diag, upper), rhs.reshape(k * n, cols))
        assert np.max(np.abs(got.reshape(k * n, cols) - want)) <= 1e-12 * np.max(np.abs(want))

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
        rule = MidpointPowerRule(grid, m)
        samples = rule.samples(model, values)
        grad, hessian = rule.derivatives(model, samples)
        hess = dense_root_hessian(model, sm.Path(grid, values), m)
        want = np.linalg.solve(hess, -grad.ravel())
        got = _newton_direction(grad, hessian, (m - 1) / samples.root).ravel()
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
        rule = MidpointPowerRule(grid, 2)
        samples = rule.samples(model, init.values)
        grad, hessian = rule.derivatives(model, samples)
        assert np.any(grad != 0.0)
        assert np.all(np.isnan(_newton_direction(grad, hessian, 1.0 / samples.root)))
        path, stats = sm.minimize_power(model, grid, bmap, 2, init)
        assert stats.converged
        np.testing.assert_allclose(path.values, sm.interpolate_affine(bmap, grid).values,
                                   atol=1e-8)


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
        number of the discrete Laplacian."""
        counts = self.m2_iterations(((0.0, 0.0), (0.0, 0.0)))
        assert len(set(counts)) == 1 and counts[0] <= 10, counts
        assert max(self.m2_iterations(ROTATION)) <= 10

    @pytest.mark.parametrize("nodes", [17, 33, 65, 129])
    def test_da_rot_every_record_converges(self, nodes):
        """DA-rot with the CLI's defaults: every exponent of the sweep stops at
        ``grad_tol``."""
        res = sm.m_sweep(da_rot_model(), sm.Grid.uniform(0.0, 1.0, nodes),
                         sm.AffineMap([0.0, 0.0], [1.0, 1.0]), sm.SweepSchedule(),
                         sm.SolveOptions())
        assert [rec.m for rec in res.records] == sm.SweepSchedule().exponents()
        assert [rec.stats.stop_reason for rec in res.records] == ["grad_tol"] * len(res.records)


class TestMinimizePower:
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

    def test_nonfinite_initial_objective(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        bmap = sm.AffineMap([0.0], [10.0])
        model = sm.PowerNormModel(600.0, [0.0])  # 10^600 overflows
        with pytest.raises(sm.NonFinite):
            sm.minimize_power(model, grid, bmap, 2)

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
        assert res.stop_reason == "tol_sweep" and len(res.records) == 2
        assert [rec.stats.stop_reason for rec in res.records] == ["grad_tol"] * 2
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
        tol = sm.SweepSchedule().tol_sweep
        assert res.sup_of_candidate >= res.c_sequence[-1] - 10 * tol

    def test_roots_nondecreasing(self):
        grid = sm.Grid.uniform(0.0, 1.0, 33)
        bmap = sm.AffineMap([0.0], [2.0])
        schedule = sm.SweepSchedule(tol_sweep=1e-6)
        res = sm.m_sweep(sm.PowerNormModel(2.0, [1.0]), grid, bmap, schedule)
        roots = res.c_sequence
        for lo, hi in zip(roots, roots[1:]):
            assert lo <= hi + 10 * schedule.tol_sweep

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
        assert sm.SweepSchedule().exponents() == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        assert sm.SweepSchedule(m_max=1000).exponents()[-1] == 512
        assert sm.SweepSchedule(m_max=2).exponents() == [2]
