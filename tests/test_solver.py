from collections import deque

import numpy as np
import pytest

import supmin as sm
from supmin.solver import (BACKTRACK, HISTORY, INIT_STEP, MIN_STEP, SUFFICIENT_DECREASE,
                           _two_loop_direction)


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
    ``power_energy_gradient`` per trial, the gradient evaluated afresh."""
    opts = options or sm.SolveOptions()
    init = init if init is not None else sm.interpolate_affine(boundary, grid)
    values = np.array(init.values)
    values[0], values[-1] = boundary(grid.a), boundary(grid.b)
    free = slice(1, values.shape[0] - 1)

    def fval(v):
        return sm.power_energy(model, sm.Path(grid, v), m).normalized_root

    def gval(v):
        return sm.power_energy_gradient(model, sm.Path(grid, v), m)[free]

    f, g = fval(values), gval(values)
    f_evals = 1
    memory = deque(maxlen=HISTORY)
    iterations, failed = 0, False
    gnorm = float(np.max(np.abs(g)))
    while gnorm > opts.grad_tol and iterations < opts.max_iters:
        d = _two_loop_direction(memory, g)
        slope = float(np.sum(d * g))
        if slope >= 0.0:
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
        g_trial = gval(trial)
        s, y = step * d, g_trial - g
        sy = float(np.sum(s * y))
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            memory.append((s, y, 1.0 / sy))
        values, f, g = trial, f_trial, g_trial
        gnorm = float(np.max(np.abs(g)))
        iterations += 1
    stats = sm.SolveStats(iterations, gnorm, f, gnorm <= opts.grad_tol, failed, f_evals)
    return sm.Path(grid, values), stats


def drift_model():
    """L = |p - c(x)|^2 with c = (sin 2 pi x, cos 3x) on 8 knots."""
    knots = np.linspace(0.0, 1.0, 9)
    c = sm.SampledSignal(knots, np.column_stack([np.sin(2 * np.pi * knots), np.cos(3 * knots)]))
    zero = sm.SampledSignal.from_rows([[0.0, 0.0], [1.0, 0.0]])
    return sm.DataAssimilationModel(np.zeros((1, 2)), zero, np.zeros((2, 2)), c)


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
        "min-norms": (sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0), grid17,
                      zig_bmap, 4, perturbed_start(grid17, zig_bmap, 2),
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
    differences) and the order of each jet_many call."""
    calls = {"eval_many": 0, "jet_orders": []}
    eval_many, jet_many = model.eval_many, model.jet_many

    def counted_eval(*args):
        calls["eval_many"] += 1
        return eval_many(*args)

    def counted_jet(*args, order=2):
        calls["jet_orders"].append(order)
        return jet_many(*args, order=order)

    model.eval_many, model.jet_many = counted_eval, counted_jet
    return calls


class TestSolveCounts:
    def test_analytic_model_one_eval_per_objective(self):
        model = da_rot_model()
        calls = count_model_calls(model)
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        _, stats = sm.minimize_power(model, grid, sm.AffineMap([0.0, 0.0], [1.0, 1.0]), 2,
                                     options=sm.SolveOptions(max_iters=25))
        assert stats.iterations == 25 and stats.f_evals > stats.g_evals == 26
        assert calls["eval_many"] == stats.f_evals
        assert calls["jet_orders"] == [1] * stats.g_evals

    def test_finite_difference_model_nine_evals_per_gradient(self):
        model = sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0)
        calls = count_model_calls(model)
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [0.0, 1.0])
        _, stats = sm.minimize_power(model, grid, bmap, 4, perturbed_start(grid, bmap, 2),
                                     sm.SolveOptions(max_iters=20))
        assert stats.g_evals == stats.iterations + 1 > 1
        assert calls["eval_many"] == stats.f_evals + 9 * stats.g_evals
        assert calls["jet_orders"] == [1] * stats.g_evals

    def test_sweep_records_carry_counts(self):
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, -0.5])
        res = sm.m_sweep(drift_model(), grid, bmap, sm.SweepSchedule(m_max=8))
        current = None
        for rec in res.records:
            current, stats = sm.minimize_power(drift_model(), grid, bmap, rec.m, current)
            assert rec.stats == stats and stats.f_evals >= stats.g_evals


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

    def test_nonfinite_initial_objective(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        bmap = sm.AffineMap([0.0], [10.0])
        model = sm.PowerNormModel(600.0, [0.0])  # 10^600 overflows
        with pytest.raises(sm.NonFinite):
            sm.minimize_power(model, grid, bmap, 2)


class TestSweep:
    def test_power_norm_constant_roots(self):
        grid = sm.Grid.uniform(0.0, 1.0, 65)
        bmap = sm.AffineMap([0.0, 0.0], [1.0, 0.0])
        res = sm.m_sweep(sm.PowerNormModel(2.0, [0.0, 0.0]), grid, bmap)
        assert np.allclose(res.c_sequence, 1.0, atol=1e-12)
        assert res.sup_of_candidate == pytest.approx(1.0, abs=1e-12)
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

    def test_aborted_sweep_partial(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        bmap = sm.AffineMap([0.0], [10.0])
        res = sm.m_sweep(sm.PowerNormModel(600.0, [0.0]), grid, bmap)
        assert res.aborted and res.error is not None
        assert res.records == []

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
