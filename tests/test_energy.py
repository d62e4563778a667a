import numpy as np
import pytest

import supmin as sm
from supmin.energy import MidpointPowerRule

from conftest import (ROTATION, dense_block_tridiagonal, drift_model, random_builtin_model,
                      random_path)

EPS = np.finfo(float).eps
NAN = float("nan")


def spike_path():
    return sm.Path(sm.Grid(np.array([0.0, 0.5, 1.0])), np.array([[0.0], [0.0], [1.0]]))


def affine_path(b0, b1, num_nodes=9, a=0.0, b=1.0):
    return sm.interpolate_affine(sm.AffineMap(b0, b1), sm.Grid.uniform(a, b, num_nodes))


def fd_root_gradient(model, path, m, subinterval=None):
    """Central finite differences of the normalized root over interior nodes."""
    grad = np.zeros_like(path.values)
    base = np.array(path.values)
    for i in range(1, base.shape[0] - 1):
        for j in range(base.shape[1]):
            h = 1e-6 * (1.0 + abs(base[i, j]))
            up, dn = base.copy(), base.copy()
            up[i, j] += h
            dn[i, j] -= h
            fp = sm.power_energy(model, sm.Path(path.grid, up), m, subinterval).normalized_root
            fm = sm.power_energy(model, sm.Path(path.grid, dn), m, subinterval).normalized_root
            grad[i, j] = (fp - fm) / (2 * h)
    return grad


class TestSupEnergy:
    def test_affine_slope_two(self):
        path = affine_path([0.0, 0.0], [2.0, 0.0])
        assert sm.sup_energy(sm.PowerNormModel(2.0, [0.0, 0.0]), path) == 4.0

    def test_spike_max(self):
        assert sm.sup_energy(sm.PowerNormModel(2.0, [0.0]), spike_path()) == 4.0

    def test_subinterval_excludes_steep_element(self):
        assert sm.sup_energy(sm.PowerNormModel(2.0, [0.0]), spike_path(), (0.0, 0.4)) == 0.0

    def test_empty_interval(self):
        with pytest.raises(sm.SupminError, match=r"need alpha < beta, got \(0\.5, 0\.5\)"):
            sm.sup_energy(sm.PowerNormModel(2.0, [0.0]), spike_path(), (0.5, 0.5))

    @pytest.mark.parametrize("energy", [
        lambda model, path, sub: sm.sup_energy(model, path, sub),
        lambda model, path, sub: sm.power_energy(model, path, 4, sub),
        lambda model, path, sub: sm.power_energy_gradient(model, path, 4, sub),
    ], ids=["sup_energy", "power_energy", "power_energy_gradient"])
    @pytest.mark.parametrize("subinterval", [(NAN, 0.5), (0.0, NAN)],
                             ids=["nan_alpha", "nan_beta"])
    def test_nan_end(self, energy, subinterval):
        """A NaN end fails the subinterval checks instead of reaching numpy."""
        with pytest.raises(sm.SupminError, match=r"need alpha < beta, got \(.*nan.*\)"):
            energy(sm.PowerNormModel(2.0, [0.0]), spike_path(), subinterval)

    def test_model_dimension_mismatch(self):
        path = affine_path([0.0, 0.0], [2.0, 0.0])
        with pytest.raises(sm.SupminError, match="path dimension 2 differs from the model "
                                                 "dimension 1"):
            sm.sup_energy(sm.PowerNormModel(2.0, [0.0]), path)

    def test_equals_power_energy_sup_bitwise(self, rng):
        """One rule: the sup energy is the largest midpoint sample of every
        power energy, for models that read x and u too."""
        signal = sm.SampledSignal(np.linspace(-0.5, 1.5, 5), rng.normal(scale=0.5, size=(5, 2)))
        models = [
            sm.PowerNormModel(1.5, rng.normal(size=2)),
            sm.DataAssimilationModel(rng.normal(scale=0.5, size=(1, 2)),
                                     sm.SampledSignal(np.linspace(-0.5, 1.5, 5),
                                                      rng.normal(scale=0.5, size=(5, 1))),
                                     rng.normal(scale=0.3, size=(2, 2)), signal),
            sm.RadialModel(sm.radial_profile("shift", beta=0.5, gamma=1.7),
                           rng.normal(scale=0.3, size=(2, 2)), signal),
            sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0),
            sm.CustomModel(lambda x, e, p: (p[0] - x) ** 2 + np.sin(e[1]) ** 2 * p[1] ** 4, dim=2),
        ]
        models.append(sm.ScaledModel(models[1], 3.0))
        for model in models:
            for _ in range(10):
                path = random_path(rng, dim=2)
                lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
                for sub in (None, (lo, hi)):
                    sup = sm.sup_energy(model, path, sub)
                    for m in (1, 2, 64, 1024):
                        assert sup == sm.power_energy(model, path, m, sub).sup


class TestPowerEnergy:
    def test_affine_unit(self):
        model = sm.PowerNormModel(2.0, [0.0, 0.0])
        for m in (1, 2, 7, 64):
            rep = sm.power_energy(model, affine_path([0.0, 0.0], [1.0, 0.0]), m)
            assert rep.normalized_root == pytest.approx(1.0, abs=1e-14)

    def test_spike_m3_closed_form(self):
        rep = sm.power_energy(sm.PowerNormModel(2.0, [0.0]), spike_path(), 3)
        assert rep.normalized_root == pytest.approx(4.0 * 0.5 ** (1.0 / 3.0), rel=1e-14)

    def test_overflow_flag_and_stable_root(self):
        """At m = 1024 the integral of L^m, 4^1024 / 2, overflows a double;
        the factored root does not."""
        mp = pytest.importorskip("mpmath")
        rep = sm.power_energy(sm.PowerNormModel(2.0, [0.0]), spike_path(), 1024)
        mp.mp.dps = 60
        oracle = mp.mpf(4) * mp.power(mp.mpf("0.5"), mp.mpf(1) / 1024)
        assert rep.normalized_root == pytest.approx(float(oracle), rel=1e-13)

    def test_zero_energy(self):
        rep = sm.power_energy(sm.PowerNormModel(2.0, [0.0]), affine_path([1.0], [0.0]), 8)
        assert rep.normalized_root == 0.0 and rep.sup == 0.0

    def test_root_below_sample_max(self, rng):
        for _ in range(30):
            model = random_builtin_model(rng, int(rng.integers(1, 4)))
            path = random_path(rng, dim=model.dim)
            m = int(rng.integers(1, 64))
            rep = sm.power_energy(model, path, m)
            assert rep.normalized_root <= rep.sup * (1 + 1e-12) + 1e-300


class TestPowerMeanProperties:
    def test_monotone_in_m(self, rng):
        ms = [1, 2, 4, 8, 16, 32, 64, 128, 256]
        for _ in range(40):
            model = random_builtin_model(rng, int(rng.integers(1, 4)))
            path = random_path(rng, dim=model.dim)
            reports = [sm.power_energy(model, path, m) for m in ms]
            scale = 1.0 + reports[0].sup
            roots = [r.normalized_root for r in reports]
            for lo, hi in zip(roots, roots[1:]):
                assert lo <= hi + 1e-12 * scale

    def test_root_approaches_sample_max(self, rng):
        for _ in range(20):
            model = random_builtin_model(rng, int(rng.integers(1, 4)))
            path = random_path(rng, grid=sm.Grid.uniform(0.0, 1.0, 33), dim=model.dim)
            rep = sm.power_energy(model, path, 1024)
            if rep.sup > 1e-8:
                assert rep.normalized_root >= 0.98 * rep.sup

    def test_max_splitting_at_nodes(self, rng):
        for _ in range(30):
            model = random_builtin_model(rng, int(rng.integers(1, 4)))
            path = random_path(rng, dim=model.dim)
            nodes = path.grid.nodes
            cuts = sorted(set(rng.choice(nodes[1:-1], size=min(2, nodes.size - 2), replace=False)))
            bounds = [nodes[0], *cuts, nodes[-1]]
            whole = sm.sup_energy(model, path)
            parts = max(sm.sup_energy(model, path, (lo, hi)) for lo, hi in zip(bounds, bounds[1:]))
            assert parts == pytest.approx(whole, rel=1e-12, abs=1e-12)


class TestGradient:
    def test_zero_at_unconstrained_minimum(self):
        v = np.array([1.0, -0.5])
        model = sm.PowerNormModel(2.0, v)
        path = affine_path([0.0, 0.0], v, num_nodes=17)
        grad = sm.power_energy_gradient(model, path, 4)
        assert np.max(np.abs(grad)) < 1e-12

    def test_constant_path_zero_region(self):
        # the jet of |p|^1 is singular at p = offset: s = 1 takes the zero-sample fallback
        for s in (2.0, 1.0):
            model = sm.PowerNormModel(s, [0.0])
            grad = sm.power_energy_gradient(model, affine_path([2.0], [0.0]), 2)
            assert np.all(grad == 0.0)

    def test_one_jet_call_and_no_eval_call(self):
        """The gradient takes one jet and no separate evaluation, on a path
        with nonzero samples and on one where L vanishes everywhere."""
        model = sm.PowerNormModel(2.0, [0.5, 0.0])
        calls = {"eval_many": 0, "jet_many": 0}

        def counted(name):
            method = getattr(model, name)

            def wrapper(*args):
                calls[name] += 1
                return method(*args)
            return wrapper

        for name in calls:
            setattr(model, name, counted(name))
        straight = affine_path([0.0, 0.0], [1.0, -1.0])
        bump = np.zeros((9, 2))
        bump[4, 0] = 0.25
        bent = sm.Path(straight.grid, straight.values + bump)
        for path, zero in ((bent, False), (affine_path([0.0, 0.0], [0.5, 0.0]), True)):
            calls.update(eval_many=0, jet_many=0)
            grad = sm.power_energy_gradient(model, path, 4)
            assert calls == {"eval_many": 0, "jet_many": 1}
            assert np.all(grad == 0.0) == zero
            if zero:
                assert not np.any(np.signbit(grad))

    def test_vanished_problem_in_a_stack(self, rng):
        """In a stack, a problem whose samples all vanish gets zero gradient
        rows and a zero element part, with no 0/0, and the other problem's
        numbers are those it has alone, bitwise."""
        model = sm.PowerNormModel(2.0, [1.0, 0.0])
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        zero = affine_path([0.0, 0.0], [1.0, 0.0]).values
        other = random_path(rng, grid=grid, dim=2).values
        for m in (1, 2, 8):
            alone = MidpointPowerRule(grid, m).derivatives(model, other)
            rule = MidpointPowerRule.stack([MidpointPowerRule(grid, m)] * 2)
            grad, (diag, upper) = rule.derivatives(model, np.concatenate([zero, other]))
            assert np.all(grad[:9] == 0.0) and np.all(upper[:9] == 0.0)
            assert np.all(diag[1:8] == 0.0) and np.array_equal(diag[[0, 8]], [np.eye(2)] * 2)
            assert np.array_equal(grad[9:], alone[0])
            assert np.array_equal(diag[9:], alone[1][0]) and np.array_equal(upper[9:], alone[1][1])

    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(10):
            model = random_builtin_model(rng, 2)
            path = random_path(rng, grid=sm.Grid.uniform(0.0, 1.0, 17), dim=2)
            analytic = sm.power_energy_gradient(model, path, 8)
            fd = fd_root_gradient(model, path, 8)
            worst = max(worst, np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic))))
        assert worst < 1e-5

    def test_boundary_rows_zero_on_subinterval(self, rng):
        model = random_builtin_model(rng, 2)
        path = random_path(rng, grid=sm.Grid.uniform(0.0, 1.0, 17), dim=2)
        nodes = path.grid.nodes
        grad = sm.power_energy_gradient(model, path, 4, (nodes[3], nodes[9]))
        assert np.all(grad[: 4] == 0.0) and np.all(grad[9:] == 0.0)
        assert np.any(grad[4:9] != 0.0)

    def test_subinterval_gradient_matches_fd(self, rng):
        model = random_builtin_model(rng, 2)
        path = random_path(rng, grid=sm.Grid.uniform(0.0, 1.0, 17), dim=2)
        nodes = path.grid.nodes
        sub = (nodes[3], nodes[9])
        analytic = sm.power_energy_gradient(model, path, 4, sub)
        fd = fd_root_gradient(model, path, 4, sub)
        fd[:4] = 0.0
        fd[9:] = 0.0  # clamped rows by convention
        rel = np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic)))
        assert rel < 1e-5


def dense_root_hessian(model, path, m, subinterval=None):
    """The Hessian of the normalized root over every node: the rule's
    block-tridiagonal element part assembled densely, minus (m-1)/root g g^T."""
    rule = MidpointPowerRule(path.grid, m, subinterval)
    samples = rule.samples(model, path.values)
    grad, hessian = rule.derivatives(model, path.values)
    g = grad.ravel()
    return (dense_block_tridiagonal(*hessian)
            - (m - 1) / samples.root * np.outer(g, g))


def fd_root_hessian(model, path, m, subinterval=None, h=1e-4):
    """Central differences of ``power_energy_gradient`` in every nodal value."""
    base = np.array(path.values)
    cols = []
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            up, dn = base.copy(), base.copy()
            up[i, j] += h
            dn[i, j] -= h
            cols.append((sm.power_energy_gradient(model, sm.Path(path.grid, up), m, subinterval)
                         - sm.power_energy_gradient(model, sm.Path(path.grid, dn), m, subinterval)
                         ).ravel() / (2 * h))
    return np.column_stack(cols)


class TestHessian:
    @pytest.mark.parametrize("name", ["power_norm_3", "power_norm_4", "data_assimilation",
                                      "rotating_drift", "radial_power", "radial_identity",
                                      "min_norms", "custom", "scaled"])
    def test_matches_finite_differences_of_gradient(self, name, rng):
        signal = sm.SampledSignal(np.linspace(-0.5, 1.5, 5), rng.normal(scale=0.5, size=(5, 2)))
        da = sm.DataAssimilationModel(rng.normal(scale=0.5, size=(1, 2)),
                                      sm.SampledSignal(np.linspace(-0.5, 1.5, 5),
                                                       rng.normal(scale=0.5, size=(5, 1))),
                                      rng.normal(scale=0.3, size=(2, 2)), signal)
        model = {
            "power_norm_3": lambda: sm.PowerNormModel(3.0, rng.normal(size=2)),
            "power_norm_4": lambda: sm.PowerNormModel(4.0, rng.normal(size=2)),
            "data_assimilation": lambda: da,
            "rotating_drift": lambda: drift_model(ROTATION),
            "radial_power": lambda: sm.RadialModel(sm.radial_profile("power", gamma=1.7),
                                                   rng.normal(scale=0.5, size=(2, 2)), signal),
            "radial_identity": lambda: sm.RadialModel(sm.radial_profile("identity"),
                                                      rng.normal(scale=0.5, size=(2, 2)), signal),
            "min_norms": lambda: sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0),
            "custom": lambda: sm.CustomModel(
                lambda x, e, p: (p[0] - x) ** 2 + (1.0 + np.sin(e[1]) ** 2) * p[1] ** 4
                + e[0] ** 2 * p[0] ** 2, dim=2),
            "scaled": lambda: sm.ScaledModel(da, 3.0),
        }[name]()
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        nodes = grid.nodes
        worst = 0.0
        for m, sub in ((2, None), (8, None), (4, (nodes[1] + 0.03, nodes[6] - 0.05))):
            path = random_path(rng, grid=grid, dim=2, scale=0.5)
            exact = dense_root_hessian(model, path, m, sub)
            fd = fd_root_hessian(model, path, m, sub)
            clamped = np.repeat(MidpointPowerRule(grid, m, sub).clamped, 2)
            free = np.ix_(~clamped, ~clamped)
            worst = max(worst, np.max(np.abs(exact[free] - fd[free]))
                        / (1.0 + np.max(np.abs(exact[free]))))
            assert np.array_equal(exact[np.ix_(clamped, clamped)], np.eye(int(clamped.sum())))
            assert np.all(exact[np.ix_(clamped, ~clamped)] == 0.0)
        assert worst < 1e-6


class TestJensenGap:
    def test_norm_average(self):
        model = sm.PowerNormModel(1.0, [0.0])
        gap = sm.jensen_gap(model, 0.0, [0.0], [0.5, 0.5], [[0.0], [2.0]])
        assert gap == pytest.approx(1.0, abs=1e-14)

    def test_single_entry_zero(self):
        model = sm.PowerNormModel(2.0, [0.0])
        assert sm.jensen_gap(model, 0.0, [0.0], [1.0], [[1.3]]) == 0.0

    def test_counterexample_negative(self):
        model = sm.MinOfNormsModel([[2.0], [-2.0]], exponent=1.0)
        gap = sm.jensen_gap(model, 0.0, [0.0], [0.5, 0.5], [[-2.0], [2.0]])
        assert gap == -2.0

    def test_bad_weights(self):
        model = sm.PowerNormModel(2.0, [0.0])
        with pytest.raises(sm.SupminError, match="weights must be nonnegative and sum to 1 within 1e-12"):
            sm.jensen_gap(model, 0.0, [0.0], [0.7, 0.7], [[0.0], [1.0]])
        with pytest.raises(sm.SupminError, match="weights must be nonnegative and sum to 1 within 1e-12"):
            sm.jensen_gap(model, 0.0, [0.0], [-0.5, 1.5], [[0.0], [1.0]])
        with pytest.raises(sm.SupminError, match="weights must be nonnegative and sum to 1 within 1e-12"):
            sm.jensen_gap(model, 0.0, [0.0], [np.nan, np.nan], [[0.0], [1.0]])

    def test_width_must_match_model(self):
        """Unchecked, a 1-D model at 2-entry slopes returns 5.75."""
        model = sm.PowerNormModel(2.0, [0.0])
        with pytest.raises(sm.SupminError, match="p dimension 2 differs from the model "
                                                 "dimension 1"):
            sm.jensen_gap(model, 0.0, [0.0], [0.5, 0.5], [[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(sm.SupminError, match="p dimension 2 differs"):
            sm.jensen_gap(model, 0.0, [0.0], [0.5, 0.5], [[0.0], [2.0, 3.0]])
        with pytest.raises(sm.SupminError, match="eta dimension 2 differs"):
            sm.jensen_gap(model, 0.0, [0.0, 0.0], [0.5, 0.5], [[0.0], [2.0]])

    def test_nonnegative_for_builtins(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            model = random_builtin_model(rng, dim)
            k = int(rng.integers(2, 5))
            weights = rng.dirichlet(np.ones(k))
            ps = [rng.uniform(-5, 5, size=dim) for _ in range(k)]
            gap = sm.jensen_gap(model, rng.uniform(0, 1), rng.normal(size=dim), weights, ps)
            assert gap >= -1e-9
