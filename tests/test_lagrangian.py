import dataclasses

import numpy as np
import pytest

import supmin as sm

from conftest import random_builtin_model


def jet_block_errors(a, b):
    """Per-block relative deviation between two jets."""
    out = []
    for name in ("value", "dp", "deta", "dx", "dpp", "dpeta", "dpx", "detaeta"):
        xa, xb = np.atleast_1d(getattr(a, name)), np.atleast_1d(getattr(b, name))
        out.append(np.max(np.abs(xa - xb)) / (1.0 + np.max(np.abs(xb))))
    return max(out)


def loop_reference_jet(model, xs, etas, ps):
    """The central-difference jet as one ``eval_many`` call per shifted row
    set (51 at N=2): the reference the batched stencil of
    ``LagrangianModel.jet_many`` must equal bitwise."""
    f = model.eval_many
    eps = np.finfo(float).eps
    m, n = ps.shape
    ne = etas.shape[1]

    def shift(rows, i, h):
        out = rows.copy()
        out[:, i] += h
        return out

    value = f(xs, etas, ps)
    h1x, h1e, h1p = (eps ** (1.0 / 3.0) * (1.0 + np.abs(a)) for a in (xs, etas, ps))
    dp, deta = np.empty((m, n)), np.empty((m, ne))
    for i in range(n):
        h = h1p[:, i]
        dp[:, i] = (f(xs, etas, shift(ps, i, h)) - f(xs, etas, shift(ps, i, -h))) / (2 * h)
    for j in range(ne):
        h = h1e[:, j]
        deta[:, j] = (f(xs, shift(etas, j, h), ps) - f(xs, shift(etas, j, -h), ps)) / (2 * h)
    dx = (f(xs + h1x, etas, ps) - f(xs - h1x, etas, ps)) / (2 * h1x)

    h2x, h2e, h2p = (eps**0.25 * (1.0 + np.abs(a)) for a in (xs, etas, ps))

    def second_differences(g, rows, h2):
        k = rows.shape[1]
        out = np.empty((m, k, k))
        for i in range(k):
            hi = h2[:, i]
            up, down = shift(rows, i, hi), shift(rows, i, -hi)
            out[:, i, i] = (g(up) - 2 * value + g(down)) / hi**2
            for j in range(i + 1, k):
                hj = h2[:, j]
                out[:, i, j] = out[:, j, i] = (
                    g(shift(up, j, hj)) - g(shift(up, j, -hj))
                    - g(shift(down, j, hj)) + g(shift(down, j, -hj))
                ) / (4 * hi * hj)
        return 0.5 * (out + out.transpose(0, 2, 1))

    dpp = second_differences(lambda rows: f(xs, etas, rows), ps, h2p)
    detaeta = second_differences(lambda rows: f(xs, rows, ps), etas, h2e)
    dpeta, dpx = np.empty((m, n, ne)), np.empty((m, n))
    for i in range(n):
        hi = h2p[:, i]
        up, down = shift(ps, i, hi), shift(ps, i, -hi)
        for j in range(ne):
            hj = h2e[:, j]
            e_up, e_down = shift(etas, j, hj), shift(etas, j, -hj)
            dpeta[:, i, j] = (
                f(xs, e_up, up) - f(xs, e_down, up) - f(xs, e_up, down) + f(xs, e_down, down)
            ) / (4 * hi * hj)
        dpx[:, i] = (
            f(xs + h2x, etas, up) - f(xs - h2x, etas, up)
            - f(xs + h2x, etas, down) + f(xs - h2x, etas, down)
        ) / (4 * hi * h2x)
    return sm.JetDerivatives(value, dp, deta, dx, dpp, dpeta, dpx, detaeta)


def per_call_stencil_jet(model, xs, etas, ps):
    """``LagrangianModel.jet_many`` with its stencil's sign rows and pairs
    rebuilt on every call, as the stencil was built before it was cached."""
    eps = np.finfo(float).eps
    m, n = ps.shape
    z = np.column_stack([ps, etas, xs])
    k = z.shape[1]
    h1, h2 = eps ** (1.0 / 3.0) * (1.0 + np.abs(z)), eps**0.25 * (1.0 + np.abs(z))
    eye = np.eye(k)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if i < n or j < k - 1]

    def shifted(signs, h):
        signs = np.array(signs)[:, None, :]
        return np.where(signs != 0, z + signs * h, z)

    rows = np.concatenate([
        z[None],
        shifted([s * eye[i] for i in range(k) for s in (1, -1)], h1),
        shifted([s * eye[i] for i in range(k - 1) for s in (1, -1)]
                + [si * eye[i] + sj * eye[j] for i, j in pairs for si in (1, -1)
                   for sj in (1, -1)], h2),
    ]).reshape(-1, k)
    f = model.eval_many(*(np.ascontiguousarray(a)
                          for a in (rows[:, -1], rows[:, n:-1], rows[:, :n]))).reshape(-1, m)
    value, first, diagonal = f[0], f[1 : 2 * k + 1], f[2 * k + 1 : 4 * k - 1]
    corners = f[4 * k - 1 :].reshape(len(pairs), 4, m)
    grad = ((first[0::2] - first[1::2]) / (2 * h1.T)).T
    hess = np.zeros((m, k, k))
    d = np.arange(k - 1)
    hess[:, d, d] = ((diagonal[0::2] - 2 * value + diagonal[1::2]) / h2.T[:-1] ** 2).T
    i, j = np.array(pairs).T
    hess[:, i, j] = hess[:, j, i] = (
        (corners[:, 0] - corners[:, 1] - corners[:, 2] + corners[:, 3])
        / (4 * h2.T[i] * h2.T[j])).T
    eta = slice(n, k - 1)
    return sm.JetDerivatives(*(np.ascontiguousarray(a) for a in (
        value, grad[:, :n], grad[:, eta], grad[:, -1],
        hess[:, :n, :n], hess[:, :n, eta], hess[:, :n, -1], hess[:, eta, eta])))


def make_da(K, k_rows, A, c_rows):
    return sm.DataAssimilationModel(
        np.atleast_2d(K),
        sm.SampledSignal.from_rows(k_rows),
        np.atleast_2d(A),
        sm.SampledSignal.from_rows(c_rows),
    )


class TestEval:
    def test_power_norm_square(self):
        model = sm.PowerNormModel(2.0, [0.0, 0.0])
        assert model.eval(0.3, [5.0, -1.0], [3.0, 4.0]) == 25.0

    def test_data_assimilation_zero_fields(self):
        model = make_da([[0.0]], [[0.0, 0.0], [1.0, 0.0]], [[0.0]],
                        [[0.0, 0.0], [1.0, 0.0]])
        assert model.eval(0.5, [0.7], [1.0]) == 1.0

    def test_data_assimilation_hand_value(self):
        # |k(0.5) - eta|^2 + |p|^2 = (0.5 - 0.2)^2 + 1 = 1.09
        model = make_da([[1.0]], [[0.0, 0.0], [1.0, 1.0]], [[0.0]],
                        [[0.0, 0.0], [1.0, 0.0]])
        assert model.eval(0.5, [0.2], [1.0]) == pytest.approx(1.09, abs=1e-15)

    def test_negative_custom_raises(self):
        bad = sm.CustomModel(lambda x, e, p: -1.0, dim=1)
        with pytest.raises(sm.SupminError, match="Lagrangian evaluation is negative"):
            bad.eval(0.0, [0.0], [0.0])

    def test_nonfinite_raises(self):
        bad = sm.CustomModel(lambda x, e, p: np.inf, dim=1)
        with pytest.raises(sm.NonFinite):
            bad.eval(0.0, [0.0], [0.0])

    def test_row_width_must_match_model(self):
        """|p - offset|^2 with a 1-entry offset broadcasts over a 2-entry p:
        the row is rejected, not evaluated."""
        model = sm.PowerNormModel(2.0, [0.0])
        with pytest.raises(sm.SupminError, match="p dimension 2 differs from the model "
                                                 "dimension 1"):
            model.eval(0.2, [0.1], [1.0, 2.0])
        with pytest.raises(sm.SupminError, match="eta dimension 2 differs"):
            model.eval(0.2, [0.1, 0.2], [1.0])

    @pytest.mark.parametrize("model, p", [
        (sm.ScaledModel(sm.PowerNormModel(2.0, [0.0]), 1e300), 1e10),
        (sm.PowerNormModel(2.0, [0.0]), 1e200),
        (sm.MinOfNormsModel([[1.0], [-1.0]], exponent=2.0), 1e200),
    ])
    def test_overflow_raises_nonfinite(self, model, p):
        """An overflowing value or jet is a NonFinite error: never inf, and
        never a floating-point warning, which this suite turns into errors."""
        with pytest.raises(sm.NonFinite):
            model.eval(0.0, [0.0], [p])
        with pytest.raises(sm.NonFinite):
            model.jet(0.0, [0.0], [p])

    def test_eval_many_matches_scalar(self, rng):
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            model = random_builtin_model(rng, dim)
            xs = rng.uniform(0.0, 1.0, size=7)
            etas = rng.normal(size=(7, dim))
            ps = rng.normal(size=(7, dim))
            many = model.eval_many(xs, etas, ps)
            one = [model.eval(x, e, p) for x, e, p in zip(xs, etas, ps)]
            np.testing.assert_allclose(many, one, rtol=1e-13, atol=1e-13)

    def test_nonnegativity_sampling(self, rng):
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            model = random_builtin_model(rng, dim)
            xs = rng.uniform(0.0, 1.0, size=50)
            etas = rng.normal(scale=3.0, size=(50, dim))
            ps = rng.normal(scale=3.0, size=(50, dim))
            assert np.all(model.eval_many(xs, etas, ps) >= 0.0)


class TestJet:
    def test_power_norm_square_jet(self):
        jet = sm.PowerNormModel(2.0, [0.0, 0.0]).jet(0.1, [3.0, 1.0], [1.0, 2.0])
        np.testing.assert_allclose(jet.dp, [2.0, 4.0], atol=1e-14)
        np.testing.assert_allclose(jet.dpp, 2.0 * np.eye(2), atol=1e-14)
        assert np.all(jet.deta == 0.0) and jet.dx == 0.0

    def test_row_width_must_match_model(self):
        """Unchecked, this jet of |p|^2 at 2-entry rows has dpp [[2, 2], [2, 2]]."""
        model = sm.PowerNormModel(2.0, [0.0])
        with pytest.raises(sm.SupminError, match="eta dimension 2 differs from the model "
                                                 "dimension 1"):
            model.jet(0.2, [0.1, 0.2], [1.0, 2.0])

    def test_da_minimum_at_velocity(self):
        v = [1.5, -0.5]
        model = make_da(np.zeros((1, 2)), [[0.0, 0.0], [1.0, 0.0]], np.zeros((2, 2)),
                        [[0.0, *v], [1.0, *v]])
        jet = model.jet(0.5, [0.3, 0.4], v)
        assert jet.value == 0.0
        np.testing.assert_allclose(jet.dp, 0.0, atol=1e-15)

    def test_fd_matches_analytic_power_norm(self, rng):
        model = sm.PowerNormModel(2.0, [0.3, -0.7])
        mirror = sm.CustomModel(lambda x, e, p: np.linalg.norm(p - np.array([0.3, -0.7])) ** 2, dim=2)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(0.0, 1.0)
            eta = rng.normal(size=2)
            p = rng.normal(scale=2.0, size=2)
            worst = max(worst, jet_block_errors(mirror.jet(x, eta, p), model.jet(x, eta, p)))
        assert worst < 1e-6

    def test_fd_consistency_all_builtins(self, rng):
        worst = 0.0
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            model = random_builtin_model(rng, dim)
            x = rng.uniform(0.05, 0.95, size=1)
            eta = rng.uniform(-10, 10, size=(1, dim))
            p = rng.uniform(-10, 10, size=(1, dim))
            if np.linalg.norm(p - getattr(model, "offset", np.full(dim, np.inf))) < 0.5:
                continue  # keep clear of the power-norm apex
            fd = sm.LagrangianModel.jet_many(model, x, eta, p)
            worst = max(worst, jet_block_errors(fd, model.jet_many(x, eta, p)))
        assert worst < 1e-5

    def test_batch_equals_stacked_rows(self, rng):
        """jet_many and eval_many on a batch equal their one-row calls stacked, bitwise."""
        models = [sm.PowerNormModel(2.0, [0.3, -0.7]), sm.PowerNormModel(1.5, [0.3, -0.7]),
                  sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0),
                  sm.CustomModel(lambda x, e, p: (p[0] - x) ** 2 + np.sin(e[1]) ** 2 * p[1] ** 4,
                                 dim=2)]
        for name in ("identity", "shift", "power"):
            models.append(sm.RadialModel(sm.radial_profile(name, beta=0.5, gamma=1.7),
                                         rng.normal(size=(2, 2)),
                                         sm.SampledSignal(np.linspace(0.0, 1.0, 4),
                                                          rng.normal(size=(4, 2)))))
        for _ in range(3):
            models.append(random_builtin_model(rng, 2))
        models.append(sm.ScaledModel(models[-1], 3.0))
        models.append(sm.ScaledModel(models[2], 0.5))
        xs = rng.uniform(-0.2, 1.2, size=9)
        etas = rng.normal(size=(9, 2))
        ps = rng.normal(scale=2.0, size=(9, 2))
        for model in models:
            full = model.jet_many(xs, etas, ps)
            rows = [model.jet(x, e, p) for x, e, p in zip(xs, etas, ps)]
            for f in dataclasses.fields(full):
                stacked = np.stack([getattr(r, f.name) for r in rows])
                assert np.array_equal(getattr(full, f.name), stacked), (type(model), f.name)
            one = [model.eval(x, e, p) for x, e, p in zip(xs, etas, ps)]
            assert np.array_equal(model.eval_many(xs, etas, ps), one)
            # the jet's values are the batch's values, bitwise: the Newton step
            # reads its sample values from the jet
            assert np.array_equal(full.value, model.eval_many(xs, etas, ps)), type(model)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fd_jet_equals_loop_reference(self, rng, dim):
        """Every field of the batched stencil equals the one-call-per-row-set
        loop, bitwise, for the finite-difference models and the base-class
        jet of each analytic family."""
        knots = np.linspace(-0.5, 1.5, 5)
        c = sm.SampledSignal(knots, rng.normal(size=(5, dim)))
        centers = rng.normal(size=(3, dim))
        models = [
            sm.MinOfNormsModel(centers, exponent=1.7),
            # arctan2(0, p) tells -0.0 from +0.0
            sm.CustomModel(lambda x, e, p: (p[0] - x) ** 2 + np.sin(e[-1]) ** 2 * p[-1] ** 4
                           + np.cos(x * e[0]) ** 2 + np.arctan2(0.0, p[0]), dim=dim),
            sm.PowerNormModel(2.5, rng.normal(size=dim)),
            sm.DataAssimilationModel(rng.normal(size=(2, dim)),
                                     sm.SampledSignal(knots, rng.normal(size=(5, 2))),
                                     rng.normal(size=(dim, dim)), c),
        ] + [sm.RadialModel(sm.radial_profile(name, beta=0.5, gamma=1.7),
                            rng.normal(size=(dim, dim)), c)
             for name in ("identity", "shift", "power")]
        for model in models:
            for rows in (1, 2, 7, 39):
                xs = rng.uniform(-0.2, 1.2, size=rows)
                etas = rng.normal(size=(rows, dim))
                ps = rng.normal(scale=2.0, size=(rows, dim))
                # near a min-of-norms centre the stencil's values are far apart,
                # so the order of a mixed difference's terms shows in its last bits
                ps[1:6] = centers[0] + 1e-3 * rng.normal(size=(len(ps[1:6]), dim))
                ps[0, 0] = -0.0  # stays -0.0 in every row that does not shift it
                jet = sm.LagrangianModel.jet_many(model, xs, etas, ps)
                ref = loop_reference_jet(model, xs, etas, ps)
                for f in dataclasses.fields(jet):
                    assert np.array_equal(getattr(jet, f.name), getattr(ref, f.name)), \
                        (type(model), rows, f.name)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fd_jet_equals_per_call_stencil(self, rng, dim):
        """The cached stencil gives every field of the stencil rebuilt per
        call, bitwise."""
        centers = rng.normal(size=(2, dim))
        models = [
            sm.MinOfNormsModel(centers, exponent=1.3),
            sm.CustomModel(lambda x, e, p: (p[0] - x) ** 2 + np.sin(e[-1]) ** 2 * p[-1] ** 4
                           + np.cos(x * e[0]) ** 2 + np.arctan2(0.0, p[0]), dim=dim),
        ]
        xs = rng.uniform(-0.2, 1.2, size=11)
        etas = rng.normal(size=(11, dim))
        ps = rng.normal(scale=2.0, size=(11, dim))
        ps[1:4] = centers[0] + 1e-3 * rng.normal(size=(3, dim))
        ps[0, 0] = etas[0, -1] = -0.0
        for model in models:
            jet = model.jet_many(xs, etas, ps)
            ref = per_call_stencil_jet(model, xs, etas, ps)
            for f in dataclasses.fields(jet):
                assert np.array_equal(getattr(jet, f.name), getattr(ref, f.name)), \
                    (type(model), f.name)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stencil_built_once_and_read_only(self, dim):
        stencil = sm.lagrangian._fd_stencil(dim)
        assert sm.lagrangian._fd_stencil(dim) is stencil
        first, second, (i, j) = stencil
        k = 2 * dim + 1
        assert first.shape == (2 * k, k) and second.shape == (2 * (k - 1) + 4 * len(i), k)
        for array in (first, second, i, j):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_power_norm_apex_raises_below_quadratic(self):
        ps = np.array([[1.0, 2.0], [0.3, -0.7]])
        with pytest.raises(sm.NonFinite):
            sm.PowerNormModel(1.5, [0.3, -0.7]).jet_many(np.zeros(2), np.zeros((2, 2)), ps)
        jet = sm.PowerNormModel(2.0, [0.3, -0.7]).jet_many(np.zeros(2), np.zeros((2, 2)), ps)
        assert np.array_equal(jet.dp[1], [0.0, 0.0])

    def test_fd_dpp_symmetric(self, rng):
        fn = lambda x, e, p: (p[0] ** 2) * (p[1] + 2.0) ** 2 + x * e[0] ** 2
        jet = sm.CustomModel(fn, dim=2).jet(0.4, [1.0, -1.0], [0.7, 0.3])
        assert np.array_equal(jet.dpp, jet.dpp.T)

    def test_scaled_jets_scale_exactly(self, rng):
        base = sm.PowerNormModel(2.0, [0.0])
        doubled = sm.ScaledModel(base, 2.0)
        j1 = base.jet(0.0, [0.0], [3.0])
        j2 = doubled.jet(0.0, [0.0], [3.0])
        assert j2.value == 2.0 * j1.value and np.array_equal(j2.dp, 2.0 * j1.dp)


class TestRowNorms:
    """Every row norm of a model is ``_squared_distances`` under a square
    root, bitwise equal to the ``np.linalg.norm`` forms it replaced for
    N <= 7."""

    @pytest.mark.parametrize("dim", range(1, 8))
    @pytest.mark.parametrize("num_centers", [1, 2, 3])
    def test_equals_linalg_norm(self, rng, dim, num_centers):
        centers = rng.normal(size=(num_centers, dim))
        exponent = float(rng.uniform(0.5, 3.0))
        for rows in (1, 2, 7, 39, 4096):
            ps = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-4, 5, size=(rows, dim))
            ps[rng.random((rows, dim)) < 0.2] = -0.0
            ps[0] = centers[0]  # a zero distance
            xs, etas = np.zeros(rows), np.zeros((rows, dim))
            helper = sm.lagrangian._squared_distances
            for c in centers:
                assert np.array_equal(np.sqrt(helper(ps, c)), np.linalg.norm(ps - c, axis=1))
            # the growth check's |p|
            assert np.array_equal(np.sqrt(helper(ps, np.zeros(dim))), np.linalg.norm(ps, axis=1))
            nearest = np.min(np.linalg.norm(ps[:, None, :] - centers[None, :, :], axis=2), axis=1)
            assert np.array_equal(sm.MinOfNormsModel(centers, exponent).eval_many(xs, etas, ps),
                                  nearest**exponent)
            model = sm.PowerNormModel(exponent, centers[-1])
            rho = np.linalg.norm(ps - centers[-1][None, :], axis=1)
            assert np.array_equal(model.eval_many(xs, etas, ps), rho**exponent)
            ps[0] += 1.0  # off the apex, where the jet of s < 2 is singular
            rho = np.linalg.norm(ps - centers[-1][None, :], axis=1)
            assert np.array_equal(model.jet_many(xs, etas, ps).value, rho**exponent)

    @pytest.mark.parametrize("p", [[1e200, 0.0, 0.0], [1.3e154, 1.3e154, 0.0]],
                             ids=["square", "sum"])
    def test_overflowing_row_raises_nonfinite(self, p):
        """A square or a sum of squares that overflows raises NonFinite, with
        no floating-point warning."""
        ps = np.array([[0.5, -0.0, 2.0], p, [0.0, 1.0, 0.0]])
        xs, etas = np.zeros(3), np.zeros((3, 3))
        for model in (sm.MinOfNormsModel([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], exponent=1.0),
                      sm.PowerNormModel(1.0, [0.0, 0.0, 0.0])):
            with pytest.raises(sm.NonFinite):
                model.eval_many(xs, etas, ps)
        with pytest.raises(sm.NonFinite):
            sm.PowerNormModel(2.0, [0.0, 0.0, 0.0]).jet_many(xs, etas, ps)


class TestSampledSignal:
    def test_interpolation_and_extension(self):
        sig = sm.SampledSignal.from_rows([[0.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(sig.eval_many(np.array([0.5, -1.0, 2.0]))[:, 0], [2.0, 1.0, 3.0])

    def test_derivative_left_tie_break(self):
        sig = sm.SampledSignal.from_rows([[0.0, 0.0], [0.5, 0.0], [1.0, 1.0]])
        assert np.array_equal(sig.derivative_many(np.array([0.5, 0.75, 1.5]))[:, 0],
                              [0.0, 2.0, 0.0])

    def test_constant(self):
        sig = sm.SampledSignal.constant([2.0, -1.0])
        assert np.array_equal(sig.eval_many(np.array([0.3])), [[2.0, -1.0]])
        assert np.all(sig.derivative_many(np.array([0.3])) == 0.0)

    def test_validation(self):
        with pytest.raises(sm.SupminError):
            sm.SampledSignal.from_rows([[0.0, 1.0], [0.0, 2.0]])


class TestLevelConvexity:
    def test_power_norm_passes(self):
        res = sm.check_level_convexity(sm.PowerNormModel(2.0, [0.0, 0.0]),
                                       sm.SamplePlan(num_triples=300, seed=1))
        assert res.passed and not res.witnesses

    def test_data_assimilation_passes(self, rng):
        model = random_builtin_model(np.random.default_rng(5), 2)
        res = sm.check_level_convexity(model, sm.SamplePlan(num_triples=300, seed=2))
        assert res.passed

    def test_min_norms_witness_found_and_sound(self):
        model = sm.MinOfNormsModel([[2.0], [-2.0]], exponent=1.0)
        res = sm.check_level_convexity(model, sm.SamplePlan(num_triples=500, seed=3))
        assert not res.passed
        for w in res.witnesses:
            mixed = model.eval(w.x, w.eta, w.lam * w.p1 + (1 - w.lam) * w.p2)
            assert mixed > w.end_max + 1e-9 * (1.0 + w.end_max)

    def test_min_norms_brute_force_oracle(self):
        # independent grid scan certifies the midpoint witness at p1=-2, p2=2
        model = sm.MinOfNormsModel([[2.0], [-2.0]], exponent=1.0)
        found = False
        for p1 in np.linspace(-3, 3, 13):
            for p2 in np.linspace(-3, 3, 13):
                for lam in np.linspace(0.0, 1.0, 5):
                    mix = lam * p1 + (1 - lam) * p2
                    lhs = model.eval(0.0, [0.0], [mix])
                    rhs = max(model.eval(0.0, [0.0], [p1]), model.eval(0.0, [0.0], [p2]))
                    if lhs > rhs + 1e-9:
                        found = True
        assert found
        assert model.eval(0.0, [0.0], [0.0]) == 2.0  # the canonical midpoint witness

    def test_overflowing_model_raises(self):
        """A model whose every sample overflows is not certified."""
        model = sm.ScaledModel(sm.PowerNormModel(2.0, [0.0]), 1e300)
        plan = sm.SamplePlan(num_triples=10, box=sm.Box(p=(1e10, 2e10)))
        with pytest.raises(sm.NonFinite):
            sm.check_level_convexity(model, plan)


    def test_matches_per_triple_loop(self):
        """Block sampling reproduces the per-triple rng.uniform draws, the
        one-point evaluations and the witness order of a plain loop."""
        model = sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0)
        plan = sm.SamplePlan(num_triples=1500, box=sm.Box(x=(0.25, 2.0)), t_levels=3, seed=9)
        rng = np.random.default_rng(plan.seed)
        lams = np.linspace(0.0, 1.0, plan.t_levels + 2)[1:-1]
        expected = []
        for _ in range(plan.num_triples):
            x = float(rng.uniform(*plan.box.x))
            eta = rng.uniform(*plan.box.eta, size=2)
            p1 = rng.uniform(*plan.box.p, size=2)
            p2 = rng.uniform(*plan.box.p, size=2)
            end_max = max(model.eval(x, eta, p1), model.eval(x, eta, p2))
            for lam in lams:
                mixed = model.eval(x, eta, lam * p1 + (1.0 - lam) * p2)
                if mixed > end_max + sm.lagrangian.level_convexity_tolerance(end_max):
                    expected.append([x, *eta, *p1, *p2, lam, mixed, end_max])
        got = [[w.x, *w.eta, *w.p1, *w.p2, w.lam, w.mixed_value, w.end_max]
               for w in sm.check_level_convexity(model, plan).witnesses]
        assert len(expected) > 10 and got == expected


class TestGrowthBounds:
    def test_exact_equality_case(self):
        growth = sm.GrowthParams(1.0, 0.0, 0.0, 2.0, 2.0, 1.0)
        res = sm.check_growth_bounds(sm.PowerNormModel(2.0, [0.0, 0.0]),
                                     growth, sm.SamplePlan(num_triples=300, seed=4))
        assert res.passed
        assert res.lower_margin == 0.0 and res.upper_margin == 0.0

    def test_false_lower_bound_witnessed(self):
        growth = sm.GrowthParams(2.0, 0.0, 0.0, 2.0, 2.0, 1.0)
        res = sm.check_growth_bounds(sm.PowerNormModel(2.0, [0.0, 0.0]),
                                     growth, sm.SamplePlan(num_triples=300, seed=5))
        assert not res.passed
        assert all(w.side == "lower" for w in res.witnesses)

    def test_shifted_velocity_constants(self, rng):
        # |p - v|^2 >= |p|^2/2 - |v|^2 and <= 2|p|^2 + 2|v|^2
        v = np.array([1.0, -2.0])
        model = make_da(np.zeros((1, 2)), [[0.0, 0.0], [1.0, 0.0]], np.zeros((2, 2)),
                        [[0.0, *v], [1.0, *v]])
        vv = float(v @ v)
        for _ in range(2000):
            p = rng.uniform(-10, 10, size=2)
            val = float((p - v) @ (p - v))
            assert val >= 0.5 * p @ p - vv - 1e-9
            assert val <= 2.0 * p @ p + 2.0 * vv + 1e-9
        growth = sm.GrowthParams(0.5, vv, 2.0 * vv, 2.0, 2.0, 2.0)
        res = sm.check_growth_bounds(model, growth, sm.SamplePlan(num_triples=500, seed=6))
        assert res.passed

    def test_matches_per_sample_loop(self):
        model = sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0)
        growth = sm.GrowthParams(0.6, 0.5, 0.2, 2.0, 2.0, lambda x, eta: 0.5 + x)
        plan = sm.SamplePlan(num_triples=5000, seed=11)
        rng = np.random.default_rng(plan.seed)
        expected = []
        for _ in range(plan.num_triples):
            x = float(rng.uniform(*plan.box.x))
            eta = rng.uniform(*plan.box.eta, size=2)
            p = rng.uniform(*plan.box.p, size=2)
            val = model.eval(x, eta, p)
            pn = np.linalg.norm(p, axis=-1)
            lower = growth.c1 * pn**growth.q - growth.c2
            upper = (0.5 + x) * pn**growth.r + growth.c3
            tol = 1e-9 * (1.0 + abs(val))
            if val - lower < -tol:
                expected.append(([x, *eta, *p, val, "lower"], lower))
            if upper - val < -tol:
                expected.append(([x, *eta, *p, val, "upper"], upper))
        res = sm.check_growth_bounds(model, growth, plan)
        assert {row[-1] for row, _ in expected} == {"lower", "upper"}
        assert [[w.x, *w.eta, *w.p, w.value, w.side] for w in res.witnesses] == [
            row for row, _ in expected]
        # array and scalar powers may round differently in the last bit
        np.testing.assert_allclose([w.bound for w in res.witnesses],
                                   [bound for _, bound in expected], rtol=4 * np.finfo(float).eps)

    def test_invalid_params(self):
        with pytest.raises(sm.SupminError):
            sm.GrowthParams(1.0, 0.0, 0.0, 3.0, 2.0)
        with pytest.raises(sm.SupminError):
            sm.GrowthParams(-1.0, 0.0, 0.0, 1.0, 2.0)

    @pytest.mark.parametrize("h_bound", [float("nan"), -1.0, np.inf])
    def test_h_bound_must_be_finite_and_nonnegative(self, h_bound):
        """A NaN h_bound would pass every upper comparison: with it,
        |p|^4 <= h |p|^2 was certified where h = 1 has witnesses."""
        with pytest.raises(sm.SupminError, match="h_bound must be finite and nonnegative"):
            sm.GrowthParams(0.0, 0.0, 0.0, 2.0, 2.0, h_bound=h_bound)

    def test_nonfinite_envelope_raises(self):
        growth = sm.GrowthParams(0.0, 0.0, 0.0, 2.0, 2.0,
                                 lambda x, eta: np.nan if x > 0.5 else 1.0)
        with pytest.raises(sm.NonFinite, match="growth envelope h_bound is not finite"):
            sm.check_growth_bounds(sm.PowerNormModel(4.0, [0.0]), growth,
                                   sm.SamplePlan(num_triples=200))


class TestDecomposition:
    def test_da_is_sum_of_two_squares(self, rng):
        K = rng.normal(size=(2, 3))
        A = rng.normal(size=(3, 3))
        xs = np.linspace(0.0, 1.0, 4)
        ksig = sm.SampledSignal(xs, rng.normal(size=(4, 2)))
        csig = sm.SampledSignal(xs, rng.normal(size=(4, 3)))
        model = sm.DataAssimilationModel(K, ksig, A, csig)
        xs = rng.uniform(0.0, 1.0, size=50)
        etas = rng.normal(size=(50, 3))
        ps = rng.normal(size=(50, 3))
        # the products K eta and A eta are summed row by row, as in the model
        r = ksig.eval_many(xs) - np.sum(etas[:, None, :] * K, axis=2)
        w = ps - (np.sum(etas[:, None, :] * A, axis=2) + csig.eval_many(xs))
        assert np.array_equal(model.eval_many(xs, etas, ps),
                              np.sum(r * r, axis=1) + np.sum(w * w, axis=1))


NAN = float("nan")


def _scan_with_schedule(schedule):
    psi = sm.Path(sm.Grid.uniform(0.0, 1.0, 17), np.zeros((17, 1)))
    return sm.endpoint_quotient_scan(sm.PowerNormModel(2.0, [0.0]), psi, schedule)


def _power_energy_of_order(m):
    path = sm.Path(sm.Grid.uniform(0.0, 1.0, 5), np.zeros((5, 1)))
    return sm.power_energy(sm.PowerNormModel(2.0, [1.0]), path, m)


def _five_node_path():
    return sm.Path(sm.Grid.uniform(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5)[:, None])


def _semicontinuity_with_tol(tol_audit):
    path = _five_node_path()
    return sm.semicontinuity_check(sm.PowerNormModel(2.0, [0.0]), [(2, path), (4, path), (8, path)],
                                   path, tol_audit=tol_audit)


def _minimize_power_of_order(m):
    return sm.minimize_power(sm.PowerNormModel(2.0, [1.0]), sm.Grid.uniform(0.0, 1.0, 5),
                             sm.AffineMap([0.0], [1.0]), m)


@pytest.mark.parametrize("build, message", [
    (lambda: sm.SolveOptions(max_iters=NAN), "max_iters must be positive"),
    (lambda: sm.SweepSchedule(tol_sweep=NAN), "tol_sweep must be positive"),
    (lambda: sm.AuditConfig(tol_audit=NAN), "tol_audit must be positive"),
    (lambda: sm.AuditConfig(num_subintervals=NAN), "audit config counts must be positive"),
    (lambda: sm.AuditConfig(min_elements=NAN), "audit config counts must be positive"),
    (lambda: sm.GrowthParams(NAN, 0, 0, 2, 2), "growth constants must be nonnegative"),
    (lambda: sm.MinOfNormsModel([[1.0]], exponent=NAN), "exponent must be positive"),
    (lambda: sm.MinOfNormsModel([[1.0]], exponent=np.inf), "exponent must be positive"),
    (lambda: sm.radial_profile("shift", beta=NAN), "shift profile needs beta >= 0"),
    (lambda: sm.radial_profile("power", gamma=NAN), "power profile needs gamma > 0"),
    (lambda: sm.radial_profile("shift", beta=np.inf), "shift profile needs beta >= 0, finite"),
    (lambda: sm.radial_profile("power", gamma=np.inf), "power profile needs gamma > 0, finite"),
    (lambda: _scan_with_schedule([0.2, NAN]), "strictly decreasing"),
    (lambda: _scan_with_schedule([NAN]), r"must lie in \(0, length/3\)"),
    # counts and seeds must be ints in range, not floats that fail deep in a run
    (lambda: sm.SolveOptions(max_iters=2.5), "max_iters must be positive"),
    (lambda: sm.SweepSchedule(m_max=8.0), "schedule needs m_max >= 2"),
    (lambda: sm.SweepSchedule(restarts=2.0), "restarts must be >= 1"),
    (lambda: sm.AuditConfig(num_subintervals=2.5), "audit config counts must be positive"),
    (lambda: sm.AuditConfig(seed=-1), "seed must be an integer >= 0"),
    (lambda: sm.SamplePlan(num_triples=NAN), "needs num_triples >= 1 and t_levels >= 1"),
    (lambda: sm.SamplePlan(t_levels=NAN), "needs num_triples >= 1 and t_levels >= 1"),
    (lambda: sm.SamplePlan(num_triples=2.5), "needs num_triples >= 1 and t_levels >= 1"),
    (lambda: sm.SamplePlan(seed=-1), "seed must be an integer >= 0"),
    (lambda: sm.m_sweep(sm.PowerNormModel(2.0, [1.0]), sm.Grid.uniform(0.0, 1.0, 5),
                        sm.AffineMap([0.0], [1.0]), seed=-1), "seed must be an integer >= 0"),
    # the order must be an integer, not truncated to one
    (lambda: _power_energy_of_order(2.5), "power energy needs m >= 1"),
    (lambda: _minimize_power_of_order(2.5), "power energy needs m >= 1"),
    (lambda: _minimize_power_of_order(NAN), "power energy needs m >= 1"),
    (lambda: sm.eval_and_slope(_five_node_path(), NAN), "outside"),
    (lambda: sm.difference_quotient(_five_node_path(), 0.5, NAN), "outside"),
    (lambda: sm.Grid.uniform(0.0, 1.0, 17.5), "grid needs at least 3 nodes"),
    (lambda: _semicontinuity_with_tol(NAN), "tol_audit must be positive"),
    (lambda: sm.endpoint_quotient_scan(sm.PowerNormModel(2.0, [0.0]), _five_node_path(),
                                       [0.2], tol_audit=NAN), "tol_audit must be positive"),
], ids=["max_iters", "tol_sweep", "tol_audit", "audit_subintervals", "audit_min_elements",
        "growth_c1", "min_norms_nan",
        "min_norms_inf", "shift_beta", "power_gamma", "shift_beta_inf", "power_gamma_inf",
        "scan_order", "scan_range", "max_iters_float", "m_max_float", "restarts_float",
        "audit_subintervals_float", "audit_seed_negative", "plan_triples_nan",
        "plan_levels_nan", "plan_triples_float", "plan_seed_negative", "sweep_seed_negative",
        "power_order_float", "solve_order_float", "solve_order_nan", "eval_and_slope_nan",
        "quotient_t_nan", "grid_nodes_float", "semicontinuity_tol_nan", "scan_tol_nan"])
def test_range_checks_reject_nan(build, message):
    """A NaN compares false with every bound, so each check is written to
    fail, not pass, on it."""
    with pytest.raises(sm.SupminError, match=message):
        build()
