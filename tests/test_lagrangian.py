import dataclasses
import re
import warnings

import numpy as np
import pytest

import supmin as sm

from conftest import one_row, random_builtin_model


def blocks(jet):
    """The fields of a ``JetDerivatives``, or an x-jet's ``(dx, dpx)``, by name."""
    if isinstance(jet, tuple):
        return dict(zip(("dx", "dpx"), jet))
    return {f.name: getattr(jet, f.name) for f in dataclasses.fields(jet)}


def jet_block_errors(a, b):
    """Per-block relative deviation between two jets or two x-jets."""
    b = blocks(b)
    return max(np.max(np.abs(np.atleast_1d(xa) - b[name])) / (1.0 + np.max(np.abs(b[name])))
               for name, xa in blocks(a).items())


def assert_fields_equal(jet, ref, *context):
    """Every block of a jet or an x-jet equals the same-named entry of the
    dict ``ref``, bitwise."""
    for name, value in blocks(jet).items():
        assert np.array_equal(value, ref[name]), (*context, name)


def loop_reference_jet(model, xs, etas, ps):
    """The central-difference jet and x-jet as one ``eval_many`` call per
    shifted row set, a dict of the fields ``value`` to ``detaeta`` and
    ``dx``, ``dpx``: the reference the batched stencils of
    ``LagrangianModel.jet_many`` and ``x_jet_many`` must equal bitwise."""
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
    return dict(value=value, dp=dp, deta=deta, dx=dx, dpp=dpp, dpeta=dpeta, dpx=dpx,
                detaeta=detaeta)


def stencil_51_jet(model, xs, etas, ps):
    """A reference copy of the 51-row stencil (at N = 2) that computed every
    jet field, ``dx`` and ``dpx`` included, with its sign rows and pairs
    rebuilt on every call: a dict of the eight fields."""
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
    return dict(zip(("value", "dp", "deta", "dx", "dpp", "dpeta", "dpx", "detaeta"), (
        value, grad[:, :n], grad[:, eta], grad[:, -1],
        hess[:, :n, :n], hess[:, :n, eta], hess[:, :n, -1], hess[:, eta, eta])))


def make_da(K, k_rows, A, c_rows):
    return sm.DataAssimilationModel(
        np.atleast_2d(K),
        sm.SampledSignal.from_rows(k_rows),
        np.atleast_2d(A),
        sm.SampledSignal.from_rows(c_rows),
    )


def da_model(n):
    """DA-rot's model at N = 2; at another N, one with DA-rot's signal knots
    and fields drawn from a generator seeded with N."""
    if n == 2:
        K, A, c = [[1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]
    else:
        rng = np.random.default_rng(n)
        K, A = rng.normal(size=(1, n)), rng.normal(scale=0.5, size=(n, n))
        c = rng.normal(size=(3, n))
    return make_da(K, [[0.0, 0.5], [0.5, -0.3], [1.0, 0.2]], A,
                   np.column_stack([[0.0, 0.5, 1.0], c]))


def two_wells(n):
    """min(L(x, eta, p), L(x, eta, p + 2)) for ``da_model(n)``: a model that
    reads x and eta and is not level-convex in p."""
    da = da_model(n)
    return sm.CustomModel(lambda xs, etas, ps: np.minimum(da.eval_many(xs, etas, ps),
                                                          da.eval_many(xs, etas, ps + 2.0)), n)


def assert_matches_per_triple_loop(model, plan):
    """``check_level_convexity`` finds the witnesses of a plain loop over
    triples, per-triple ``rng.uniform`` draws and one ``eval_many`` call
    per point, in its order, and more than ten of them."""
    L = lambda x, eta, p: model.eval_many(*one_row(x, eta, p))[0]
    rng = np.random.default_rng(plan.seed)
    lams = np.linspace(0.0, 1.0, sm.lagrangian.T_LEVELS + 2)[1:-1]
    expected = []
    for _ in range(plan.num_triples):
        x = float(rng.uniform(*plan.box.x))
        eta = rng.uniform(*plan.box.eta, size=model.dim)
        p1 = rng.uniform(*plan.box.p, size=model.dim)
        p2 = rng.uniform(*plan.box.p, size=model.dim)
        end_max = max(L(x, eta, p1), L(x, eta, p2))
        for lam in lams:
            mixed = L(x, eta, lam * p1 + (1.0 - lam) * p2)
            if mixed > end_max + sm.lagrangian.sample_tolerance(end_max):
                expected.append([x, *eta, *p1, *p2, lam, mixed, end_max])
    got = [[w.x, *w.eta, *w.p1, *w.p2, w.lam, w.mixed_value, w.end_max]
           for w in sm.check_level_convexity(model, plan).witnesses]
    assert len(expected) > 10 and got == expected


def assert_matches_per_sample_loop(model, growth, plan):
    """``check_growth_bounds`` finds the witnesses of a plain loop over
    samples, per-sample ``rng.uniform`` draws and one ``eval_many`` call per
    point, in its order, and among them witnesses of both sides."""
    L = lambda x, eta, p: model.eval_many(*one_row(x, eta, p))[0]
    rng = np.random.default_rng(plan.seed)
    expected = []
    for _ in range(plan.num_triples):
        x = float(rng.uniform(*plan.box.x))
        eta = rng.uniform(*plan.box.eta, size=model.dim)
        p = rng.uniform(*plan.box.p, size=model.dim)
        val = L(x, eta, p)
        pn = np.linalg.norm(p, axis=-1)
        lower = growth.C1 * pn**growth.q - growth.C2
        upper = growth.h_bound * pn**growth.r + growth.C3
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


class TestEval:
    def test_power_norm_square(self):
        model = sm.PowerNormModel(2.0, [0.0, 0.0])
        assert model.eval_many(*one_row(0.3, [5.0, -1.0], [3.0, 4.0]))[0] == 25.0

    def test_data_assimilation_zero_fields(self):
        model = make_da([[0.0]], [[0.0, 0.0], [1.0, 0.0]], [[0.0]],
                        [[0.0, 0.0], [1.0, 0.0]])
        assert model.eval_many(*one_row(0.5, [0.7], [1.0]))[0] == 1.0

    def test_data_assimilation_hand_value(self):
        # |k(0.5) - eta|^2 + |p|^2 = (0.5 - 0.2)^2 + 1 = 1.09
        model = make_da([[1.0]], [[0.0, 0.0], [1.0, 1.0]], [[0.0]],
                        [[0.0, 0.0], [1.0, 0.0]])
        assert model.eval_many(*one_row(0.5, [0.2], [1.0]))[0] == pytest.approx(1.09, abs=1e-15)

    def test_negative_custom_raises(self):
        bad = sm.CustomModel(lambda x, e, p: np.full(len(x), -1.0), dim=1)
        with pytest.raises(sm.SupminError, match="Lagrangian evaluation is negative"):
            bad.eval_many(*one_row(0.0, [0.0], [0.0]))

    def test_nonfinite_raises(self):
        bad = sm.CustomModel(lambda x, e, p: np.full(len(x), np.inf), dim=1)
        with pytest.raises(sm.NonFinite):
            bad.eval_many(*one_row(0.0, [0.0], [0.0]))

    @pytest.mark.parametrize("model, p", [
        (sm.ScaledModel(sm.PowerNormModel(2.0, [0.0]), 1e300), 1e10),
        (sm.PowerNormModel(2.0, [0.0]), 1e200),
        (sm.MinOfNormsModel([[1.0], [-1.0]], exponent=2.0), 1e200),
    ])
    def test_overflow_raises_nonfinite(self, model, p):
        """An overflowing value or jet is a NonFinite error: never inf, and
        never a floating-point warning, which this suite turns into errors."""
        with pytest.raises(sm.NonFinite):
            model.eval_many(*one_row(0.0, [0.0], [p]))
        with pytest.raises(sm.NonFinite):
            model.jet_many(*one_row(0.0, [0.0], [p]))

    @pytest.mark.parametrize("model, p", [
        (make_da([[1.0, 0.0]], [[0.0, 0.5], [0.5, -0.3], [1.0, 0.2]], [[0.0, 1.0], [-1.0, 0.0]],
                 [[0.0, 1.0, 0.0], [0.5, 0.0, 2.0], [1.0, 1.0, 0.0]]), 1e160),
        (sm.RadialModel(sm.radial_profile("power", gamma=3.0), [[0.0, 1.0], [-1.0, 0.0]],
                        sm.SampledSignal.constant([1.0, 0.0])), 1e110),
    ], ids=["data_assimilation", "radial"])
    def test_overflowing_row_in_a_batch_raises_quietly(self, model, p):
        """One row among finite ones whose value overflows: ``eval_many`` and
        ``jet_many`` raise NonFinite and no floating-point warning."""
        xs, etas = np.array([0.1, 0.5, 0.9]), np.zeros((3, 2))
        ps = np.array([[1.0, 0.0], [p, -p], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for evaluate in (model.eval_many, model.jet_many):
                with pytest.raises(sm.NonFinite):
                    evaluate(xs, etas, ps)

    def test_eval_many_matches_scalar(self, rng):
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            model = random_builtin_model(rng, dim)
            xs = rng.uniform(0.0, 1.0, size=7)
            etas = rng.normal(size=(7, dim))
            ps = rng.normal(size=(7, dim))
            many = model.eval_many(xs, etas, ps)
            one = [model.eval_many(xs[i:i + 1], etas[i:i + 1], ps[i:i + 1])[0] for i in range(7)]
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
        model, row = sm.PowerNormModel(2.0, [0.0, 0.0]), one_row(0.1, [3.0, 1.0], [1.0, 2.0])
        jet = model.jet_many(*row)
        np.testing.assert_allclose(jet.dp[0], [2.0, 4.0], atol=1e-14)
        np.testing.assert_allclose(jet.dpp[0], 2.0 * np.eye(2), atol=1e-14)
        dx, dpx = model.x_jet_many(*row)
        assert np.all(jet.deta[0] == 0.0) and dx[0] == 0.0 and np.all(dpx == 0.0)

    def test_da_minimum_at_velocity(self):
        v = [1.5, -0.5]
        model = make_da(np.zeros((1, 2)), [[0.0, 0.0], [1.0, 0.0]], np.zeros((2, 2)),
                        [[0.0, *v], [1.0, *v]])
        jet = model.jet_many(*one_row(0.5, [0.3, 0.4], v))
        assert jet.value[0] == 0.0
        np.testing.assert_allclose(jet.dp[0], 0.0, atol=1e-15)

    def test_fd_matches_analytic_power_norm(self, rng):
        model = sm.PowerNormModel(2.0, [0.3, -0.7])
        mirror = sm.CustomModel(
            lambda x, e, p: np.linalg.norm(p - np.array([0.3, -0.7]), axis=1) ** 2, dim=2)
        worst = 0.0
        for _ in range(100):
            row = one_row(rng.uniform(0.0, 1.0), rng.normal(size=2), rng.normal(scale=2.0, size=2))
            worst = max(worst, jet_block_errors(mirror.jet_many(*row), model.jet_many(*row)),
                        jet_block_errors(mirror.x_jet_many(*row), model.x_jet_many(*row)))
        assert worst < 1e-6

    def test_fd_consistency_all_builtins(self, rng):
        """Each built-in family's jet matches the base class's finite
        differences, away from a centre and from a tie of two."""
        worst, kinds = 0.0, set()
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            model = random_builtin_model(rng, dim)
            x = rng.uniform(0.05, 0.95, size=1)
            eta = rng.uniform(-10, 10, size=(1, dim))
            p = rng.uniform(-10, 10, size=(1, dim))
            centers = np.atleast_2d(getattr(model, "centers",
                                            getattr(model, "offset", np.empty((0, dim)))))
            gaps = np.diff(np.sort(np.linalg.norm(p - centers, axis=1)), prepend=0.0)
            if centers.size and gaps.min() < 0.5:
                continue  # keep clear of an apex and of a kink between two centres
            kinds.add(type(model))
            fd = sm.LagrangianModel.jet_many(model, x, eta, p)
            worst = max(worst, jet_block_errors(fd, model.jet_many(x, eta, p)))
        assert len(kinds) == 4 and worst < 1e-5

    def test_batch_equals_stacked_rows(self, rng):
        """jet_many and eval_many on a batch equal their one-row calls stacked, bitwise."""
        models = [sm.PowerNormModel(2.0, [0.3, -0.7]), sm.PowerNormModel(1.5, [0.3, -0.7]),
                  sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0),
                  sm.CustomModel(lambda x, e, p: (p[:, 0] - x) ** 2
                                 + np.sin(e[:, 1]) ** 2 * p[:, 1] ** 4, dim=2)]
        for name, beta in (("shift", 0.0), ("shift", 0.5), ("power", 0.5)):
            models.append(sm.RadialModel(sm.radial_profile(name, beta=beta, gamma=1.7),
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
            rows = [model.jet_many(xs[i:i + 1], etas[i:i + 1], ps[i:i + 1]) for i in range(9)]
            for f in dataclasses.fields(full):
                stacked = np.concatenate([getattr(r, f.name) for r in rows])
                assert np.array_equal(getattr(full, f.name), stacked), (type(model), f.name)
            one = np.concatenate([model.eval_many(xs[i:i + 1], etas[i:i + 1], ps[i:i + 1])
                                  for i in range(9)])
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
            sm.CustomModel(lambda x, e, p: (p[:, 0] - x) ** 2 + np.sin(e[:, -1]) ** 2 * p[:, -1] ** 4
                           + np.cos(x * e[:, 0]) ** 2 + np.arctan2(0.0, p[:, 0]), dim=dim),
            sm.PowerNormModel(2.5, rng.normal(size=dim)),
            sm.DataAssimilationModel(rng.normal(size=(2, dim)),
                                     sm.SampledSignal(knots, rng.normal(size=(5, 2))),
                                     rng.normal(size=(dim, dim)), c),
        ] + [sm.RadialModel(sm.radial_profile(name, beta=beta, gamma=1.7),
                            rng.normal(size=(dim, dim)), c)
             for name, beta in (("shift", 0.0), ("shift", 0.5), ("power", 0.5))]
        for model in models:
            for rows in (1, 2, 7, 39):
                xs = rng.uniform(-0.2, 1.2, size=rows)
                etas = rng.normal(size=(rows, dim))
                ps = rng.normal(scale=2.0, size=(rows, dim))
                # near a min-of-norms centre the stencil's values are far apart,
                # so the order of a mixed difference's terms shows in its last bits
                ps[1:6] = centers[0] + 1e-3 * rng.normal(size=(len(ps[1:6]), dim))
                ps[0, 0] = -0.0  # stays -0.0 in every row that does not shift it
                ref = loop_reference_jet(model, xs, etas, ps)
                assert_fields_equal(sm.LagrangianModel.jet_many(model, xs, etas, ps), ref,
                                    type(model), rows)
                assert_fields_equal(sm.LagrangianModel.x_jet_many(model, xs, etas, ps),
                                    ref, type(model), rows)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fd_jet_equals_per_call_stencil(self, rng, dim):
        """The cached 41-row stencil (at N = 2) gives the value, dp, deta and
        (eta, p) blocks of the 51-row stencil that also took the
        x-derivatives, rebuilt per call, bitwise; ``x_jet_many``'s own
        stencil gives its dx and dpx, bitwise."""
        centers = rng.normal(size=(2, dim))
        models = [
            sm.MinOfNormsModel(centers, exponent=1.3),
            sm.CustomModel(lambda x, e, p: (p[:, 0] - x) ** 2 + np.sin(e[:, -1]) ** 2 * p[:, -1] ** 4
                           + np.cos(x * e[:, 0]) ** 2 + np.arctan2(0.0, p[:, 0]), dim=dim),
        ]
        xs = rng.uniform(-0.2, 1.2, size=11)
        etas = rng.normal(size=(11, dim))
        ps = rng.normal(scale=2.0, size=(11, dim))
        ps[1:4] = centers[0] + 1e-3 * rng.normal(size=(3, dim))
        ps[0, 0] = etas[0, -1] = -0.0
        for model in models:
            ref = stencil_51_jet(model, xs, etas, ps)
            assert_fields_equal(sm.LagrangianModel.jet_many(model, xs, etas, ps), ref, type(model))
            assert_fields_equal(sm.LagrangianModel.x_jet_many(model, xs, etas, ps),
                                ref, type(model))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stencil_built_once_and_read_only(self, dim):
        stencil = sm.lagrangian._fd_stencil(dim)
        assert sm.lagrangian._fd_stencil(dim) is stencil
        first, second, (i, j) = stencil
        k = 2 * dim
        assert first.shape == (2 * k, k) and second.shape == (2 * k + 4 * len(i), k)
        assert len(i) == k * (k - 1) // 2
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
        fn = lambda x, e, p: (p[:, 0] ** 2) * (p[:, 1] + 2.0) ** 2 + x * e[:, 0] ** 2
        jet = sm.CustomModel(fn, dim=2).jet_many(*one_row(0.4, [1.0, -1.0], [0.7, 0.3]))
        assert np.array_equal(jet.dpp[0], jet.dpp[0].T)

    def test_scaled_jets_scale_exactly(self, rng):
        base = sm.PowerNormModel(2.0, [0.0])
        doubled = sm.ScaledModel(base, 2.0)
        j1 = base.jet_many(*one_row(0.0, [0.0], [3.0]))
        j2 = doubled.jet_many(*one_row(0.0, [0.0], [3.0]))
        assert j2.value[0] == 2.0 * j1.value[0] and np.array_equal(j2.dp, 2.0 * j1.dp)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_da_constant_blocks_are_closed_forms_and_read_only(self, rng, dim):
        """The DA jet's second-order blocks, built once per model, are the
        closed forms 2I, -2A and 2K^T K + 2A^T A at every row, bitwise.  A
        write into them raises, so no caller can change the model's cached
        blocks, and a scaled model scales them."""
        K, A = rng.normal(size=(2, dim)), rng.normal(size=(dim, dim))
        model = sm.DataAssimilationModel(
            K, sm.SampledSignal(np.linspace(0.0, 1.0, 3), rng.normal(size=(3, 2))), A,
            sm.SampledSignal(np.linspace(0.0, 1.0, 4), rng.normal(size=(4, dim))))
        closed = {"dpp": 2.0 * np.eye(dim), "dpeta": -2.0 * A,
                  "detaeta": 2.0 * (K.T @ K) + 2.0 * (A.T @ A)}
        rows = (rng.uniform(size=5), rng.normal(size=(5, dim)), rng.normal(size=(5, dim)))
        for _ in range(2):  # the second jet reads the blocks after the failed writes
            jet = model.jet_many(*rows)
            for name, block in closed.items():
                got = getattr(jet, name)
                assert got.shape == (5, dim, dim)
                assert np.array_equal(got, np.broadcast_to(block, got.shape)), name
                with pytest.raises(ValueError):
                    got[0, 0, 0] = 1.0
                with pytest.raises(ValueError):
                    got += 1.0
        scaled = sm.ScaledModel(model, 3.0).jet_many(*rows)
        for name, block in closed.items():
            assert np.array_equal(getattr(scaled, name),
                                  np.broadcast_to(3.0 * block, (5, dim, dim))), name


    @pytest.mark.parametrize("family", ["power_norm", "data_assimilation", "identity", "shift",
                                        "power", "min_norms", "scaled"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_x_jet_matches_finite_differences(self, rng, family, dim):
        """Each analytic ``x_jet_many`` matches the base class's finite
        differences within 1e-5, at rows whose x-stencil stays off the
        signals' knots."""
        knots = np.linspace(-0.5, 1.5, 5)
        c = sm.SampledSignal(knots, rng.normal(scale=0.5, size=(5, dim)))
        A = rng.normal(scale=0.3, size=(dim, dim))
        if family == "power_norm":
            model = sm.PowerNormModel(2.5, rng.normal(size=dim))
        elif family == "min_norms":
            model = sm.MinOfNormsModel(rng.normal(size=(3, dim)), 1.7)
        elif family in ("data_assimilation", "scaled"):
            model = sm.DataAssimilationModel(rng.normal(scale=0.5, size=(2, dim)),
                                             sm.SampledSignal(knots, rng.normal(size=(5, 2))), A, c)
            model = sm.ScaledModel(model, 2.5) if family == "scaled" else model
        elif family == "identity":  # the profile t itself, the shift at beta = 0
            model = sm.RadialModel(sm.radial_profile("shift"), A, c)
        else:
            model = sm.RadialModel(sm.radial_profile(family, beta=0.5, gamma=1.7), A, c)
        xs = np.concatenate([rng.uniform(0.05, 0.45, size=5), rng.uniform(0.55, 0.95, size=5)])
        etas = rng.normal(size=(10, dim))
        ps = rng.normal(scale=2.0, size=(10, dim))
        fd = sm.LagrangianModel.x_jet_many(model, xs, etas, ps)
        dx, dpx = model.x_jet_many(xs, etas, ps)
        assert dx.shape == (10,) and dpx.shape == (10, dim)
        assert jet_block_errors((dx, dpx), fd) < 1e-5

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("exponent", [1.5, 2.0, 3.0])
    def test_min_norms_jet_is_the_nearest_power_norm_jet(self, rng, dim, exponent):
        """The min-of-norms jet is the nearest centre's power-norm jet,
        bitwise.  At a centre it raises below quadratic growth, as the power
        norm does."""
        centers = rng.normal(size=(3, dim))
        model = sm.MinOfNormsModel(centers, exponent)
        xs, etas, ps = rng.uniform(size=12), rng.normal(size=(12, dim)), rng.normal(size=(12, dim))
        nearest = np.argmin([np.sum((ps - c) ** 2, axis=1) for c in centers], axis=0)
        jet = model.jet_many(xs, etas, ps)
        for i, k in enumerate(nearest):
            ref = sm.PowerNormModel(exponent, centers[k]).jet_many(*one_row(xs[i], etas[i], ps[i]))
            for name, block in blocks(ref).items():
                assert np.array_equal(getattr(jet, name)[i], block[0]), (i, name)
        assert len(set(nearest)) > 1
        ps[1] = centers[2]
        if exponent < 2:
            with pytest.raises(sm.NonFinite,
                               match=r"^jet of \|p - c\|\^s is singular at p = c for s < 2$"):
                model.jet_many(xs, etas, ps)
        else:
            assert np.array_equal(model.jet_many(xs, etas, ps).dp[1], np.zeros(dim))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_min_norms_tie_takes_the_first_center(self, rng, dim):
        """On rows equidistant from two centres, mirror images in the first
        coordinate, the jet is the first centre's ``PowerNormModel`` jet,
        bitwise, in either order of the centres."""
        first = rng.normal(size=dim)
        second = first * np.where(np.arange(dim) == 0, -1.0, 1.0)
        ps = rng.normal(size=(6, dim))
        ps[:, 0] = 0.0
        ps[0, 0] = -0.0
        xs, etas = rng.uniform(size=6), rng.normal(size=(6, dim))
        slopes = []
        for centers in ([first, second], [second, first]):
            model = sm.MinOfNormsModel(centers, 2.5)
            jet = model.jet_many(xs, etas, ps)
            ref = sm.PowerNormModel(2.5, centers[0]).jet_many(xs, etas, ps)
            assert_fields_equal(jet, blocks(ref))
            assert np.array_equal(jet.value, model.eval_many(xs, etas, ps))
            slopes.append(jet.dp)
        assert not np.array_equal(*slopes)  # the tie is one-sided

    def test_apply_equals_broadcast_sum(self, rng):
        """``_apply`` adds its products onto zeros one column at a time:
        bitwise the broadcast sum ``np.sum(rows[:, None, :] * mat, axis=2)``
        it replaced, signed zeros included (that sum gives +0.0 for
        -0.0 + -0.0), at N = 1 to 4."""
        for n in (1, 2, 3, 4):
            for _ in range(20):
                rows = rng.normal(size=(190, n)) * 10.0 ** rng.integers(-8, 9, size=(190, n))
                mat = rng.normal(size=(int(rng.integers(1, 5)), n))
                rows[rng.random(rows.shape) < 0.3] = 0.0
                rows[rng.random(rows.shape) < 0.3] = -0.0
                mat[rng.random(mat.shape) < 0.3] = -0.0
                got = sm.lagrangian._apply(mat, rows)
                ref = np.sum(rows[:, None, :] * mat[None, :, :], axis=2)
                assert np.array_equal(got, ref) and np.array_equal(np.signbit(got),
                                                                   np.signbit(ref)), n
        both_negative = sm.lagrangian._apply(np.array([[1.0, 1.0]]), np.array([[-0.0, -0.0]]))
        assert not np.signbit(both_negative).any()

    @pytest.mark.parametrize("K, A", [([[1e200, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]),
                                      ([[1.0, 0.0]], [[0.0, 2e154], [-1.0, 0.0]])],
                             ids=["K", "A"])
    def test_da_overflowing_blocks_rejected_at_construction(self, K, A):
        """A DA model whose 2 K^T K + 2 A^T A overflows is rejected when it
        is built, with no floating-point warning: its jets return the
        constant blocks unchecked."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sm.SupminError, match="K and A are too large"):
                make_da(K, [[0.0, 0.5], [1.0, 0.2]], A, [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])


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

    @pytest.mark.parametrize("rows", [[0.0, 1.0], [], 0.0, [[[0.0, 1.0], [1.0, 2.0]]],
                                      [[0.0, 1.0], [1.0, np.nan]]],
                             ids=["flat", "empty", "scalar", "3-d", "nan"])
    def test_rows_must_be_a_finite_matrix(self, rows):
        """A flat list is not read as one [x, value] row."""
        with pytest.raises(sm.SupminError, match="^signal rows must be a finite matrix$"):
            sm.SampledSignal.from_rows(rows)


class TestCustomModel:
    """``fn`` takes every row of a batch in one call."""

    @staticmethod
    def counting_model(calls):
        def fn(xs, etas, ps):
            calls.append(len(xs))
            return (ps[:, 0] - xs) ** 2 + np.sin(etas[:, 1]) ** 2 * ps[:, 1] ** 4
        return sm.CustomModel(fn, dim=2)

    def test_fn_called_once_per_batch(self, rng):
        calls = []
        model = self.counting_model(calls)
        xs, etas, ps = rng.uniform(size=7), rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
        model.eval_many(xs, etas, ps)
        assert calls == [7]
        model.jet_many(xs, etas, ps)
        assert calls == [7, 41 * 7]  # the finite-difference stencil at N = 2
        model.x_jet_many(xs, etas, ps)
        assert calls == [7, 41 * 7, 10 * 7]  # x +- h1 and four corners per p coordinate

    @pytest.mark.parametrize("result, shape", [
        (lambda xs: 1.0, "()"),
        (lambda xs: np.ones((len(xs), 1)), "(7, 1)"),
        (lambda xs: np.ones(len(xs) + 1), "(8,)"),
    ], ids=["scalar", "column", "one_more"])
    def test_result_of_another_shape_raises(self, result, shape):
        model = sm.CustomModel(lambda x, e, p: result(x), dim=1)
        message = re.escape(f"custom model fn returned shape {shape}, expected (7,)")
        with pytest.raises(sm.SupminError, match=message):
            model.eval_many(np.zeros(7), np.zeros((7, 1)), np.zeros((7, 1)))


class TestLevelConvexity:
    def test_power_norm_passes(self):
        res = sm.check_level_convexity(sm.PowerNormModel(2.0, [0.0, 0.0]),
                                       sm.SamplePlan(num_triples=300, seed=1))
        assert res.passed and not res.witnesses

    def test_data_assimilation_passes(self):
        # DA-rot's model: convex in p, so level-convex
        model = sm.DataAssimilationModel(
            [[1.0, 0.0]], sm.SampledSignal.from_rows([[0.0, 0.5], [0.5, -0.3], [1.0, 0.2]]),
            [[0.0, 1.0], [-1.0, 0.0]],
            sm.SampledSignal.from_rows([[0.0, 1.0, 0.0], [0.5, 0.0, 2.0], [1.0, 1.0, 0.0]]))
        res = sm.check_level_convexity(model, sm.SamplePlan(num_triples=300, seed=2))
        assert res.passed

    def test_min_norms_witness_found_and_sound(self):
        model = sm.MinOfNormsModel([[2.0], [-2.0]], exponent=1.0)
        res = sm.check_level_convexity(model, sm.SamplePlan(num_triples=500, seed=3))
        assert not res.passed
        for w in res.witnesses:
            mixed = model.eval_many(*one_row(w.x, w.eta, w.lam * w.p1 + (1 - w.lam) * w.p2))[0]
            assert mixed > w.end_max + 1e-9 * (1.0 + w.end_max)

    def test_min_norms_brute_force_oracle(self):
        # independent grid scan certifies the midpoint witness at p1=-2, p2=2
        model = sm.MinOfNormsModel([[2.0], [-2.0]], exponent=1.0)
        L = lambda p: model.eval_many(*one_row(0.0, [0.0], [p]))[0]
        found = False
        for p1 in np.linspace(-3, 3, 13):
            for p2 in np.linspace(-3, 3, 13):
                for lam in np.linspace(0.0, 1.0, 5):
                    mix = lam * p1 + (1 - lam) * p2
                    lhs = L(mix)
                    rhs = max(L(p1), L(p2))
                    if lhs > rhs + 1e-9:
                        found = True
        assert found
        assert L(0.0) == 2.0  # the canonical midpoint witness

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
        plan = sm.SamplePlan(num_triples=1500, box=sm.Box(x=(0.25, 2.0)), seed=9)
        assert_matches_per_triple_loop(model, plan)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_triple_loop_with_x_and_eta(self, n):
        """The same for a model that reads x and eta, the lower envelope of
        two data-assimilation wells, across more than one sample block: each
        point of a block is taken with its own sample's x and eta."""
        model = two_wells(n)
        box = sm.Box(x=(0.25, 2.0), eta=(-1.0, 1.0), p=(-2.0, 2.0))
        assert_matches_per_triple_loop(
            model, sm.SamplePlan(num_triples=1000, box=box, seed=9))


class TestGrowthBounds:
    def test_exact_equality_case(self):
        growth = sm.GrowthParams(1.0, 0.0, 0.0, 2.0, 2.0, 1.0)
        res = sm.check_growth_bounds(sm.PowerNormModel(2.0, [0.0, 0.0]),
                                     growth, sm.SamplePlan(num_triples=300, seed=4))
        assert res.passed
        assert res.worst_margins == {"lower": 0.0, "upper": 0.0}

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
        growth = sm.GrowthParams(0.6, 0.5, 0.2, 2.0, 2.0, 1.0)
        assert_matches_per_sample_loop(model, growth, sm.SamplePlan(num_triples=5000, seed=11))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_sample_loop_with_x_and_eta(self, n):
        """The same for a data-assimilation model (DA-rot at N = 2), which
        reads x and eta, with constants that give witnesses on both sides."""
        growth = sm.GrowthParams(0.3, 1.0, 1.0, 2.0, 2.0, 1.5)
        assert_matches_per_sample_loop(da_model(n), growth,
                                       sm.SamplePlan(num_triples=5000, seed=11))

    def test_zero_coefficient_term_is_zero_where_the_power_overflows(self):
        """L = |p|^2 against the upper bound 0 * |p|^3 at |p| ~ 1e150: the
        term is 0, not 0 * inf = NaN, so every sample is an upper witness."""
        growth = sm.GrowthParams(0.0, 0.0, 0.0, 1.0, 3.0, h_bound=0.0)
        plan = sm.SamplePlan(num_triples=20, box=sm.Box(p=(1e150, 2e150)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sm.check_growth_bounds(sm.PowerNormModel(2.0, [0.0, 0.0]), growth, plan)
        assert len(res.witnesses) == 20
        assert all(w.side == "upper" and w.bound == 0.0 for w in res.witnesses)
        assert np.isfinite(res.worst_margins["upper"]) and res.worst_margins["upper"] < 0
        assert res.worst_margins["lower"] > 0

    def test_positive_coefficient_term_is_infinite_where_the_power_overflows(self):
        """With c1 = h = 1, |p|^3 overflows to inf on both sides: every finite
        L violates the lower bound and meets the upper one."""
        growth = sm.GrowthParams(1.0, 0.0, 0.0, 3.0, 3.0, h_bound=1.0)
        plan = sm.SamplePlan(num_triples=20, box=sm.Box(p=(1e150, 2e150)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sm.check_growth_bounds(sm.PowerNormModel(2.0, [0.0, 0.0]), growth, plan)
        assert [w.side for w in res.witnesses] == ["lower"] * 20
        assert res.worst_margins == {"lower": -np.inf, "upper": np.inf}

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


class TestCheckResult:
    """Both checks return ``CheckResult``; its JSON layout is the
    ``hypotheses.json`` entry of each check."""

    def test_level_convexity_layout(self):
        model = sm.MinOfNormsModel([[2.0], [-2.0]], exponent=1.0)
        res = sm.check_level_convexity(model, sm.SamplePlan(num_triples=500, seed=3))
        doc = res.to_json_dict()
        assert isinstance(res, sm.CheckResult) and res.worst_margins is None
        assert list(doc) == ["pass", "witness_count", "witnesses"]
        assert doc["pass"] is False and doc["witness_count"] == len(res.witnesses) > 20
        assert len(doc["witnesses"]) == 20
        for witness in doc["witnesses"]:
            assert list(witness) == ["x", "eta", "p1", "p2", "lambda", "mixed_value", "end_max"]

    def test_growth_layout(self):
        growth = sm.GrowthParams(2.0, 0.0, 0.0, 2.0, 2.0, 1.0)
        res = sm.check_growth_bounds(sm.PowerNormModel(2.0, [0.0, 0.0]), growth,
                                     sm.SamplePlan(num_triples=100, seed=5))
        doc = res.to_json_dict()
        assert isinstance(res, sm.CheckResult)
        assert list(doc) == ["pass", "worst_margins", "witness_count", "witnesses"]
        assert doc["pass"] is False and doc["witness_count"] == 100
        assert list(doc["worst_margins"]) == ["lower", "upper"]
        assert len(doc["witnesses"]) == 20
        for witness in doc["witnesses"]:
            assert list(witness) == ["x", "eta", "p", "value", "bound", "side"]

    def test_passing_check_writes_no_witness(self):
        doc = sm.CheckResult([], {"lower": 0.0, "upper": 1.0}).to_json_dict()
        assert doc == {"pass": True, "worst_margins": {"lower": 0.0, "upper": 1.0},
                       "witness_count": 0, "witnesses": []}


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


def _power_energy_of_order(m):
    path = sm.Path(sm.Grid.uniform(0.0, 1.0, 5), np.zeros((5, 1)))
    return sm.power_energy(sm.PowerNormModel(2.0, [1.0]), path, m)


def _minimize_power_of_order(m):
    return sm.minimize_power(sm.PowerNormModel(2.0, [1.0]), sm.Grid.uniform(0.0, 1.0, 5),
                             sm.AffineMap([0.0], [1.0]), m)


@pytest.mark.parametrize("build, message", [
    (lambda: sm.SolveOptions(max_iters=NAN), "max_iters must be positive"),
    (lambda: sm.AuditConfig(num_subintervals=NAN), "audit needs num_subintervals >= 1"),
    (lambda: sm.GrowthParams(NAN, 0, 0, 2, 2), "growth constants must be nonnegative"),
    (lambda: sm.MinOfNormsModel([[1.0]], exponent=NAN), "exponent must be positive and finite"),
    (lambda: sm.MinOfNormsModel([[1.0]], exponent=np.inf), "exponent must be positive and finite"),
    (lambda: sm.radial_profile("shift", beta=NAN), "shift profile needs beta >= 0"),
    (lambda: sm.radial_profile("power", gamma=NAN), "power profile needs gamma > 0"),
    (lambda: sm.radial_profile("shift", beta=np.inf), "shift profile needs beta >= 0, finite"),
    (lambda: sm.radial_profile("power", gamma=np.inf), "power profile needs gamma > 0, finite"),
    # counts and seeds must be ints in range, not floats that fail deep in a run
    (lambda: sm.SolveOptions(max_iters=2.5), "max_iters must be positive"),
    (lambda: sm.SweepSchedule(restarts=2.0), "restarts must be >= 1"),
    (lambda: sm.AuditConfig(num_subintervals=2.5), "audit needs num_subintervals >= 1"),
    (lambda: sm.AuditConfig(seed=-1), "seed must be an integer >= 0"),
    (lambda: sm.SamplePlan(num_triples=NAN), "needs num_triples >= 1"),
    (lambda: sm.SamplePlan(num_triples=2.5), "needs num_triples >= 1"),
    (lambda: sm.SamplePlan(seed=-1), "seed must be an integer >= 0"),
    (lambda: sm.m_sweep(sm.PowerNormModel(2.0, [1.0]), sm.Grid.uniform(0.0, 1.0, 5),
                        sm.AffineMap([0.0], [1.0]), seed=-1), "seed must be an integer >= 0"),
    # the order must be an integer, not truncated to one
    (lambda: _power_energy_of_order(2.5), "power energy needs m >= 1"),
    (lambda: _minimize_power_of_order(2.5), "power energy needs m >= 1"),
    (lambda: _minimize_power_of_order(NAN), "power energy needs m >= 1"),
    (lambda: sm.Grid.uniform(0.0, 1.0, 17.5), "grid needs at least 3 nodes"),
    # finite ends whose difference overflows
    (lambda: sm.Box(p=(-1e308, 1e308)), "a finite width"),
    # the constructors of paths, boundary maps, signals and scaled models
    (lambda: sm.Path(sm.Grid.uniform(0.0, 1.0, 3), [0.0, NAN, 1.0]), "path values must be finite"),
    (lambda: sm.AffineMap([0.0], [NAN]), "affine map coefficients must be finite"),
    (lambda: sm.SampledSignal([0.0, 1.0], [1.0, NAN]), "signal values must be finite"),
    (lambda: sm.ScaledModel(sm.PowerNormModel(2.0, [0.0]), NAN),
     "scale factor must be positive and finite"),
], ids=["max_iters", "audit_subintervals", "growth_c1", "min_norms_nan",
        "min_norms_inf", "shift_beta", "power_gamma", "shift_beta_inf", "power_gamma_inf",
        "max_iters_float", "restarts_float",
        "audit_subintervals_float", "audit_seed_negative", "plan_triples_nan",
        "plan_triples_float", "plan_seed_negative", "sweep_seed_negative",
        "power_order_float", "solve_order_float", "solve_order_nan",
        "grid_nodes_float", "box_width_overflow", "path_values", "affine_map", "signal_values",
        "scale_factor"])
def test_range_checks_reject_nan(build, message):
    """A NaN compares false with every bound, so each check is written to
    fail, not pass, on it."""
    with pytest.raises(sm.SupminError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: sm.Path(sm.Grid.uniform(0.0, 1.0, 3), [0.0, 1.0]),
     "values must have one row per grid node"),
    (lambda: sm.AffineMap([0.0, 0.0], [1.0]), "b0 and b1 must be vectors of equal length"),
    (lambda: sm.AffineMap([[0.0]], [[1.0]]), "b0 and b1 must be vectors of equal length"),
    (lambda: sm.SampledSignal([0.0, 1.0], [[0.0], [1.0], [2.0]]),
     "signal needs one value row per sample"),
    (lambda: sm.ScaledModel(sm.PowerNormModel(2.0, [0.0]), 0.0),
     "scale factor must be positive and finite"),
], ids=["path_rows", "affine_lengths", "affine_matrix", "signal_rows", "scale_zero"])
def test_constructors_reject_fields_that_disagree(build, message):
    """Each constructor rejects fields of the wrong shape or range with a
    message that names them."""
    with pytest.raises(sm.SupminError, match=f"^{message}$"):
        build()
