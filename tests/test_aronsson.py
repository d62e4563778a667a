import numpy as np
import pytest

import supmin as sm

from conftest import one_row, random_builtin_model


def half_square_1d():
    # L = p^2 / 2
    return sm.ScaledModel(sm.PowerNormModel(2.0, [0.0]), 0.5)


def scalar_aronsson_oracle(model, x, eta, p, xx):
    """Directly coded scalar operator: d/dx[L(x, u, u')] * L_p at the point."""
    jet = model.jet_many(*one_row(x, [eta], [p]))
    dx, _ = model.x_jet_many(*one_row(x, [eta], [p]))
    total_derivative = dx[0] + jet.deta[0, 0] * p + jet.dp[0, 0] * xx
    return total_derivative * jet.dp[0, 0]


class TestNormalProjection:
    def test_axis_vector(self):
        assert np.array_equal(sm.normal_projection([1.0, 0.0]), [[0.0, 0.0], [0.0, 1.0]])

    def test_zero_gives_identity(self):
        assert np.array_equal(sm.normal_projection([0.0, 0.0]), np.eye(2))
        assert np.array_equal(sm.normal_projection([0.0]), np.eye(1))

    def test_diagonal_vector_algebra(self):
        xi = np.array([1.0, 1.0])
        q = sm.normal_projection(xi)
        np.testing.assert_allclose(q, np.eye(2) - 0.5 * np.ones((2, 2)), atol=1e-15)
        np.testing.assert_allclose(q @ q, q, atol=1e-15)
        assert np.linalg.norm(q @ xi) < 1e-15

    def test_random_properties(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            xi = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            q = sm.normal_projection(xi)
            assert np.max(np.abs(q - q.T)) <= 1e-12
            assert np.max(np.abs(q @ q - q)) <= 1e-12
            assert np.linalg.norm(q @ xi) <= 1e-12 * np.linalg.norm(xi)


class TestOperator:
    def test_scalar_affine_data_vanishes(self):
        pt = one_row(0.3, [1.0], [2.0], [0.0])
        assert sm.aronsson_operator(half_square_1d(), *pt)[0, 0] == 0.0

    def test_scalar_hand_value(self):
        # L = p^2/2: dp = p = 2, projection term dies, value = dp^2 * xx = 4
        pt = one_row(0.0, [0.0], [2.0], [1.0])
        out = sm.aronsson_operator(half_square_1d(), *pt)
        assert out[0, 0] == pytest.approx(4.0, abs=1e-14)

    def test_point_width_must_match_model(self):
        """Unchecked, a 1-D model at a 2-D point returns [-2, -4]."""
        pt = one_row(0.2, [0.1, 0.2], [1.0, 2.0], [0.0, 0.0])
        with pytest.raises(sm.SupminError, match="value dimension 2 differs from the model "
                                                 "dimension 1"):
            sm.aronsson_operator(sm.PowerNormModel(2.0, [0.0]), *pt)

    @pytest.mark.parametrize("wide", ["value", "slope", "curvature"])
    def test_row_widths_must_match_model(self, wide):
        """Each of values, slopes and curvatures is checked against the model."""
        rows = {name: np.zeros((3, 2 if name == wide else 1))
                for name in ("value", "slope", "curvature")}
        with pytest.raises(sm.SupminError, match=f"^{wide} dimension 2 differs from the model "
                                                 "dimension 1$"):
            sm.aronsson_operator(sm.PowerNormModel(2.0, [0.0]), np.zeros(3), rows["value"],
                                 rows["slope"], rows["curvature"])

    def test_row_count_must_match_xs(self):
        """Unchecked, DA-rot broadcasts the one x over three rows of values,
        slopes and curvatures and returns a (3, 2) result."""
        model = sm.DataAssimilationModel(
            [[1.0, 0.0]], sm.SampledSignal.from_rows([[0.0, 0.5], [0.5, -0.3], [1.0, 0.2]]),
            [[0.0, 1.0], [-1.0, 0.0]],
            sm.SampledSignal.from_rows([[0.0, 1.0, 0.0], [0.5, 0.0, 2.0], [1.0, 1.0, 0.0]]))
        rows = np.arange(6.0).reshape(3, 2)
        with pytest.raises(sm.SupminError, match=r"^value has 3 rows, xs has length 1$"):
            sm.aronsson_operator(model, np.zeros(1), rows, rows, rows)

    @pytest.mark.parametrize("short", ["value", "slope", "curvature"])
    def test_each_row_count_is_checked(self, short):
        rows = {name: np.zeros((2 if name == short else 3, 1))
                for name in ("value", "slope", "curvature")}
        with pytest.raises(sm.SupminError, match=f"^{short} has 2 rows, xs has length 3$"):
            sm.aronsson_operator(sm.PowerNormModel(2.0, [0.0]), np.zeros(3), rows["value"],
                                 rows["slope"], rows["curvature"])

    @pytest.mark.parametrize("bad", ["value", "slope", "curvature"])
    def test_rows_must_be_finite(self, bad):
        """|p|^2 reads no value: a NaN one would pass through unnoticed."""
        rows = {name: np.ones((3, 1)) for name in ("value", "slope", "curvature")}
        rows[bad][1, 0] = np.nan
        with pytest.raises(sm.SupminError, match=f"^{bad} must be finite$"):
            sm.aronsson_operator(sm.PowerNormModel(2.0, [0.0]), np.zeros(3), rows["value"],
                                 rows["slope"], rows["curvature"])

    def test_nonfinite_x_jet_raises(self):
        """The x-jet is checked apart from the jet, which checks itself."""

        class InfiniteInX(sm.PowerNormModel):
            def x_jet_many(self, xs, etas, ps):
                return np.full(len(xs), np.inf), np.zeros_like(ps)

        with pytest.raises(sm.NonFinite, match="^jet contains non-finite entries$"):
            sm.aronsson_operator(InfiniteInX(2.0, [0.0]), *one_row(0.5, [0.0], [1.0], [0.0]))

    def test_overflowing_operator_raises(self):
        """Finite rows can overflow the operator: for |p|^2 at slope 1 the
        curvature term is 4 * curvature.  The overflow itself warns."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(sm.NonFinite, match="^operator value is not finite$"):
                sm.aronsson_operator(sm.PowerNormModel(2.0, [0.0]),
                                     *one_row(0.5, [0.0], [1.0], [1e308]))

    def test_vector_curvature_parallel_to_slope(self):
        # L = |p|^2: dp = 2p; with xx parallel to p the projected block dies,
        # leaving (dp . xx) dp = 4 (p . xx) p -- checked term by term.
        model = sm.PowerNormModel(2.0, [0.0, 0.0])
        p = np.array([1.0, 2.0])
        xx = 2.0 * p
        pt = one_row(0.0, [0.0, 0.0], p, xx)
        out = sm.aronsson_operator(model, *pt)[0]
        oracle = 4.0 * float(p @ xx) * p
        np.testing.assert_allclose(out, oracle, rtol=1e-13)
        proj = sm.normal_projection(2.0 * p)
        assert np.linalg.norm(proj @ xx) < 1e-12  # second-row term really vanishes

    def test_scalar_reduction_random(self, rng):
        for _ in range(50):
            model = random_builtin_model(rng, 1)
            x = rng.uniform(0.1, 0.9)
            eta, p, xx = rng.normal(size=3) * np.array([1.0, 3.0, 3.0])
            jet = model.jet_many(*one_row(x, [eta], [p]))
            if abs(jet.dp[0, 0]) < 1e-6:
                continue
            out = sm.aronsson_operator(model, *one_row(x, [eta], [p], [xx]))[0]
            oracle = scalar_aronsson_oracle(model, x, eta, p, xx)
            scale = 1.0 + abs(oracle)
            assert abs(out[0] - oracle) <= 1e-9 * scale

    def test_independent_assembly_oracle(self, rng):
        # Along a smooth trajectory the operator regroups as
        #   D[L o traj] * dp + L * Q * ( D[dp o traj] - deta ),
        # with D the x-derivative of the composed maps.  Assembling that form
        # by central x-differences cross-checks every term, in particular the
        # orientation of the mixed-derivative blocks for N >= 2.
        A = np.array([[0.3, -0.7], [0.5, 0.1]])  # deliberately nonsymmetric
        model = sm.DataAssimilationModel(
            np.array([[0.6, -0.2]]),
            sm.SampledSignal.from_rows([[0.0, 0.3], [0.5, -0.4], [1.0, 0.2]]),
            A,
            sm.SampledSignal.from_rows([[0.0, 0.1, -0.3], [0.5, 0.4, 0.2], [1.0, -0.1, 0.0]]),
        )

        def traj(x):
            return np.array([np.sin(x), np.cos(2.0 * x)])

        def traj_d(x):
            return np.array([np.cos(x), -2.0 * np.sin(2.0 * x)])

        def traj_dd(x):
            return np.array([-np.sin(x), -4.0 * np.cos(2.0 * x)])

        h = 1e-5
        for x in (0.2, 0.3, 0.7):  # stay inside signal elements (knot at 0.5)
            jet = model.jet_many(*one_row(x, traj(x), traj_d(x))).map(lambda v: v[0])
            g = lambda z: model.eval_many(*one_row(z, traj(z), traj_d(z)))[0]
            dp_of = lambda z: model.jet_many(*one_row(z, traj(z), traj_d(z))).dp[0]
            dg = (g(x + h) - g(x - h)) / (2 * h)
            ddp = (dp_of(x + h) - dp_of(x - h)) / (2 * h)
            proj = sm.normal_projection(jet.dp)
            oracle = dg * jet.dp + jet.value * proj @ (ddp - jet.deta)
            pt = one_row(x, traj(x), traj_d(x), traj_dd(x))
            out = sm.aronsson_operator(model, *pt)[0]
            np.testing.assert_allclose(out, oracle, rtol=2e-5,
                                       atol=2e-5 * (1 + np.max(np.abs(oracle))))

    def test_quadratic_homogeneity_in_model_scale(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            model = random_builtin_model(rng, dim)
            c = float(rng.uniform(0.5, 3.0))
            pt = one_row(rng.uniform(0, 1), rng.normal(size=dim), rng.normal(size=dim),
                         rng.normal(size=dim))
            base = sm.aronsson_operator(model, *pt)
            scaled_out = sm.aronsson_operator(sm.ScaledModel(model, c), *pt)
            np.testing.assert_allclose(scaled_out, c**2 * base,
                                       rtol=1e-9, atol=1e-9 * (1 + np.max(np.abs(base))))


class TestResidualProfile:
    def test_affine_identically_zero(self):
        grid = sm.Grid.uniform(0.0, 1.0, 65)
        path = sm.interpolate_affine(sm.AffineMap([0.5], [1.0]), grid)
        prof = sm.residual_profile(half_square_1d(), path)
        assert prof.max_norm == 0.0

    @pytest.mark.parametrize("m_elements", [32, 64, 128])
    def test_quadratic_path_matches_closed_form(self, m_elements):
        grid = sm.Grid.uniform(0.0, 1.0, m_elements + 1)
        path = sm.Path(grid, grid.nodes[:, None] ** 2)
        prof = sm.residual_profile(half_square_1d(), path)
        oracle = 8.0 * prof.xs**2
        assert np.max(np.abs(prof.residuals[:, 0] - oracle)) <= 1e-11

    def test_refinement_study_reported(self):
        model = sm.DataAssimilationModel(
            np.zeros((1, 2)),
            sm.SampledSignal.from_rows([[0.0, 0.0], [1.0, 0.0]]),
            np.zeros((2, 2)),
            sm.SampledSignal.from_rows([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]),
        )
        bmap = sm.AffineMap([0.0, 0.0], [0.0, 1.0])
        norms = []
        for m_el in (32, 64, 128):
            grid = sm.Grid.uniform(0.0, 1.0, m_el + 1)
            res = sm.m_sweep(model, grid, bmap)
            prof = sm.residual_profile(model, res.candidate)
            norms.append(prof.max_norm)
        # candidates are chords, so residuals sit at rounding level; reported,
        # no decay rate asserted
        assert all(np.isfinite(n) and n < 1e-4 for n in norms)

    def test_requires_uniform_grid(self):
        grid = sm.Grid(np.array([0.0, 0.1, 0.3, 0.6, 1.0]))
        path = sm.Path(grid, np.zeros((5, 1)))
        with pytest.raises(sm.SupminError, match="residual profile needs a uniform grid"):
            sm.residual_profile(half_square_1d(), path)

    def test_model_dimension_mismatch(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        path = sm.Path(grid, np.column_stack([np.sin(3.0 * grid.nodes), grid.nodes**2]))
        with pytest.raises(sm.SupminError, match="path dimension 2 differs from the model "
                                                 "dimension 1"):
            sm.residual_profile(half_square_1d(), path)

    def test_requires_enough_elements(self):
        grid = sm.Grid.uniform(0.0, 1.0, 4)
        path = sm.Path(grid, np.zeros((4, 1)))
        with pytest.raises(sm.SupminError):
            sm.residual_profile(half_square_1d(), path)

    def test_csv_format(self, tmp_path):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        path = sm.Path(grid, grid.nodes[:, None] ** 2)
        prof = sm.residual_profile(half_square_1d(), path)
        f = tmp_path / "res.csv"
        prof.to_csv(str(f))
        lines = f.read_text().splitlines()
        assert lines[0] == "x,res_1,norm"
        assert len(lines) == 1 + prof.xs.size
