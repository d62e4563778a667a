import numpy as np
import pytest

import supmin as sm

from conftest import random_builtin_model, random_path

EPS = np.finfo(float).eps


def tent_path(num_nodes=33, height=1.0):
    grid = sm.Grid.uniform(0.0, 1.0, num_nodes)
    values = np.zeros((num_nodes, 1))
    values[num_nodes // 2, 0] = height
    return sm.Path(grid, values)


def chord_sup_oracle(candidate, i, j):
    """Closed-form audit deficit for L = |p|^2: steepest restricted element
    squared minus the chord slope squared."""
    nodes = candidate.grid.nodes
    slopes = candidate.element_slopes()[i:j, 0]
    chord = (candidate.values[j, 0] - candidate.values[i, 0]) / (nodes[j] - nodes[i])
    return float(np.max(slopes**2) - chord**2)


class TestAbsoluteMinimalityAudit:
    def test_affine_candidate_clean(self):
        grid = sm.Grid.uniform(0.0, 1.0, 33)
        cand = sm.interpolate_affine(sm.AffineMap([0.0, 0.0], [1.0, 2.0]), grid)
        report = sm.audit_absolute_minimality(
            sm.PowerNormModel(2.0, [0.0, 0.0]), cand,
            sm.AuditConfig(num_subintervals=12, seed=4))
        assert report.passed
        assert report.max_deficit <= 1e-9 * (1.0 + 5.0)

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 3.0])
    def test_affine_clean_for_any_exponent_and_offset(self, exponent):
        # the chord attains the Jensen lower bound on every subinterval
        grid = sm.Grid.uniform(0.0, 1.0, 33)
        cand = sm.interpolate_affine(sm.AffineMap([0.2, -0.1], [1.5, 0.5]), grid)
        model = sm.PowerNormModel(exponent, [0.5, -0.25])
        report = sm.audit_absolute_minimality(
            model, cand, sm.AuditConfig(num_subintervals=10, seed=6))
        assert report.passed

    def test_spike_candidate_flagged_with_closed_form(self):
        cand = tent_path(33)
        config = sm.AuditConfig(num_subintervals=20, seed=0)
        report = sm.audit_absolute_minimality(sm.PowerNormModel(2.0, [0.0]), cand, config)
        assert len(report.violations) >= 1
        pairs = sm.audit.sample_subintervals(cand.grid, config)
        for k in report.violations:
            entry = report.entries[k]
            i, j = pairs[k]
            assert abs(entry.deficit - chord_sup_oracle(cand, i, j)) < 1e-6

    def test_converged_candidate_clean(self):
        model = sm.DataAssimilationModel(
            np.zeros((1, 2)),
            sm.SampledSignal.from_rows([[0.0, 0.0], [1.0, 0.0]]),
            np.zeros((2, 2)),
            sm.SampledSignal.from_rows([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]),
        )
        grid = sm.Grid.uniform(0.0, 1.0, 65)
        res = sm.m_sweep(model, grid, sm.AffineMap([0.0, 0.0], [0.0, 1.0]))
        report = sm.audit_absolute_minimality(model, res.candidate,
                                              sm.AuditConfig(num_subintervals=20, seed=1))
        assert report.passed

    def test_min_subinterval_length(self):
        config = sm.AuditConfig(num_subintervals=50, min_elements=3, seed=5)
        pairs = sm.audit.sample_subintervals(sm.Grid.uniform(0.0, 1.0, 17), config)
        assert all(j - i >= 3 for i, j in pairs)

    def test_repeated_draws_audited_once(self, monkeypatch):
        # on a 3-element grid with min_elements 3 every draw is the pair (0, 3)
        sweeps = []
        m_sweep = sm.audit.m_sweep

        def counted(*args, **kwargs):
            sweeps.append(args[1])
            return m_sweep(*args, **kwargs)

        monkeypatch.setattr(sm.audit, "m_sweep", counted)
        grid = sm.Grid.uniform(0.0, 1.0, 4)
        cand = sm.interpolate_affine(sm.AffineMap([0.0], [1.0]), grid)
        config = sm.AuditConfig(num_subintervals=20, min_elements=3)
        report = sm.audit_absolute_minimality(sm.PowerNormModel(2.0, [0.0]), cand, config)
        assert sm.audit.sample_subintervals(grid, config) == [(0, 3)]
        assert len(report.entries) == 1 and len(sweeps) == 1
        assert report.to_json_dict()["num_subintervals"] == 1

    def test_unconverged_local_solve_inconclusive(self):
        """A local sweep whose last solve stops short of grad_tol decides
        nothing: every entry is inconclusive, with a NaN deficit and the
        exponent and stop reason in its error, and the report does not pass."""
        model = sm.DataAssimilationModel(
            np.zeros((1, 2)), sm.SampledSignal.from_rows([[0.0, 0.0], [1.0, 0.0]]),
            np.zeros((2, 2)),
            sm.SampledSignal.from_rows([[0.0, 1.0, 0.0], [0.5, -1.0, 2.0], [1.0, 0.5, 0.0]]))
        cand = sm.interpolate_affine(sm.AffineMap([0.0, 0.0], [1.0, -0.5]),
                                     sm.Grid.uniform(0.0, 1.0, 17))
        config = sm.AuditConfig(num_subintervals=6, seed=2,
                                options=sm.SolveOptions(max_iters=1))
        report = sm.audit_absolute_minimality(model, cand, config)
        assert report.entries and not report.passed and np.isnan(report.max_deficit)
        for entry in report.entries:
            assert entry.status == "inconclusive" and np.isnan(entry.deficit)
            assert entry.stop_reasons[-1] == "max_iters"
            assert entry.error == f"m={2 ** len(entry.stop_reasons)}: stopped at max_iters"


    def test_model_dimension_mismatch(self):
        cand = sm.interpolate_affine(sm.AffineMap([0.0], [1.0]), sm.Grid.uniform(0.0, 1.0, 17))
        with pytest.raises(sm.SupminError, match="path dimension 1 differs from the model "
                                                 "dimension 2"):
            sm.audit_absolute_minimality(sm.PowerNormModel(2.0, [0.0, 0.0]), cand,
                                         sm.AuditConfig(num_subintervals=3, seed=1))


class TestBuildComparison:
    def test_affine_self_gluing_is_identity(self):
        grid = sm.Grid.uniform(0.0, 1.0, 33)
        psi = sm.interpolate_affine(sm.AffineMap([0.2, -0.4], [1.0, 3.0]), grid)
        glued = sm.build_comparison(psi.values[0], psi.values[-1], psi, 0.25)
        assert np.max(np.abs(glued.values - psi.values)) < 1e-13

    def test_layer_slope_formula(self, rng):
        psi = random_path(rng, grid=sm.Grid.uniform(0.0, 1.0, 33), dim=2)
        u_left = psi.values[0] + np.array([0.5, -1.0])
        u_right = psi.values[-1] + np.array([-0.25, 0.75])
        delta = 0.2
        i_left, i_right = sm.snap_delta(psi.grid, delta)
        d_eff = psi.grid.nodes[i_left] - psi.grid.a
        glued = sm.build_comparison(u_left, u_right, psi, delta)
        expected = (psi.values[i_left] - u_left) / d_eff
        np.testing.assert_allclose(glued.element_slopes()[0], expected, rtol=1e-12)
        assert np.array_equal(glued.values[0], u_left)
        assert np.array_equal(glued.values[-1], u_right)

    def test_interior_untouched_bitwise(self, rng):
        psi = random_path(rng, grid=sm.Grid.uniform(0.0, 1.0, 33), dim=1)
        glued = sm.build_comparison(psi.values[0] + 1.0, psi.values[-1] - 1.0, psi, 0.3)
        i_left, i_right = sm.snap_delta(psi.grid, 0.3)
        assert np.array_equal(glued.values[i_left : i_right + 1],
                              psi.values[i_left : i_right + 1])

    def test_boundary_value_convergence_bound(self):
        # glued paths converge as the left value does, slopes within (2/delta)*dev
        grid = sm.Grid.uniform(0.0, 1.0, 65)
        psi = sm.interpolate_affine(sm.AffineMap([0.0], [1.0]), grid)
        delta = 0.25
        i_left, _ = sm.snap_delta(grid, delta)
        d_eff = grid.nodes[i_left]
        limit = sm.build_comparison(psi.values[0], psi.values[-1], psi, delta)
        for k in range(1, 8):
            dev = 2.0**-k
            glued = sm.build_comparison(psi.values[0] + dev, psi.values[-1], psi, delta)
            value_gap = np.max(np.abs(glued.values - limit.values))
            slope_gap = np.max(np.abs(glued.element_slopes() - limit.element_slopes()))
            assert value_gap <= dev * (1 + 1e-12)
            assert slope_gap <= (2.0 / d_eff) * dev * (1 + 1e-12)

    def test_bad_delta(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        psi = sm.Path(grid, np.zeros((9, 1)))
        with pytest.raises(sm.SupminError, match=r"delta must lie in \(0, 0\.333.*\), got 0\.5"):
            sm.build_comparison([0.0], [0.0], psi, 0.5)
        with pytest.raises(sm.SupminError, match=r"delta must lie in \(0, 0\.333.*\), got 0\.0"):
            sm.build_comparison([0.0], [0.0], psi, 0.0)

    def test_grid_too_coarse(self):
        grid = sm.Grid(np.array([0.0, 0.4, 0.6, 1.0]))
        psi = sm.Path(grid, np.zeros((4, 1)))
        with pytest.raises(sm.SupminError, match="no grid node within delta=0.1 of an endpoint"):
            sm.build_comparison([0.0], [0.0], psi, 0.1)

    def test_max_splitting_inequality_random_gluings(self, rng):
        for _ in range(40):
            dim = int(rng.integers(1, 3))
            model = random_builtin_model(rng, dim)
            psi = random_path(rng, grid=sm.Grid.uniform(0.0, 1.0, 17), dim=dim)
            u_left = psi.values[0] + rng.normal(scale=0.5, size=dim)
            u_right = psi.values[-1] + rng.normal(scale=0.5, size=dim)
            delta = float(rng.uniform(0.07, 0.32))
            glued = sm.build_comparison(u_left, u_right, psi, delta)
            i_left, i_right = sm.snap_delta(psi.grid, delta)
            nodes = psi.grid.nodes
            left_sup = sm.sup_energy(model, glued, (nodes[0], nodes[i_left]))
            right_sup = sm.sup_energy(model, glued, (nodes[i_right], nodes[-1]))
            interior_sup = sm.sup_energy(model, psi)
            whole = sm.sup_energy(model, glued)
            bound = max(left_sup, interior_sup, right_sup)
            assert whole <= bound * (1 + 1e-12) + 1e-12


class TestSemicontinuity:
    def test_constant_sequence(self):
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        affine = sm.interpolate_affine(sm.AffineMap([0.0], [1.0]), grid)
        model = sm.PowerNormModel(2.0, [0.0])
        res = sm.semicontinuity_check(model, [(2, affine), (4, affine), (8, affine)], affine)
        assert res.passed
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.liminf_rhs_estimate == pytest.approx(1.0, abs=1e-12)

    def test_per_m_minimizers_pass(self):
        grid = sm.Grid.uniform(0.0, 1.0, 33)
        model = sm.PowerNormModel(2.0, [1.0, -0.5])
        bmap = sm.AffineMap([0.0, 0.0], [1.0, 1.0])
        pairs = []
        current = None
        for m in (2, 4, 8, 16, 32):
            current, _ = sm.minimize_power(model, grid, bmap, m, current)
            pairs.append((m, current))
        res = sm.semicontinuity_check(model, pairs, pairs[-1][1])
        assert res.passed

    def test_wrong_limit_flagged(self):
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        model = sm.PowerNormModel(2.0, [0.0])
        steep = sm.interpolate_affine(sm.AffineMap([0.0], [2.0]), grid)  # sup 4
        flat = sm.interpolate_affine(sm.AffineMap([0.0], [1.0]), grid)  # roots 1
        res = sm.semicontinuity_check(model, [(2, flat), (4, flat), (8, flat)], steep)
        assert not res.passed

    def test_too_few_entries(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        p = sm.Path(grid, np.zeros((9, 1)))
        with pytest.raises(sm.SupminError, match="needs at least 3 approximating paths"):
            sm.semicontinuity_check(sm.PowerNormModel(2.0, [0.0]), [(2, p), (4, p)], p)


class TestEndpointQuotientScan:
    def test_affine_tight(self):
        grid = sm.Grid.uniform(0.0, 1.0, 65)
        v = np.array([1.5, -0.5])
        psi = sm.interpolate_affine(sm.AffineMap([0.0, 0.0], v), grid)
        model = sm.PowerNormModel(2.0, [0.0, 0.0])
        scan = sm.endpoint_quotient_scan(model, psi)
        sup = float(v @ v)
        for entry in scan.left + scan.right:
            np.testing.assert_allclose(entry.quotient, v, atol=1e-10)
            assert entry.layer_sup == pytest.approx(sup, rel=1e-10)
        assert scan.bounded and scan.left_cauchy and scan.right_cauchy
        assert scan.global_sup == pytest.approx(sup, rel=1e-12)

    def test_spike_quotients_converge_to_first_slope(self):
        grid = sm.Grid.uniform(0.0, 1.0, 33)
        values = np.zeros((33, 1))
        values[16, 0] = 1.0  # slopes: 0 ... 32, -32 ... 0
        psi = sm.Path(grid, values)
        model = sm.PowerNormModel(2.0, [0.0])
        scan = sm.endpoint_quotient_scan(model, psi)
        assert scan.left[-1].quotient[0] == pytest.approx(0.0, abs=1e-12)
        assert scan.left[-1].layer_sup == pytest.approx(0.0, abs=1e-12)
        assert scan.bounded  # layer sups stay below the global spike energy

    def test_value_deviation_decreases(self):
        grid = sm.Grid.uniform(0.0, 1.0, 65)
        psi = sm.interpolate_affine(sm.AffineMap([0.0], [2.0]), grid)
        scan = sm.endpoint_quotient_scan(sm.PowerNormModel(2.0, [0.0]), psi)
        devs = [entry.value_dev for entry in scan.left]
        for hi, lo in zip(devs, devs[1:]):
            assert lo <= hi + 1e-12

    def test_layer_sup_consistent_with_sup_energy(self, rng):
        for _ in range(10):
            dim = int(rng.integers(1, 3))
            model = random_builtin_model(rng, dim)
            psi = random_path(rng, grid=sm.Grid.uniform(0.0, 1.0, 33), dim=dim)
            scan = sm.endpoint_quotient_scan(model, psi, [0.3, 0.15])
            for entry in scan.left:
                i_left, _ = sm.snap_delta(psi.grid, entry.delta, clamp=True)
                glued = sm.build_comparison(psi.values[0], psi.values[-1], psi, entry.delta)
                direct = sm.sup_energy(model, glued, (psi.grid.a, psi.grid.nodes[i_left]))
                assert entry.layer_sup == direct

    def test_schedule_validation(self):
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        psi = sm.Path(grid, np.zeros((17, 1)))
        model = sm.PowerNormModel(2.0, [0.0])
        with pytest.raises(sm.SupminError, match="delta schedule must be strictly decreasing"):
            sm.endpoint_quotient_scan(model, psi, [0.1, 0.2])
        with pytest.raises(sm.SupminError, match=r"delta schedule must lie in \(0, length/3\)"):
            sm.endpoint_quotient_scan(model, psi, [0.5, 0.25])

    def test_clamps_below_element_width(self):
        grid = sm.Grid.uniform(0.0, 1.0, 9)  # element width 1/8
        psi = sm.Path(grid, np.linspace(0.0, 1.0, 9)[:, None])
        scan = sm.endpoint_quotient_scan(sm.PowerNormModel(2.0, [0.0]), psi)
        assert scan.left[-1].delta == pytest.approx(1.0 / 8.0)
