"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; a one-line PASS/FAIL summary
per criterion is printed at the end of the session.
"""

import json

import numpy as np
import pytest

import supmin as sm
from supmin import cli

from conftest import random_builtin_model, random_path
from test_energy import fd_root_gradient

B0_POOL = np.array([0.25, -0.5, 1.0])
B1_POOL = np.array([1.0, -0.5, 0.25])


def da_constant_velocity_model():
    """Observation terms zeroed, velocity pinned to the constant (1, 0)."""
    return sm.DataAssimilationModel(
        np.zeros((1, 2)),
        sm.SampledSignal.from_rows([[0.0, 0.0], [1.0, 0.0]]),
        np.zeros((2, 2)),
        sm.SampledSignal.from_rows([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]),
    )


@pytest.fixture(scope="module")
def affine_sweeps():
    """Criterion-1 instances: per (s, N) the sweep and its boundary map."""
    out = {}
    for s in (1.0, 2.0, 4.0):
        for dim in (1, 2, 3):
            grid = sm.Grid.uniform(0.0, 1.0, 65)
            bmap = sm.AffineMap(B0_POOL[:dim], B1_POOL[:dim])
            model = sm.PowerNormModel(s, np.zeros(dim))
            out[(s, dim)] = (model, bmap, sm.m_sweep(model, grid, bmap))
    return out


@pytest.fixture(scope="module")
def da_sweep():
    """Criterion-2 instance: constant-velocity mismatch on M = 128."""
    model = da_constant_velocity_model()
    grid = sm.Grid.uniform(0.0, 1.0, 129)
    bmap = sm.AffineMap([0.0, 0.0], [0.0, 1.0])
    return model, bmap, sm.m_sweep(model, grid, bmap, sm.SweepSchedule())


def tent_candidate(num_nodes=65):
    grid = sm.Grid.uniform(0.0, 1.0, num_nodes)
    values = np.zeros((num_nodes, 1))
    values[num_nodes // 2, 0] = 1.0
    return sm.Path(grid, values)


def test_c01_affine_exactness(affine_sweeps):
    for (s, dim), (model, bmap, sweep) in affine_sweeps.items():
        exact = sm.interpolate_affine(bmap, sweep.candidate.grid)
        nodal_err = np.max(np.abs(sweep.candidate.values - exact.values))
        assert nodal_err < 1e-6, (s, dim)
        oracle = np.linalg.norm(bmap.b1) ** s
        assert abs(sweep.sup_of_candidate - oracle) < 1e-6, (s, dim)
    print("c01 affine exactness: PASS")


def test_c02_data_assimilation_closed_form(da_sweep):
    _, bmap, sweep = da_sweep
    oracle = 2.0  # |b1 - v|^2 with b1 = (0, 1), v = (1, 0)
    assert abs(sweep.sup_of_candidate - oracle) <= 0.01 * oracle
    print("c02 data-assimilation closed form: PASS")


def test_c03_monotone_root_limit(da_sweep):
    _, _, sweep = da_sweep
    roots = sweep.c_sequence
    for lo, hi in zip(roots, roots[1:]):
        assert lo <= hi + 10 * 1e-4
    assert abs(roots[-1] - sweep.sup_of_candidate) <= 0.05 * sweep.sup_of_candidate
    print("c03 monotone normalized-root limit: PASS")


def test_c04_absolute_minimality_audit(affine_sweeps, da_sweep):
    config = sm.AuditConfig(num_subintervals=20, seed=42)
    for s in (1.0, 2.0, 4.0):
        model, _, sweep = affine_sweeps[(s, 2)]
        report = sm.audit_absolute_minimality(model, sweep.candidate, config)
        assert report.passed, f"s={s}"
    da_model, _, sweep = da_sweep
    report = sm.audit_absolute_minimality(da_model, sweep.candidate, config)
    assert report.passed

    spike = tent_candidate(65)
    model = sm.PowerNormModel(2.0, [0.0])
    spike_config = sm.AuditConfig(num_subintervals=20, seed=0)
    spike_report = sm.audit_absolute_minimality(model, spike, spike_config)
    assert len(spike_report.violations) >= 1
    pairs = sm.audit.sample_subintervals(spike.grid, spike_config)
    nodes = spike.grid.nodes
    slopes = spike.element_slopes()[:, 0]
    for k in spike_report.violations:
        i, j = pairs[k]
        chord = (spike.values[j, 0] - spike.values[i, 0]) / (nodes[j] - nodes[i])
        closed_form = float(np.max(slopes[i:j] ** 2) - chord**2)
        assert abs(spike_report.entries[k].deficit - closed_form) < 1e-6
    print("c04 absolute-minimality audit: PASS")


def test_c05_jensen_suite():
    """The sup-Jensen inequality L(x, eta, mix) <= max(L(x, eta, p1), L(x, eta, p2))
    of a level-convex L holds on every sample of three built-in models; a
    min of two norms breaks it, and each of its witnesses is sound."""
    plan = sm.SamplePlan(num_triples=1000, seed=505)
    models = [
        sm.PowerNormModel(1.5, [0.4, -0.2]),
        da_constant_velocity_model(),
        sm.RadialModel(sm.radial_profile("power", gamma=1.5),
                       0.2 * np.eye(2),
                       sm.SampledSignal.from_rows([[0.0, 0.3, -0.1], [1.0, -0.2, 0.4]])),
    ]
    for model in models:
        assert sm.check_level_convexity(model, plan).passed, type(model).__name__
    counter = sm.MinOfNormsModel([[2.0], [-2.0]], exponent=1.0)
    witnesses = sm.check_level_convexity(counter, plan).witnesses
    assert witnesses

    def oracle(p):  # min(|p - 2|, |p + 2|)
        return min(abs(p[0] - 2.0), abs(p[0] + 2.0))

    for w in witnesses:
        mix = w.lam * w.p1 + (1.0 - w.lam) * w.p2
        assert max(oracle(w.p1), oracle(w.p2)) == pytest.approx(w.end_max, abs=1e-12)
        assert oracle(mix) == pytest.approx(w.mixed_value, abs=1e-12)
        assert oracle(mix) > w.end_max
    print(f"c05 Jensen suite: PASS ({len(witnesses)} counterexample witnesses)")


def test_c06_gradient_check():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        model = random_builtin_model(rng, dim)
        m_el = int(rng.integers(4, 33))
        m = int(rng.integers(1, 17))
        grid = sm.Grid.uniform(0.0, 1.0, m_el + 1)
        path = random_path(rng, grid=grid, dim=dim)
        analytic = sm.power_energy_gradient(model, path, m)
        fd = fd_root_gradient(model, path, m)
        worst = max(worst, np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic))))
    assert worst < 1e-5
    print(f"c06 gradient check: PASS (max rel err {worst:.2e})")


def test_c07_power_mean_monotonicity():
    rng = np.random.default_rng(707)
    ms = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        model = random_builtin_model(rng, dim)
        path = random_path(rng, dim=dim, scale=float(rng.uniform(0.2, 3.0)))
        reports = [sm.power_energy(model, path, m) for m in ms]
        scale = 1.0 + reports[0].sup
        roots = [r.normalized_root for r in reports]
        for lo, hi in zip(roots, roots[1:]):
            assert lo <= hi + 1e-12 * scale
    print("c07 power-mean monotonicity: PASS")


def test_c09_projection_algebra():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        xi = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        q = sm.normal_projection(xi)
        assert np.max(np.abs(q - q.T)) <= 1e-12
        assert np.max(np.abs(q @ q - q)) <= 1e-12
        assert np.linalg.norm(q @ xi) <= 1e-12 * np.linalg.norm(xi)
    assert np.array_equal(sm.normal_projection(np.zeros(3)), np.eye(3))
    print("c09 projection algebra: PASS")


def test_c10_aronsson_residual():
    half_square = sm.ScaledModel(sm.PowerNormModel(2.0, [0.0]), 0.5)
    errors = []
    for m_el in (32, 64, 128):
        grid = sm.Grid.uniform(0.0, 1.0, m_el + 1)
        path = sm.Path(grid, grid.nodes[:, None] ** 2)
        prof = sm.residual_profile(half_square, path)
        oracle = 8.0 * prof.xs**2
        errors.append(float(np.max(np.abs(prof.residuals[:, 0] - oracle))))
    assert all(e <= 1e-9 for e in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse + 1e-12  # decreasing under refinement
    affine = sm.interpolate_affine(sm.AffineMap([0.5], [1.0]), sm.Grid.uniform(0, 1, 65))
    assert sm.residual_profile(half_square, affine).max_norm == 0.0
    print(f"c10 Aronsson residual: PASS (errors {errors})")


def test_c12_determinism(tmp_path):
    configs = {
        "affine": {
            "lagrangian": {"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0]},
            "domain": [0.0, 1.0],
            "N": 2,
            "grid_points": 65,
            "boundary": {"b0": [0.25, -0.5], "b1": [1.0, -0.5]},
            "seed": 42,
        },
        "da": {
            "lagrangian": {
                "kind": "data_assimilation",
                "K": [[0.0, 0.0]],
                "k": [[0.0, 0.0], [1.0, 0.0]],
                "A": [[0.0, 0.0], [0.0, 0.0]],
                "c": [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
            },
            "domain": [0.0, 1.0],
            "N": 2,
            "grid_points": 129,
            "boundary": {"b0": [0.0, 0.0], "b1": [0.0, 1.0]},
            "seed": 42,
        },
    }
    for label, doc in configs.items():
        blobs = {}
        for run in ("one", "two"):
            out = tmp_path / f"{label}_{run}"
            cfg = dict(doc, output_dir=str(out))
            cfg_file = tmp_path / f"{label}_{run}.json"
            cfg_file.write_text(json.dumps(cfg))
            assert cli.main(["audit", str(cfg_file), "--solve-first"]) == 0
            blobs[run] = {
                name: (out / name).read_bytes()
                for name in ("sweep.json", "audit.json", "candidate.csv",
                             "energies.csv", "residuals.csv")
            }
        assert blobs["one"] == blobs["two"], label
    print("c12 determinism: PASS")


# -- curved oracles: L = |p - (A u + c(x))|^2 with c sampled at 8 equal knots -----

DRIFT_KNOTS = np.array([[i / 8, np.sin(2 * np.pi * i / 8), np.cos(3 * i / 8)] for i in range(9)])
DRIFT_B1 = np.array([1.0, -0.5])  # b0 = 0


def drift_sweeps(A):
    """The sweeps of the drift model with skew matrix A at 17, 33 and 65 nodes."""
    model = sm.DataAssimilationModel(
        np.zeros((1, 2)), sm.SampledSignal.from_rows([[0.0, 0.0], [1.0, 0.0]]),
        np.array(A, dtype=float), sm.SampledSignal.from_rows(DRIFT_KNOTS.tolist()))
    bmap = sm.AffineMap([0.0, 0.0], DRIFT_B1)
    return [sm.m_sweep(model, sm.Grid.uniform(0.0, 1.0, n), bmap) for n in (17, 33, 65)]


def test_c13_drift_oracle_refinement():
    """A = 0: the sup-minimiser is u' = c + kappa with kappa = b1 - int c, so the
    sup energy is |kappa|^2; int c of the piecewise-linear c is the knot
    trapezoid, exactly.  On grids through the knots the midpoint rule integrates
    c exactly too, so the discrete min-max value is |kappa|^2 itself and the
    midpoint sup of the candidate meets it to solver tolerance."""
    x, c = DRIFT_KNOTS[:, 0], DRIFT_KNOTS[:, 1:]
    kappa = DRIFT_B1 - np.sum(0.5 * (c[1:] + c[:-1]) * np.diff(x)[:, None], axis=0)
    oracle = float(kappa @ kappa)
    errors = [abs(sweep.sup_of_candidate - oracle) for sweep in drift_sweeps(np.zeros((2, 2)))]
    assert max(errors) <= 1e-7, errors
    print(f"c13 drift oracle refinement: PASS (errors {errors})")


def test_c14_rotating_drift_oracle_refinement():
    """A = [[0, 1], [-1, 0]] is skew, so v = e^{-Ax} u turns |u' - A u - c| into
    |v' - e^{-Ax} c| and the sup energy is |kappa|^2 with
    kappa = e^{-A} b1 - int e^{-Ax} c dx (fine trapezoid on a grid through the
    knots).  The midpoint sup converges at second order, and the last
    power-mean root stays below it."""
    xs = np.linspace(0.0, 1.0, 8 * 25000 + 1)
    c = np.stack([np.interp(xs, DRIFT_KNOTS[:, 0], DRIFT_KNOTS[:, k]) for k in (1, 2)], axis=1)
    cos, sin = np.cos(xs), np.sin(xs)
    rotated = np.stack([cos * c[:, 0] - sin * c[:, 1], sin * c[:, 0] + cos * c[:, 1]], axis=1)
    integral = np.sum(0.5 * (rotated[1:] + rotated[:-1]) * np.diff(xs)[:, None], axis=0)
    turn = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])  # e^{-A}
    kappa = turn @ DRIFT_B1 - integral
    oracle = float(kappa @ kappa)
    sweeps = drift_sweeps([[0.0, 1.0], [-1.0, 0.0]])
    errors = [abs(sweep.sup_of_candidate - oracle) for sweep in sweeps]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine * 3.5 <= coarse, errors
    for sweep in sweeps:
        assert sweep.c_sequence[-1] <= sweep.sup_of_candidate
    print(f"c14 rotating drift oracle refinement: PASS (errors {errors})")


# -- weighted oracle: L = a(x)|p|^2, whose minimisers move with m ---------------

WEIGHTED_D = np.array([1.0, -0.5])  # b0 = 0, b1 = D


class WeightedModel(sm.LagrangianModel):
    """L = a(x)|p|^2 for a positive weight a with derivative da, and its
    analytic jet and x-jet."""

    def __init__(self, weight, dweight):
        super().__init__(2)
        self.weight, self.dweight = weight, dweight

    def eval_many(self, xs, etas, ps):
        return self._checked(self.weight(xs) * np.sum(ps * ps, axis=1))

    def jet_many(self, xs, etas, ps):
        a, sq = self.weight(xs), np.sum(ps * ps, axis=1)
        m, n = ps.shape
        zeros = np.zeros((m, n, n))
        return sm.JetDerivatives(a * sq, 2.0 * a[:, None] * ps, np.zeros_like(ps),
                                 2.0 * a[:, None, None] * np.eye(n), zeros, zeros)

    def x_jet_many(self, xs, etas, ps):
        da = self.dweight(xs)
        return da * np.sum(ps * ps, axis=1), 2.0 * da[:, None] * ps


def test_c15_weighted_oracle_moves_with_m():
    """Every element slope of the order-m minimiser is t_e D/|D| with
    t_e = |D| w_e / sum_f h_f w_f, w_e = a_e^(-m/(2m-1)) at the element
    midpoints, and its root is (sum_e h_e (a_e t_e^2)^m)^(1/m).  As m grows
    the sup tends to V = (|D| / sum_e h_e a_e^(-1/2))^2, its excess over V
    halving per doubling of m.  The sweep runs every exponent,
    and at m = 1024 the sup lies within the audit's tolerance of V."""
    model = WeightedModel(lambda x: 1.0 + 0.8 * np.sin(2 * np.pi * x) ** 2,
                          lambda x: 1.6 * np.pi * np.sin(4 * np.pi * x))
    size = np.linalg.norm(WEIGHTED_D)
    worst_root, worst_slope = 0.0, 0.0
    for num_nodes in (17, 65, 257):
        grid = sm.Grid.uniform(0.0, 1.0, num_nodes)
        h = grid.element_lengths
        a = model.weight(grid.nodes[:-1] + 0.5 * h)
        value = (size / np.sum(h * a**-0.5)) ** 2
        sweep = sm.m_sweep(model, grid, sm.AffineMap([0.0, 0.0], WEIGHTED_D))
        assert [rec.m for rec in sweep.records] == [2**k for k in range(1, 11)]
        excess = []
        for rec in sweep.records:
            assert rec.stats.stop_reason == "decrement"
            w = a ** (-rec.m / (2 * rec.m - 1))
            t = size * w / np.sum(h * w)
            root = np.sum(h * (a * t**2) ** rec.m) ** (1.0 / rec.m)
            worst_root = max(worst_root, abs(rec.stats.objective - root) / root)
            slopes = np.diff(rec.path.values, axis=0) / h[:, None]
            exact = t[:, None] * WEIGHTED_D / size
            worst_slope = max(worst_slope,
                              np.max(np.abs(slopes - exact)) / np.max(np.abs(exact)))
            excess.append((sm.sup_energy(model, rec.path) - value) / value)
        ratios = np.array(excess[1:]) / np.array(excess[:-1])
        assert np.all((ratios >= 0.40) & (ratios <= 0.51)), (num_nodes, ratios)
        assert np.all(ratios[2:] >= 0.48), (num_nodes, ratios)
        assert excess[-1] < sm.audit.TOL_AUDIT, (num_nodes, excess[-1])
    assert worst_root <= 1e-14 and worst_slope <= 1e-9, (worst_root, worst_slope)
    print(f"c15 weighted oracle: PASS (roots {worst_root:.1e}, slopes {worst_slope:.1e})")


def test_c16_weighted_oracle_refinement():
    """With the weight a = 1 + 0.8 x^2, which is not periodic on [0, 1], each
    record's root converges at second order to the continuum order-m root
    (int (a t^2)^m)^(1/m), t = |D| w / int w with w = a^(-m/(2m-1)), the
    slope of the continuum order-m minimiser along D.  The continuum
    integrals are taken by mpmath at 30 digits."""
    mp = pytest.importorskip("mpmath")
    model = WeightedModel(lambda x: 1.0 + 0.8 * x**2, lambda x: 1.6 * x)
    exponents = [2**k for k in range(1, 11)]
    exact = []
    with mp.workdps(30):
        size = mp.mpf(np.linalg.norm(WEIGHTED_D))

        def a(x):
            return 1 + mp.mpf("0.8") * x**2

        for m in exponents:
            q = mp.mpf(m) / (2 * m - 1)
            total = mp.quad(lambda x: a(x) ** -q, [0, 1])
            energy = mp.quad(lambda x: (a(x) * (size * a(x) ** -q / total) ** 2) ** m, [0, 1])
            exact.append(float(energy ** (mp.mpf(1) / m)))
    errors = []
    for num_nodes in (17, 65, 257):
        sweep = sm.m_sweep(model, sm.Grid.uniform(0.0, 1.0, num_nodes),
                           sm.AffineMap([0.0, 0.0], WEIGHTED_D))
        assert [rec.m for rec in sweep.records] == exponents
        assert all(rec.stats.stop_reason == "decrement" for rec in sweep.records)
        errors.append([abs(rec.stats.objective - root) / root
                       for rec, root in zip(sweep.records, exact)])
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((ratios >= 14.0) & (ratios <= 18.0)), ratios
    print(f"c16 weighted oracle refinement: PASS (errors at 257 nodes "
          f"{min(errors[-1]):.1e} to {max(errors[-1]):.1e}, ratios {ratios.min():.2f} "
          f"to {ratios.max():.2f})")
