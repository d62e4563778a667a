import numpy as np
import pytest

import supmin as sm

from conftest import drift_model, random_path, started


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
        config = sm.AuditConfig(num_subintervals=50, seed=5)
        pairs = sm.audit.sample_subintervals(sm.Grid.uniform(0.0, 1.0, 17), config)
        assert all(j - i >= sm.audit.MIN_ELEMENTS for i, j in pairs)

    def test_grid_below_the_least_subinterval_rejected(self):
        """Two elements hold no subinterval of ``MIN_ELEMENTS``; the CLI
        refuses such a grid before it calls the audit."""
        with pytest.raises(sm.SupminError,
                           match="^grid has fewer elements than the audit minimum$"):
            sm.audit.sample_subintervals(sm.Grid.uniform(0.0, 1.0, 3), sm.AuditConfig())

    def test_repeated_draws_audited_once(self, monkeypatch):
        # on a 3-element grid, the fewest an audit takes, every draw is the pair (0, 3)
        sweeps = []
        m_sweep_many = sm.audit.m_sweep_many

        def counted(model, problems, *args):
            sweeps.extend(grid for grid, *_ in problems)
            return m_sweep_many(model, problems, *args)

        monkeypatch.setattr(sm.audit, "m_sweep_many", counted)
        grid = sm.Grid.uniform(0.0, 1.0, 4)
        cand = sm.interpolate_affine(sm.AffineMap([0.0], [1.0]), grid)
        config = sm.AuditConfig(num_subintervals=20)
        report = sm.audit_absolute_minimality(sm.PowerNormModel(2.0, [0.0]), cand, config)
        assert sm.audit.sample_subintervals(grid, config) == [(0, 3)]
        assert len(report.entries) == 1 and len(sweeps) == 1
        assert report.to_json_dict()["num_subintervals"] == 1

    def test_local_problems_take_the_candidate_end_values(self, monkeypatch, rng):
        """Each local problem starts from the chord through the candidate's
        values at its ends, and its two clamped end values are the
        candidate's own, bitwise: the chord's affine map rounds them."""
        problems = []
        m_sweep_many = sm.audit.m_sweep_many

        def captured(model, batch, *args):
            problems.extend(batch)
            return m_sweep_many(model, batch, *args)

        monkeypatch.setattr(sm.audit, "m_sweep_many", captured)
        cand = random_path(rng, grid=sm.Grid.uniform(0.0, 1.0, 33), dim=2)
        config = sm.AuditConfig(num_subintervals=20, seed=5)
        sm.audit_absolute_minimality(sm.PowerNormModel(2.0, [0.0, 0.0]), cand, config)
        pairs = sm.audit.sample_subintervals(cand.grid, config)
        assert len(problems) == len(pairs) > 10
        nodes = cand.grid.nodes
        for (grid, start, _), (i, j) in zip(problems, pairs):
            b1 = (cand.values[j] - cand.values[i]) / (nodes[j] - nodes[i])
            chord = sm.interpolate_affine(sm.AffineMap(cand.values[i] - b1 * nodes[i], b1), grid)
            assert np.array_equal(start[1:-1], chord.values[1:-1])
            assert start[0].tobytes() == cand.values[i].tobytes()
            assert start[-1].tobytes() == cand.values[j].tobytes()

    def test_solve_totals_sum_the_entries(self):
        model = drift_model()
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        cand = sm.m_sweep(model, grid, sm.AffineMap([0.0, 0.0], [1.0, -0.5])).candidate
        report = sm.audit_absolute_minimality(model, cand, sm.AuditConfig(num_subintervals=6,
                                                                          seed=3))
        doc = report.to_json_dict()
        assert doc["solve_totals"] == report.solve_totals == {
            key: sum(e.solve_totals[key] for e in report.entries)
            for key in ("iterations", "f_evals", "g_evals")}
        assert doc["solve_totals"]["g_evals"] > doc["solve_totals"]["iterations"] > 0

    def test_jets_bounded_by_the_slowest_subinterval_of_each_exponent(self):
        """The audit's local sweeps advance in lockstep, one jet_many call
        per Newton round for every subinterval still iterating: its jets are
        the sum over exponents of the largest g_evals of any one
        subinterval, however many subintervals it draws, where solving them
        one by one takes the sum over subintervals too.  The equality pins
        the scheduler waiting for every solve of an order before it starts
        the next: a sweep that ran ahead would make jets of its own."""
        model = drift_model()
        grid = sm.Grid.uniform(0.0, 1.0, 33)
        cand = sm.m_sweep(model, grid, sm.AffineMap([0.0, 0.0], [1.0, -0.5])).candidate
        config = sm.AuditConfig(num_subintervals=20, seed=7)
        nodes = grid.nodes
        per_exponent = {}
        for k, (i, j) in enumerate(sm.audit.sample_subintervals(grid, config)):
            b1 = (cand.values[j] - cand.values[i]) / (nodes[j] - nodes[i])
            chord = sm.AffineMap(cand.values[i] - b1 * nodes[i], b1)
            alone = sm.m_sweep(model, sm.Grid(nodes[i : j + 1]), chord, seed=config.seed + 1000 + k)
            for rec in alone.records:
                per_exponent.setdefault(rec.m, []).append(rec.stats.g_evals)
        jets = {"calls": 0}
        jet_many = model.jet_many

        def counted(*args):
            jets["calls"] += 1
            return jet_many(*args)

        model.jet_many = counted
        report = sm.audit_absolute_minimality(model, cand, config)
        assert report.passed and len(report.entries) > 10
        bound = sum(max(g_evals) for g_evals in per_exponent.values())
        assert jets["calls"] == bound < sum(map(sum, per_exponent.values()))

    def test_unconverged_local_solve_inconclusive(self):
        """A local sweep whose last solve stops at max_iters decides
        nothing: every entry is inconclusive, with a NaN deficit and the
        exponent and stop reason in its error, and the report does not pass.
        The weighted oracle L = (1 + 0.8 sin^2 2 pi x)|p|^2 has minimisers
        that move with m, so at one iteration per solve no local solve from
        the affine candidate's chords converges, at any exponent."""
        def weighted(xs, etas, ps):
            return (1.0 + 0.8 * np.sin(2 * np.pi * xs) ** 2) * np.sum(ps * ps, axis=1)

        cand = sm.interpolate_affine(sm.AffineMap([0.0, 0.0], [1.0, 1.0]),
                                     sm.Grid.uniform(0.0, 1.0, 17))
        config = sm.AuditConfig(num_subintervals=6, seed=2, options=sm.SolveOptions(max_iters=1))
        report = sm.audit_absolute_minimality(sm.CustomModel(weighted, 2), cand, config)
        assert len(report.entries) == 6 and not report.passed and np.isnan(report.max_deficit)
        for entry in report.entries:
            assert entry.status == "inconclusive" and np.isnan(entry.deficit)
            assert entry.stop_reasons == ["max_iters"] * len(sm.solver.EXPONENTS)
            assert entry.error == "m=1024: stopped at max_iters"

    def test_aborted_local_sweep_inconclusive(self):
        """L = 1/|p|^2 is infinite at p = 0, where a zigzag candidate's chord
        between two equal end values starts its local sweep: that sweep
        aborts at m = 2, and its subinterval is inconclusive with a NaN
        local sup.  Between unequal ends the local sweeps converge, but to
        0.140625, above the zigzag's own 1/64: they have not found the local
        min-max, so those subintervals are inconclusive too, with both sups
        in their error, and the report does not pass."""
        def inverse_square(xs, etas, ps):
            with np.errstate(divide="ignore"):
                return 1.0 / np.sum(ps * ps, axis=1)

        grid = sm.Grid.uniform(0.0, 1.0, 9)
        zigzag = sm.Path(grid, (np.arange(9) % 2).astype(float)[:, None])
        report = sm.audit_absolute_minimality(sm.CustomModel(inverse_square, 1), zigzag,
                                              sm.AuditConfig(num_subintervals=6, seed=0))
        # the zigzag takes equal values at the ends of an even number of elements
        even = [round(8 * (e.beta - e.alpha)) % 2 == 0 for e in report.entries]
        aborted = [e for e, flag in zip(report.entries, even) if flag]
        converged = [e for e, flag in zip(report.entries, even) if not flag]
        assert aborted and converged
        for entry in aborted:
            assert entry.status == "inconclusive"
            assert np.isnan(entry.sup_local_solution) and np.isnan(entry.deficit)
            assert entry.error == "m=2: Lagrangian evaluation is not finite"
            assert entry.stop_reasons == []
        for entry in converged:
            assert entry.status == "inconclusive" and np.isnan(entry.deficit)
            assert entry.stop_reasons[-1] == "decrement"
            assert entry.sup_global_restricted == 1.0 / 64.0
            assert entry.sup_local_solution == pytest.approx(0.140625, rel=1e-12)
            assert entry.error == (f"local sup {entry.sup_local_solution!r} above the restricted "
                                   "candidate's sup 0.015625: the local min-max was not found")
        assert not report.passed and np.isnan(report.max_deficit)

    def test_entries_report_their_local_sweep_stop_reason(self):
        """Each entry carries the stop reason of its local sweep, the one that
        sweep reports alone, and ``audit.json`` writes it after
        ``stop_reasons``.  DA-rot's local sweeps on a 9-node candidate run
        every exponent; the drift oracle's settle, L being constant
        along its minimisers; the inverse square's abort on the zigzag's even
        subintervals."""
        da_rot = sm.DataAssimilationModel(
            [[1.0, 0.0]], sm.SampledSignal.from_rows([[0.0, 0.5], [0.5, -0.3], [1.0, 0.2]]),
            [[0.0, 1.0], [-1.0, 0.0]],
            sm.SampledSignal.from_rows([[0.0, 1.0, 0.0], [0.5, 0.0, 2.0], [1.0, 1.0, 0.0]]))
        grid = sm.Grid.uniform(0.0, 1.0, 9)
        nodes = grid.nodes
        schedule = sm.SweepSchedule()
        config = sm.AuditConfig(num_subintervals=8, seed=1, schedule=schedule)
        for model, stop_reasons in ((da_rot, {"m_max"}), (drift_model(), {"settled"})):
            cand = sm.m_sweep(model, grid, sm.AffineMap([0.0, 0.0], [1.0, 1.0]),
                              schedule).candidate
            report = sm.audit_absolute_minimality(model, cand, config)
            for k, ((i, j), entry) in enumerate(zip(sm.audit.sample_subintervals(grid, config),
                                                    report.entries, strict=True)):
                b1 = (cand.values[j] - cand.values[i]) / (nodes[j] - nodes[i])
                chord = sm.AffineMap(cand.values[i] - b1 * nodes[i], b1)
                alone = sm.m_sweep(model, sm.Grid(nodes[i : j + 1]), chord, schedule,
                                   seed=config.seed + 1000 + k)
                assert entry.sweep_stop_reason == alone.stop_reason
            assert {e.sweep_stop_reason for e in report.entries} == stop_reasons
            keys = list(report.to_json_dict()["subintervals"][0])
            assert keys[keys.index("stop_reasons") + 1] == "sweep_stop_reason"

        def inverse_square(xs, etas, ps):
            with np.errstate(divide="ignore"):
                return 1.0 / np.sum(ps * ps, axis=1)

        zigzag = sm.Path(grid, (np.arange(9) % 2).astype(float)[:, None])
        report = sm.audit_absolute_minimality(sm.CustomModel(inverse_square, 1), zigzag,
                                              sm.AuditConfig(num_subintervals=6, seed=0))
        for entry in report.entries:
            assert (entry.sweep_stop_reason == "aborted") == (entry.stop_reasons == [])
        assert "aborted" in {e.sweep_stop_reason for e in report.entries}

    def test_local_sup_above_the_restricted_sup_decides_nothing(self):
        """The restricted candidate competes on its own subinterval, so a
        converged local sweep whose sup lies above the candidate's by more
        than TOL_AUDIT (1 + sup) has not found the local min-max: its entry
        is inconclusive.  Within that allowance it is ``ok``, and a local
        sup below the candidate's by more than it is a violation."""
        model = sm.PowerNormModel(2.0, [0.0])
        [sweep] = sm.solver.m_sweep_many(model, started(model, [(sm.Grid.uniform(0.0, 1.0, 5),
                                                                 sm.AffineMap([0.0], [1.0]),
                                                                 None, 0)]))
        local = sweep.sup_of_candidate
        assert sweep.records[-1].stats.converged and local == pytest.approx(1.0, rel=1e-12)
        allowance = sm.audit.TOL_AUDIT * (1.0 + 0.5)
        for sup_global, status in ((0.5, "inconclusive"), (local - 0.5 * allowance, "ok"),
                                   (local, "ok"), (local + 0.5 * allowance, "ok"),
                                   (2.0, "violation")):
            entry = sm.audit._entry(0.0, 1.0, sup_global, sweep)
            assert entry.status == status and entry.sup_local_solution == local
            if status == "inconclusive":
                assert np.isnan(entry.deficit)
                assert entry.error == (f"local sup {local!r} above the restricted candidate's "
                                       "sup 0.5: the local min-max was not found")
            else:
                assert entry.deficit == sup_global - local and entry.error is None

    @pytest.mark.parametrize("kind", ["power_norm", "data_assimilation", "radial", "min_norms"])
    def test_restricted_sup_is_sup_energy_of_the_restricted_candidate(self, kind, rng):
        """On a jittered grid, each entry's ``sup_global_restricted`` is
        bitwise ``sup_energy`` of the candidate restricted to the grid of
        its nodes i..j, the discrete problem its local sweep solves."""
        signal = sm.SampledSignal(np.linspace(-0.5, 1.5, 5), rng.normal(scale=0.5, size=(5, 2)))
        model = {
            "power_norm": lambda: sm.PowerNormModel(1.5, rng.normal(size=2)),
            "data_assimilation": lambda: sm.DataAssimilationModel(
                rng.normal(scale=0.5, size=(1, 2)),
                sm.SampledSignal(np.linspace(-0.5, 1.5, 5), rng.normal(scale=0.5, size=(5, 1))),
                rng.normal(scale=0.3, size=(2, 2)), signal),
            "radial": lambda: sm.RadialModel(sm.radial_profile("shift", beta=0.5, gamma=1.7),
                                             rng.normal(scale=0.3, size=(2, 2)), signal),
            "min_norms": lambda: sm.MinOfNormsModel([[1.0, 0.0], [-1.0, 0.0]], exponent=2.0),
        }[kind]()
        nodes = np.linspace(0.0, 1.0, 13)
        nodes[1:-1] += rng.uniform(-0.3, 0.3, 11) / 12
        cand = random_path(rng, grid=sm.Grid(nodes), dim=2, scale=0.5)
        config = sm.AuditConfig(num_subintervals=8, seed=int(rng.integers(100)))
        report = sm.audit_absolute_minimality(model, cand, config)
        pairs = sm.audit.sample_subintervals(cand.grid, config)
        assert len(report.entries) == len(pairs) > 1
        for entry, (i, j) in zip(report.entries, pairs):
            assert (entry.alpha, entry.beta) == (nodes[i], nodes[j])
            restricted = sm.Path(sm.Grid(nodes[i : j + 1]), cand.values[i : j + 1])
            assert entry.sup_global_restricted == sm.sup_energy(model, restricted)

    def test_model_dimension_mismatch(self):
        cand = sm.interpolate_affine(sm.AffineMap([0.0], [1.0]), sm.Grid.uniform(0.0, 1.0, 17))
        with pytest.raises(sm.SupminError, match="path dimension 1 differs from the model "
                                                 "dimension 2"):
            sm.audit_absolute_minimality(sm.PowerNormModel(2.0, [0.0, 0.0]), cand,
                                         sm.AuditConfig(num_subintervals=3, seed=1))
