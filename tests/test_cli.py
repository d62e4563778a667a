import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import supmin as sm
from supmin import cli

from conftest import record_sweep_solves


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "lagrangian": {"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0]},
        "domain": [0.0, 1.0],
        "N": 2,
        "grid_points": 65,
        "boundary": {"b0": [0.0, 0.0], "b1": [1.0, 0.0]},
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return str(f)


def da_lagrangian():
    return {
        "kind": "data_assimilation",
        "K": [[0.0, 0.0]],
        "k": [[0.0, 0.0], [1.0, 0.0]],
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "c": [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
    }


RADIAL = {"kind": "radial", "profile": {"name": "power", "gamma": 1.5},
          "A": [[0.0, 1.0], [-1.0, 0.0]], "c": [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]}
MIN_NORMS = {"kind": "min_norms", "centers": [[1.0, 0.0], [-1.0, 0.0]], "exponent": 2.0}


class TestSolve:
    def test_power_norm_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["solve", cfg]) == 0
        out = tmp_path / "out"
        for name in ("sweep.json", "candidate.csv", "energies.csv", "residuals.csv"):
            assert (out / name).exists()
        rows = (out / "energies.csv").read_text().splitlines()
        assert rows[0] == "m,normalized_root"
        for row in rows[1:]:
            assert abs(float(row.split(",")[1]) - 1.0) < 1e-12
        doc = json.loads((out / "sweep.json").read_text())
        for rec in doc["records"]:
            assert (out / rec["path_csv"]).exists()
            assert rec["g_evals"] == rec["iterations"] + 1 <= rec["f_evals"]
            assert "line_search_failed" not in rec and rec["grad_norm"] <= 1e-8
            assert rec["stop_reason"] == "decrement" and rec["converged"] is True
        assert doc["stop_reason"] == "tol_sweep" and doc["aborted"] is False
        assert doc["solve_totals"] == {key: sum(rec[key] for rec in doc["records"])
                                       for key in ("iterations", "f_evals", "g_evals")}
        assert doc["sup_of_candidate"] == pytest.approx(1.0, abs=1e-12)

    def test_domain_validation_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, domain=[1.0, 1.0])
        assert cli.main(["solve", cfg]) == 1
        assert "domain: a < b required" in capsys.readouterr().err

    def test_overflowing_domain_width_rejected(self, tmp_path, capsys):
        """Finite ends whose difference overflows fail at the domain, before
        numpy builds the grid and warns."""
        cfg = write_config(tmp_path, domain=[-1e308, 1e308])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["solve", cfg]) == 1
        assert caught == []
        assert capsys.readouterr().err == "domain: b - a must be finite\n"
        assert not (tmp_path / "out").exists()

    def test_data_assimilation_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, lagrangian=da_lagrangian(),
                          boundary={"b0": [0.0, 0.0], "b1": [0.0, 1.0]},
                          grid_points=129)
        assert cli.main(["solve", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert doc["sup_of_candidate"] == pytest.approx(2.0, rel=0.01)
        cand = sm.Path.from_csv(str(tmp_path / "out" / "candidate.csv"))
        chord = sm.interpolate_affine(sm.AffineMap([0.0, 0.0], [0.0, 1.0]), cand.grid)
        assert np.max(np.abs(cand.values - chord.values)) < 1e-6

    def test_solver_failure_exit_2(self, tmp_path):
        cfg = write_config(tmp_path,
                          lagrangian={"kind": "power_norm", "exponent": 600.0, "offset": [0.0]},
                          N=1, boundary={"b0": [0.0], "b1": [10.0]})
        assert cli.main(["solve", cfg]) == 2
        doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert doc["aborted"] is True and doc["error"]
        assert doc["stop_reason"] == "aborted"

    def test_unconverged_record_exit_2(self, tmp_path, capsys):
        """A sweep whose solves stop at ``max_iters`` writes every
        artifact but does not exit 0, and names each such record."""
        lagrangian = dict(da_lagrangian(),
                          c=[[0.0, 1.0, 0.0], [0.5, -1.0, 2.0], [1.0, 0.5, 0.0]])
        cfg = write_config(tmp_path, lagrangian=lagrangian, grid_points=17,
                          boundary={"b0": [0.0, 0.0], "b1": [1.0, -0.5]},
                          solve={"max_iters": 1}, schedule={"m_max": 4})
        assert cli.main(["solve", cfg]) == 2
        out = tmp_path / "out"
        for name in ("sweep.json", "candidate.csv", "energies.csv", "residuals.csv"):
            assert (out / name).exists()
        doc = json.loads((out / "sweep.json").read_text())
        assert [rec["stop_reason"] for rec in doc["records"]] == ["max_iters", "max_iters"]
        assert doc["aborted"] is False
        err = capsys.readouterr().err.splitlines()
        assert err == ["solve: m=2 stopped at max_iters", "solve: m=4 stopped at max_iters"]

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, schedule={"m_strt": 2})
        assert cli.main(["solve", cfg]) == 1

    @pytest.mark.parametrize("section, body, message", [
        ("solve", {"min_step": 1e-30}, "solve.min_step: unknown field"),
        ("audit", {"seed": 1}, "audit.seed: unknown field"),
        ("check", {"seed": 1}, "check.seed: unknown field"),
        ("schedule", {"restarts": 2.5}, "schedule.restarts: expected int"),
        ("check", {"t_levels": 0}, "check: sample plan needs"),
        ("solve", {"history": 5}, "solve.history: unknown field"),
        ("schedule", {"factor": 4}, "schedule.factor: unknown field"),
        ("solve", {"grad_tol": 1e-8}, "solve.grad_tol: unknown field"),
        ("schedule", {"tol_sweep": 10**400}, "schedule.tol_sweep: expected a finite number"),
        ("lagrangian", {"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0],
                        "growth": {"C1": 1.0, "C2": float("nan"), "C3": 0.0, "q": 2.0, "r": 2.0}},
         "lagrangian.growth.C2: expected a finite number"),
        ("lagrangian", {"kind": "power_norm", "exponent": float("nan"), "offset": [0.0, 0.0]},
         "lagrangian.exponent: expected a finite number"),
        ("lagrangian", {"kind": "min_norms", "centers": [[1.0, 0.0]], "exponent": -1.0},
         "lagrangian: exponent must be positive"),
        # the grid is built with the config: a domain too narrow for its nodes fails there
        ("domain", [0.0, 5e-323], "domain: grid nodes must be strictly increasing"),
    ])
    def test_section_fields(self, tmp_path, capsys, section, body, message):
        cfg = write_config(tmp_path, **{section: body})
        assert cli.main(["solve", cfg]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("lagrangian, message", [
        ({"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0, 0.0]},
         "lagrangian: model dimension 3 differs from N = 2"),
        (dict(da_lagrangian(), K=[[0.0, 0.0, 0.0]]), "lagrangian: K has 3 columns, A is 2x2"),
        (dict(da_lagrangian(), A=np.zeros((3, 3)).tolist()),
         "lagrangian: c has 2 value column(s), A is 3x3"),
        (dict(da_lagrangian(), A=np.zeros((2, 3)).tolist()),
         "lagrangian: A must be square, got 2x3"),
        (dict(da_lagrangian(), k=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
         "lagrangian: k has 2 value column(s), K has 1 row(s)"),
        (dict(da_lagrangian(), c=[[0.0, 1.0], [1.0, 1.0]]),
         "lagrangian: c has 1 value column(s), A is 2x2"),
        (dict(da_lagrangian(), K=[[0.0, 0.0, 0.0]], A=np.zeros((3, 3)).tolist(),
              c=[[0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]),
         "lagrangian: model dimension 3 differs from N = 2"),
        (dict(da_lagrangian(), k=[[0.0, 0.0], [1.0]]),
         "lagrangian.k: expected a matrix of numbers"),
        (dict(da_lagrangian(), c=[[0.0], [1.0]]),
         "lagrangian.c: signal rows need at least [x, value]"),
        (dict(RADIAL, A=np.zeros((3, 3)).tolist()),
         "lagrangian: c has 2 value column(s), A is 3x3"),
        (dict(RADIAL, c=[[0.0, 1.0], [1.0, 1.0]]), "lagrangian: c has 1 value column(s), A is 2x2"),
        ({"kind": "min_norms", "centers": [[1.0], [-1.0]]},
         "lagrangian: model dimension 1 differs from N = 2"),
    ])
    def test_malformed_model_rejected(self, tmp_path, capsys, lagrangian, message):
        """Fields of a model that disagree in shape, or a model dimension that
        differs from N, fail at config time with the model's own rule."""
        cfg = write_config(tmp_path, lagrangian=lagrangian)
        assert cli.main(["solve", cfg]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "out").exists()

    def test_radial_solve_audit_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lagrangian=RADIAL, grid_points=9, seed=0)
        for command in ("solve", "audit", "check"):
            assert cli.main([command, cfg]) == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert len(doc["records"]) == 2
        assert doc["sup_of_candidate"] == 0.18259409874493793

    def test_tied_restart_candidate_written(self, tmp_path):
        """Of four restarts on the two-centre min of norms, one reaches another
        candidate of the same sup, which is written beside ``candidate.csv``."""
        cfg = write_config(tmp_path, lagrangian=MIN_NORMS, grid_points=9,
                          boundary={"b0": [0.0, 0.0], "b1": [0.0, 1.0]},
                          schedule={"restarts": 4}, seed=0)
        assert cli.main(["solve", cfg]) == 0
        out = tmp_path / "out"
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["restart_sups"] == [2.0000000000000004, 1.062500000003544,
                                       1.0000000000048193, 1.0000000000032827]
        assert doc["tied_candidate_csvs"] == ["candidate_tie_1.csv"]
        config = cli.load_config(cfg)
        sup = doc["sup_of_candidate"]
        tol = config.schedule.tol_sweep * (1.0 + sup)
        tie = sm.Path.from_csv(str(out / "candidate_tie_1.csv"))
        candidate = sm.Path.from_csv(str(out / "candidate.csv"))
        assert abs(sm.sup_energy(config.model, tie) - sup) <= tol
        assert np.max(np.abs(tie.values - candidate.values)) > tol

    def test_section_defaults_are_the_dataclass_defaults(self, tmp_path):
        config = cli.load_config(write_config(tmp_path, solve={"max_iters": 7},
                                              check={"box": {"p": [-1, 1]}}))
        assert config.schedule == sm.SweepSchedule()
        assert config.solve == sm.SolveOptions(max_iters=7)
        assert config.audit == sm.AuditConfig(seed=7, schedule=config.schedule,
                                              options=config.solve)
        assert config.plan == sm.SamplePlan(box=sm.Box(x=(0.0, 1.0), p=(-1.0, 1.0)), seed=7)
        assert config.plan.num_triples == 500

    def test_json_parse_error_line_anchored(self, tmp_path, capsys):
        f = tmp_path / "broken.json"
        f.write_text('{\n  "domain": [0, 1],\n  "N": \n}\n')
        assert cli.main(["solve", str(f)]) == 1
        err = capsys.readouterr().err
        assert "broken.json:" in err and ":4:" in err or ":3:" in err


class TestAudit:
    def test_missing_candidate(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["audit", cfg]) == 1

    def test_solve_first_then_clean(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["audit", cfg, "--solve-first"]) == 0
        assert (tmp_path / "out" / "audit.json").exists()

    def test_injected_spike_flagged(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                          lagrangian={"kind": "power_norm", "exponent": 2.0, "offset": [0.0]},
                          N=1, boundary={"b0": [0.0], "b1": [0.0]}, seed=0)
        out = tmp_path / "out"
        out.mkdir()
        grid = sm.Grid.uniform(0.0, 1.0, 65)
        values = np.zeros((65, 1))
        values[32, 0] = 1.0
        sm.Path(grid, values).to_csv(str(out / "candidate.csv"))
        assert cli.main(["audit", cfg]) == 3
        text = capsys.readouterr().out
        assert "violation" in text and "max_deficit" in text
        doc = json.loads((out / "audit.json").read_text())
        assert doc["violation_count"] >= 1

    def test_no_conclusive_subinterval_exit_2(self, tmp_path, capsys):
        """Local solves capped at one iteration decide no subinterval: the
        audit writes its report but does not claim a clean pass."""
        lagrangian = dict(da_lagrangian(),
                          c=[[0.0, 1.0, 0.0], [0.5, -1.0, 2.0], [1.0, 0.5, 0.0]])
        cfg = write_config(tmp_path, lagrangian=lagrangian, grid_points=17,
                          boundary={"b0": [0.0, 0.0], "b1": [1.0, -0.5]},
                          solve={"max_iters": 1}, audit={"num_subintervals": 6}, seed=2)
        out = tmp_path / "out"
        out.mkdir()
        chord = sm.interpolate_affine(sm.AffineMap([0.0, 0.0], [1.0, -0.5]),
                                      sm.Grid.uniform(0.0, 1.0, 17))
        chord.to_csv(str(out / "candidate.csv"))
        assert cli.main(["audit", cfg]) == 2
        captured = capsys.readouterr()
        doc = json.loads((out / "audit.json").read_text())
        statuses = {entry["status"] for entry in doc["subintervals"]}
        assert statuses == {"inconclusive"} and doc["violation_count"] == 0
        assert (f"audit: no conclusive subinterval among {doc['num_subintervals']}"
                in captured.err)
        assert "no violations" not in captured.out

    def test_min_elements_beyond_grid_rejected_before_solving(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid_points=5, audit={"min_elements": 10})
        assert cli.main(["audit", cfg, "--solve-first"]) == 1
        assert "audit.min_elements: exceeds the 4 elements of the grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_subintervals_invalid(self, tmp_path):
        cfg = write_config(tmp_path, audit={"num_subintervals": 0})
        assert cli.main(["audit", cfg]) == 1

    @pytest.mark.parametrize("rows, message", [
        ([], "no data rows"),
        ([(k / 4, float(k)) for k in range(5)], "value column"),
        ([(k / 32, k / 32, 0.0) for k in range(33) if k != 5], "uniform grid"),
        ([(k / 32, k / 32, 0.0) for k in range(32)] + [(1.0, 1.0, 0.5)], "boundary values"),
    ])
    def test_candidate_must_match_config(self, tmp_path, capsys, rows, message):
        cfg = write_config(tmp_path, grid_points=33)
        out = tmp_path / "out"
        out.mkdir()
        csv = out / "candidate.csv"
        header = "x,u1" if len(rows) == 5 else "x,u1,u2"
        csv.write_text(header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
        assert cli.main(["audit", cfg]) == 1
        err = capsys.readouterr().err
        assert str(csv) in err and message in err

    def test_solve_totals_count_every_solve(self, tmp_path, monkeypatch):
        """On the drift oracle at 33 nodes (the benchmark's ``audit-drift``), the
        ``solve_totals`` of ``sweep.json`` and of the ``audit.json`` subintervals
        add up to the counts of every solve the two commands ran."""
        sweeps = record_sweep_solves(monkeypatch)
        c = [[i / 8, math.sin(2 * math.pi * i / 8), math.cos(3 * i / 8)] for i in range(9)]
        cfg = write_config(tmp_path, lagrangian={**da_lagrangian(), "c": c}, grid_points=33,
                          boundary={"b0": [0.0, 0.0], "b1": [1.0, -0.5]},
                          solve={"max_iters": 400})
        assert cli.main(["audit", cfg, "--solve-first"]) == 0
        sweep = json.loads((tmp_path / "out" / "sweep.json").read_text())
        audit = json.loads((tmp_path / "out" / "audit.json").read_text())
        solves = [stats for run in sweeps for stats in run]
        totals = {key: sum(getattr(stats, key) for stats in solves)
                  for key in ("iterations", "f_evals", "g_evals")}
        entries = [e["solve_totals"] for e in audit["subintervals"]]
        assert {key: sum(part[key] for part in entries) for key in totals} == audit["solve_totals"]
        assert {key: sweep["solve_totals"][key] + audit["solve_totals"][key]
                for key in totals} == totals
        assert len(sweeps) == 1 + len(entries)
        assert [rec["stop_reason"] for rec in sweep["records"]] + [
            r for e in audit["subintervals"] for r in e["stop_reasons"]] == [
            stats.stop_reason for stats in solves]

    def test_round_trip_matches_in_memory(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main(["audit", cfg_path, "--solve-first"]) == 0
        config = cli.load_config(cfg_path)
        candidate = sm.Path.from_csv(str(tmp_path / "out" / "candidate.csv"))
        audit_cfg = sm.AuditConfig(num_subintervals=config.audit.num_subintervals,
                                   min_elements=config.audit.min_elements,
                                   tol_audit=config.audit.tol_audit,
                                   seed=config.seed, schedule=config.schedule,
                                   options=config.solve)
        in_memory = sm.audit_absolute_minimality(config.model, candidate, audit_cfg)
        on_disk = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert json.loads(cli.dumps_canonical(in_memory.to_json_dict())) == on_disk


class TestCheck:
    def test_power_norm_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["check", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
        assert doc["level_convexity"]["pass"] is True
        assert doc["growth_bounds"] is None

    def test_min_norms_witnessed(self, tmp_path):
        cfg = write_config(tmp_path,
                          lagrangian={"kind": "min_norms", "centers": [[2.0], [-2.0]],
                                      "exponent": 1.0},
                          N=1, boundary={"b0": [0.0], "b1": [1.0]}, seed=1)
        assert cli.main(["check", cfg]) == 4
        doc = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
        assert doc["level_convexity"]["pass"] is False
        assert doc["level_convexity"]["witnesses"]

    def test_growth_params_checked(self, tmp_path):
        lag = {"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0],
               "growth": {"C1": 1.0, "C2": 0.0, "C3": 0.0, "q": 2.0, "r": 2.0,
                          "h_bound": 1.0}}
        cfg = write_config(tmp_path, lagrangian=lag)
        assert cli.main(["check", cfg]) == 0
        doc = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
        assert doc["growth_bounds"]["pass"] is True

    def test_nonfinite_sample_reported_per_check(self, tmp_path, capsys):
        """|p|^600 overflows in the default box (5^600): each check records the
        error in its place, and the command exits 2 naming it on stderr."""
        lag = {"kind": "power_norm", "exponent": 600.0, "offset": [0.0],
               "growth": {"C1": 1.0, "C2": 0.0, "C3": 0.0, "q": 2.0, "r": 2.0}}
        cfg = write_config(tmp_path, lagrangian=lag, N=1, boundary={"b0": [0.0], "b1": [1.0]})
        assert cli.main(["check", cfg]) == 2
        doc = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
        message = "Lagrangian evaluation is not finite"
        assert doc == {"level_convexity": {"error": message}, "growth_bounds": {"error": message}}
        err = capsys.readouterr().err
        assert f"check: level_convexity: {message}" in err
        assert f"check: growth_bounds: {message}" in err
        assert "solver failure" not in err

    def test_growth_witnesses_written(self, tmp_path):
        """|p|^2 below the lower bound 2|p|^2 at every sample: each of the 500
        samples is a witness, and the first 20 are written."""
        lag = {"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0],
               "growth": {"C1": 2.0, "C2": 0.0, "C3": 0.0, "q": 2.0, "r": 2.0}}
        cfg = write_config(tmp_path, lagrangian=lag)
        assert cli.main(["check", cfg]) == 4
        doc = json.loads((tmp_path / "out" / "hypotheses.json").read_text())["growth_bounds"]
        assert doc["pass"] is False and doc["witness_count"] == 500
        assert len(doc["witnesses"]) == 20
        for witness in doc["witnesses"]:
            assert set(witness) == {"x", "eta", "p", "value", "bound", "side"}
            assert witness["side"] == "lower"

    def test_invalid_growth_exponents(self, tmp_path, capsys):
        lag = {"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0],
               "growth": {"C1": 1.0, "C2": 0.0, "C3": 0.0, "q": 3.0, "r": 2.0}}
        cfg = write_config(tmp_path, lagrangian=lag)
        assert cli.main(["check", cfg]) == 1
        assert "lagrangian.growth: 0 < q <= r required" in capsys.readouterr().err


class TestDeterminism:
    def test_solve_and_audit_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path, name="a.json", output_dir=str(tmp_path / "out_a"))
        cfg_b = write_config(tmp_path, name="b.json", output_dir=str(tmp_path / "out_b"))
        for cfg in (cfg_a, cfg_b):
            assert cli.main(["audit", cfg, "--solve-first"]) == 0
        for name in ("sweep.json", "candidate.csv", "energies.csv", "audit.json",
                     "residuals.csv"):
            a = (tmp_path / "out_a" / name).read_bytes()
            b = (tmp_path / "out_b" / name).read_bytes()
            assert a == b, name

    def test_strings_with_control_characters_round_trip(self):
        """Error messages may quote any input; every string of an artifact
        must come back from a JSON reader as written."""
        doc = {"error": "tab\tcr\rnul\x00quote\"backslash\\newline\nletter é",
               "k\ty": ["\x1f"]}
        assert json.loads(cli.dumps_canonical(doc)) == doc


def readme_block(language):
    """The first ```language block of README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(rf"```{language}\n(.*?)```", readme, re.S).group(1)


class TestReadme:
    def test_example_config_runs(self, tmp_path):
        """The example config in README.md solves, audits and checks with exit 0."""
        example = json.loads(readme_block("json"))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(example))
        for command in ("solve", "audit", "check"):
            assert cli.main([command, str(cfg), "--output-dir", str(tmp_path / "out")]) == 0

    def test_library_example_runs(self):
        """The library example in README.md runs as written."""
        exec(readme_block("python"), {})
