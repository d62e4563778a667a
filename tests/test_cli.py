import json

import numpy as np
import pytest

import supmin as sm
from supmin import cli


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
            assert rec["line_search_failed"] is False and rec["grad_norm"] <= 1e-8
        assert doc["sup_of_candidate"] == pytest.approx(1.0, abs=1e-12)

    def test_domain_validation_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, domain=[1.0, 1.0])
        assert cli.main(["solve", cfg]) == 1
        assert "domain: a < b required" in capsys.readouterr().err

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
        ("solve", {"grad_tol": float("nan")}, "solve.grad_tol: expected a finite number"),
        ("schedule", {"tol_sweep": 10**400}, "schedule.tol_sweep: expected a finite number"),
        ("lagrangian", {"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0],
                        "growth": {"C1": 1.0, "C2": float("nan"), "C3": 0.0, "q": 2.0, "r": 2.0}},
         "lagrangian.growth.C2: expected a finite number"),
        ("lagrangian", {"kind": "power_norm", "exponent": float("nan"), "offset": [0.0, 0.0]},
         "lagrangian.exponent: expected a finite number"),
        ("lagrangian", {"kind": "min_norms", "centers": [[1.0, 0.0]], "exponent": -1.0},
         "lagrangian: exponent must be positive"),
    ])
    def test_section_fields(self, tmp_path, capsys, section, body, message):
        cfg = write_config(tmp_path, **{section: body})
        assert cli.main(["solve", cfg]) == 1
        assert message in capsys.readouterr().err

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
