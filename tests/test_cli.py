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


def one_iteration_config(tmp_path):
    """DA-rot on 17 nodes, whose solve at every exponent stops at its one
    allowed iteration."""
    return write_config(tmp_path, lagrangian=TRAFFIC_CONFIGS["da-rot"]["lagrangian"],
                        grid_points=17, boundary={"b0": [0.0, 0.0], "b1": [1.0, 1.0]},
                        solve={"max_iters": 1})


RADIAL = {"kind": "radial", "profile": {"name": "power", "gamma": 1.5},
          "A": [[0.0, 1.0], [-1.0, 0.0]], "c": [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]}
MIN_NORMS = {"kind": "min_norms", "centers": [[1.0, 0.0], [-1.0, 0.0]], "exponent": 2.0}
POWER_NORM = {"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0]}


def without(section, key):
    return {name: value for name, value in section.items() if name != key}


def lagrangian_messages():
    """``pytest.param(lagrangian, stderr line)`` for each model kind: every
    required field left out in turn, an unknown field, a value of the wrong
    type and an unknown kind."""
    cases = {
        "power_norm": (POWER_NORM, dict(POWER_NORM, exponent="2"),
                       "lagrangian.exponent: expected float"),
        "data_assimilation": (da_lagrangian(), dict(da_lagrangian(), K=1.0),
                              "lagrangian.K: expected list"),
        "radial": (RADIAL, dict(RADIAL, profile={"name": "power", "gamma": "1.5"}),
                   "lagrangian.profile.gamma: expected float"),
        "min_norms": (MIN_NORMS, dict(MIN_NORMS, exponent=True),
                      "lagrangian.exponent: expected float"),
    }
    params = []
    for kind, (base, mistyped, mistyped_message) in cases.items():
        required = [key for key in base if key != "kind" and not (
            kind == "min_norms" and key == "exponent")]
        params += [pytest.param(without(base, key), f"lagrangian.{key}: required field missing",
                                id=f"{kind}-missing-{key}") for key in required]
        params += [
            pytest.param(dict(base, scale=1.0), "lagrangian.scale: unknown field",
                         id=f"{kind}-unknown-field"),
            pytest.param(mistyped, mistyped_message, id=f"{kind}-mistyped"),
            pytest.param(dict(base, kind=kind + "s"),
                         f"lagrangian.kind: unknown model kind '{kind}s'", id=f"{kind}-unknown-kind"),
        ]
    return params + [
        pytest.param(dict(RADIAL, profile={"gamma": 1.5}),
                     "lagrangian.profile.name: required field missing", id="profile-missing-name"),
        pytest.param(dict(RADIAL, profile={"name": "power", "delta": 1.0}),
                     "lagrangian.profile.delta: unknown field", id="profile-unknown-field"),
        pytest.param(dict(RADIAL, profile={"name": 2}), "lagrangian.profile.name: expected str",
                     id="profile-mistyped-name"),
        pytest.param(dict(RADIAL, profile="power"), "lagrangian.profile: expected dict",
                     id="profile-not-a-section"),
        pytest.param(dict(RADIAL, profile={"name": "cubic"}),
                     "lagrangian.profile: unknown radial profile 'cubic'", id="profile-unknown-name"),
        # the profile t is the shift at beta = 0, not a name of its own
        pytest.param(dict(RADIAL, profile={"name": "identity"}),
                     "lagrangian.profile: unknown radial profile 'identity'",
                     id="profile-identity"),
        pytest.param(without(POWER_NORM, "kind"), "lagrangian.kind: required field missing",
                     id="missing-kind"),
    ]


LAGRANGIAN_MESSAGES = lagrangian_messages()


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
        assert doc["stop_reason"] == "settled" and doc["aborted"] is False
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
        cfg = one_iteration_config(tmp_path)
        assert cli.main(["solve", cfg]) == 2
        out = tmp_path / "out"
        for name in ("sweep.json", "candidate.csv", "energies.csv", "residuals.csv"):
            assert (out / name).exists()
        doc = json.loads((out / "sweep.json").read_text())
        assert [rec["m"] for rec in doc["records"]] == list(sm.solver.EXPONENTS)
        assert [rec["stop_reason"] for rec in doc["records"]] == ["max_iters"] * 10
        assert doc["aborted"] is False
        err = capsys.readouterr().err.splitlines()
        assert err == [f"solve: m={m} stopped at max_iters" for m in sm.solver.EXPONENTS]

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, schedule={"m_strt": 2})
        assert cli.main(["solve", cfg]) == 1

    @pytest.mark.parametrize("section, body, message", [
        ("solve", {"min_step": 1e-30}, "solve.min_step: unknown field"),
        ("audit", {"seed": 1}, "audit.seed: unknown field"),
        ("check", {"seed": 1}, "check.seed: unknown field"),
        ("schedule", {"restarts": 2.5}, "schedule.restarts: expected int"),
        ("check", {"num_triples": 0}, "check: sample plan needs"),
        ("solve", {"history": 5}, "solve.history: unknown field"),
        ("schedule", {"factor": 4}, "schedule.factor: unknown field"),
        ("solve", {"grad_tol": 1e-8}, "solve.grad_tol: unknown field"),
        ("schedule", {"tol_sweep": 1e-4}, "schedule.tol_sweep: unknown field"),
        ("lagrangian", {"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0],
                        "growth": {"C1": 1.0, "C2": float("nan"), "C3": 0.0, "q": 2.0, "r": 2.0}},
         "lagrangian.growth.C2: expected a finite number"),
        ("lagrangian", {"kind": "power_norm", "exponent": float("nan"), "offset": [0.0, 0.0]},
         "lagrangian.exponent: expected a finite number"),
        ("lagrangian", {"kind": "min_norms", "centers": [[1.0, 0.0]], "exponent": -1.0},
         "lagrangian: exponent must be positive"),
        # the grid is built with the config: a domain too narrow for its nodes fails there
        ("domain", [0.0, 5e-323], "domain: grid nodes must be strictly increasing"),
        # a sampling box whose width overflows fails before numpy samples it
        ("check", {"box": {"p": [-1e308, 1e308]}},
         "check.box: box ranges need lo <= hi and a finite width hi - lo"),
        # the top-level fields' own range and length checks
        ("N", 0, "N: N >= 1 required"),
        ("grid_points", 2, "grid_points: grid_points >= 3 required"),
        ("seed", -1, "seed: seed must be nonnegative"),
        ("boundary", {"b0": [0.0], "b1": [1.0, 0.0]}, "boundary.b0: length must equal N = 2"),
        # the DA jet's constant blocks are checked once, when the model is built
        ("lagrangian", dict(da_lagrangian(), K=[[1e200, 0.0]]),
         "lagrangian: K and A are too large: 2 K^T K + 2 A^T A overflows"),
        # the audit's tolerance and least subinterval, the check's mixes per
        # segment and the sweep's exponents are constants, not settings
        ("audit", {"tol_audit": 1e-3}, "audit.tol_audit: unknown field"),
        ("audit", {"min_elements": 3}, "audit.min_elements: unknown field"),
        ("check", {"t_levels": 5}, "check.t_levels: unknown field"),
        ("schedule", {"m_max": 1024}, "schedule.m_max: unknown field"),
        # the box samples x over the domain, so x is not a setting
        ("check", {"box": {"x": [0.0, 1.0]}}, "check.box.x: unknown field"),
        # a pair is two numbers, whatever N is
        ("domain", [0.0, 0.5, 1.0], "domain: expected two numbers [lo, hi]"),
        ("check", {"box": {"p": [-1.0, 0.0, 1.0]}}, "check.box.p: expected two numbers [lo, hi]"),
    ])
    def test_section_fields(self, tmp_path, capsys, section, body, message):
        cfg = write_config(tmp_path, **{section: body})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["solve", cfg]) == 1
        assert message in capsys.readouterr().err
        assert caught == []

    @pytest.mark.parametrize("overrides, message", [
        ({"domain": ["0", "1"]}, "domain: expected an array of numbers"),
        ({"lagrangian": {"kind": "power_norm", "exponent": 2.0, "offset": [True, False]}},
         "lagrangian.offset: expected an array of numbers"),
        ({"boundary": {"b0": [0.0, 0.0], "b1": [True, 0.0]}},
         "boundary.b1: expected an array of numbers"),
        ({"check": {"box": {"p": ["-1", "1"]}}}, "check.box.p: expected an array of numbers"),
        ({"lagrangian": dict(da_lagrangian(), K=[["1", "0"]])},
         "lagrangian.K: expected a matrix of numbers"),
        ({"lagrangian": {"kind": "power_norm", "exponent": 2.0, "offset": [10**400, 0]}},
         "lagrangian.offset: expected a finite 1-d array"),
    ], ids=["domain_strings", "offset_bools", "boundary_bool", "box_strings", "K_strings",
            "offset_beyond_double"])
    def test_array_entries_follow_the_scalar_rule(self, tmp_path, capsys, overrides, message):
        """A number inside an array is read as a scalar float field is: a JSON
        number, not a bool or a string, finite and within a double's range."""
        cfg = write_config(tmp_path, **overrides)
        for command in ("solve", "check"):
            assert cli.main([command, cfg]) == 1
            assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "out").exists()

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
        # a flat list where a model wants a matrix, a nested one where it wants a vector
        (dict(da_lagrangian(), K=[0.0, 0.0]), "lagrangian: K must be a finite matrix"),
        (dict(da_lagrangian(), A=[0.0, 0.0]), "lagrangian: A must be a finite matrix"),
        (dict(RADIAL, A=[0.0, 1.0]), "lagrangian: A must be a finite matrix"),
        (dict(MIN_NORMS, centers=[1.0, 0.0]), "lagrangian: centers must be a finite matrix"),
        (dict(POWER_NORM, offset=[[0.0, 0.0]]), "lagrangian: offset must be a finite vector"),
        # a flat or empty list where a signal wants [x, value...] rows
        (dict(da_lagrangian(), k=[0.0, 1.0]), "lagrangian.k: signal rows must be a finite matrix"),
        (dict(da_lagrangian(), c=[]), "lagrangian.c: signal rows must be a finite matrix"),
    ])
    def test_malformed_model_rejected(self, tmp_path, capsys, lagrangian, message):
        """Fields of a model that disagree in rank or shape, or a model
        dimension that differs from N, fail at config time with the model's
        own rule."""
        cfg = write_config(tmp_path, lagrangian=lagrangian)
        assert cli.main(["solve", cfg]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lagrangian, message", LAGRANGIAN_MESSAGES)
    def test_lagrangian_field_messages(self, tmp_path, capsys, lagrangian, message):
        """Each model kind reports a required field left out, an unknown
        field, a value of the wrong type and an unknown kind on one line at
        the field, from solve and check alike, and writes nothing."""
        cfg = write_config(tmp_path, lagrangian=lagrangian)
        for command in ("solve", "check"):
            assert cli.main([command, cfg]) == 1
            assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "out").exists()

    def test_optional_model_fields_keep_constructor_defaults(self, tmp_path):
        """min_norms' exponent and a radial profile's beta and gamma, left
        out, are 1, 0 and 1."""
        model = cli.load_config(write_config(tmp_path, lagrangian=without(MIN_NORMS, "exponent"))).model
        assert model.exponent == 1.0
        t = np.linspace(0.0, 3.0, 7)
        for name in ("shift", "power"):
            profile = cli.load_config(write_config(
                tmp_path, lagrangian=dict(RADIAL, profile={"name": name}))).model.profile
            assert np.array_equal(profile.f(t), t)
            assert np.array_equal(np.broadcast_to(profile.df(t), t.shape), np.ones_like(t))

    @pytest.mark.parametrize("overrides, once, twice", [
        ({}, '"grid_points": 65', '"grid_points": 65, "grid_points": 9'),
        ({"schedule": {"restarts": 2}}, '"restarts": 2', '"restarts": 2, "restarts": 1'),
        ({"lagrangian": RADIAL}, '"gamma": 1.5', '"gamma": 1.5, "gamma": 3.0'),
    ], ids=["top_level", "section", "radial_profile"])
    def test_repeated_key_rejected(self, tmp_path, capsys, overrides, once, twice):
        """A key given twice in one object, at any depth, is an error, not
        its last value."""
        cfg = write_config(tmp_path, **overrides)
        text = Path(cfg).read_text()
        assert text.count(once) == 1
        Path(cfg).write_text(text.replace(once, twice))
        key = once.split('"')[1]
        for command in ("solve", "check"):
            assert cli.main([command, cfg]) == 1
            assert capsys.readouterr().err == f"{cfg}: repeated key '{key}'\n"
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
        assert doc["restart_sups"] == [2.0000000000000004, 1.0625000000009215,
                                       1.0000000000000333, 1.000000000000023]
        assert doc["tied_candidate_csvs"] == ["candidate_tie_1.csv"]
        config = cli.load_config(cfg)
        sup = doc["sup_of_candidate"]
        tol = sm.solver.TIE_TOL * (1.0 + sup)
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

    @pytest.mark.parametrize("name, text, message", [
        ("array.json", "[1, 2]", "config must be a JSON object"),
        ("missing.json", None, "No such file or directory"),
    ], ids=["top_level_array", "missing_file"])
    def test_unusable_config_file(self, tmp_path, capsys, name, text, message):
        """A config file that is missing, or whose top level is not a JSON
        object, exits 1 with one stderr line naming the file."""
        f = tmp_path / name
        if text is not None:
            f.write_text(text)
        for command in ("solve", "audit", "check"):
            assert cli.main([command, str(f)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"{f}: ") and message in err and err.count("\n") == 1

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
        """The min-of-norms zigzag, whose first component alternates slopes
        +-1, has sup 1; the local sweeps from its chords, one restart each,
        converge to sups of 1.44 to 2, above the restricted candidate's 1.
        They decide no subinterval: the audit writes its report but does not
        claim a clean pass."""
        cfg = write_config(tmp_path, lagrangian=MIN_NORMS, grid_points=17,
                          boundary={"b0": [0.0, 0.0], "b1": [0.0, 1.0]},
                          audit={"num_subintervals": 6}, seed=2)
        out = tmp_path / "out"
        out.mkdir()
        grid = sm.Grid.uniform(0.0, 1.0, 17)
        zigzag = np.column_stack([(np.arange(17) % 2) * grid.nodes[1], grid.nodes])
        sm.Path(grid, zigzag).to_csv(str(out / "candidate.csv"))
        assert cli.main(["audit", cfg]) == 2
        captured = capsys.readouterr()
        doc = json.loads((out / "audit.json").read_text())
        statuses = {entry["status"] for entry in doc["subintervals"]}
        assert statuses == {"inconclusive"} and doc["violation_count"] == 0
        for entry in doc["subintervals"]:
            assert entry["sup_global_restricted"] == 1.0 < entry["sup_local_solution"]
            assert entry["error"].endswith("the local min-max was not found")
        assert (f"audit: no conclusive subinterval among {doc['num_subintervals']}"
                in captured.err)
        assert "no violations" not in captured.out

    def test_solve_first_stops_at_an_unconverged_solve(self, tmp_path, capsys):
        """``--solve-first`` whose solve stops at ``max_iters`` exits 2 with
        the solve's artifacts and audits nothing."""
        cfg = one_iteration_config(tmp_path)
        assert cli.main(["audit", cfg, "--solve-first"]) == 2
        out = tmp_path / "out"
        assert (out / "sweep.json").exists() and (out / "candidate.csv").exists()
        assert not (out / "audit.json").exists()
        assert "solve: m=2 stopped at max_iters" in capsys.readouterr().err

    def test_min_elements_beyond_grid_rejected_before_solving(self, tmp_path, capsys):
        """``min_elements`` is no setting: the audit's least subinterval is
        the constant ``audit.MIN_ELEMENTS``."""
        cfg = write_config(tmp_path, grid_points=5, audit={"min_elements": 10})
        assert cli.main(["audit", cfg, "--solve-first"]) == 1
        assert capsys.readouterr().err == "audit.min_elements: unknown field\n"
        assert not (tmp_path / "out").exists()

    def test_three_node_grid_rejected_by_audit_alone(self, tmp_path, capsys):
        """The audit's least subinterval (3 elements) exceeds the 2 elements
        of a 3-node grid, which only the audit needs: solve and check run,
        and the audit fails before solving."""
        cfg = write_config(tmp_path, grid_points=3)
        assert cli.main(["solve", cfg]) == 0
        assert cli.main(["check", cfg]) == 0
        capsys.readouterr()
        fresh = tmp_path / "audit-out"
        assert cli.main(["audit", cfg, "--solve-first", "--output-dir", str(fresh)]) == 1
        assert capsys.readouterr().err == "grid_points: the audit needs grid_points >= 4\n"
        assert not fresh.exists()

    def test_one_element_minimum_rejected_at_config_time(self, tmp_path, capsys):
        """A config that sets the audit's least subinterval fails as it is
        read, also where the command is not ``audit``."""
        cfg = write_config(tmp_path, audit={"min_elements": 1})
        assert cli.main(["solve", cfg]) == 1
        assert capsys.readouterr().err == "audit.min_elements: unknown field\n"
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

    def test_candidate_without_header_names_the_file(self, tmp_path, capsys):
        """A candidate CSV whose first line is not an ``x,...`` header is
        refused before any model call, naming the file."""
        cfg = write_config(tmp_path, grid_points=5)
        out = tmp_path / "out"
        out.mkdir()
        csv = out / "candidate.csv"
        csv.write_text("".join(f"{k / 4!r},0.0,0.0\n" for k in range(5)))
        assert cli.main(["audit", cfg]) == 1
        assert capsys.readouterr().err == (
            f"audit: {csv}: path CSV must start with header 'x,u1,...'\n")
        assert not (out / "audit.json").exists()

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
                                   seed=config.seed, schedule=config.schedule,
                                   options=config.solve)
        in_memory = sm.audit_absolute_minimality(config.model, candidate, audit_cfg)
        on_disk = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert json.loads(cli.dumps_canonical(in_memory.to_json_dict())) == on_disk


class TestUnusablePaths:
    @pytest.mark.parametrize("command, target", [
        (["solve"], "file"), (["solve"], "under-file"),
        (["check"], "file"), (["check"], "under-file"),
        (["audit", "--solve-first"], "file"), (["audit"], "candidate-dir"),
    ], ids=["solve-file", "solve-under-file", "check-file", "check-under-file",
            "audit-file", "audit-candidate-dir"])
    def test_one_line_and_exit_1(self, tmp_path, capsys, command, target):
        """An output directory that is a file or lies under one, or a
        candidate.csv that is a directory, is reported on one stderr line."""
        cfg = write_config(tmp_path, grid_points=9)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = {"file": blocker, "under-file": blocker / "out",
               "candidate-dir": tmp_path / "out"}[target]
        (tmp_path / "out" / "candidate.csv").mkdir(parents=True)
        assert cli.main([*command, cfg, "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(str(out))


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

    def test_zero_coefficient_bound_fails_where_the_power_overflows(self, tmp_path, capsys):
        """The upper bound 0 * |p|^3 claims L <= 0; at |p| ~ 1e150 the power
        overflows, and the bound stays 0, so all 50 samples are witnesses."""
        lag = {"kind": "power_norm", "exponent": 2.0, "offset": [0.0, 0.0],
               "growth": {"C1": 0, "C2": 0, "C3": 0, "q": 1, "r": 3, "h_bound": 0}}
        cfg = write_config(tmp_path, lagrangian=lag,
                           check={"box": {"p": [1e150, 2e150]}, "num_triples": 50})
        assert cli.main(["check", cfg]) == 4
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "out" / "hypotheses.json").read_text())["growth_bounds"]
        assert doc["witness_count"] == 50 and doc["worst_margins"]["upper"] is not None

    def test_overflowing_da_sample_is_one_stderr_line(self, tmp_path, capsys):
        """A data-assimilation model that overflows in the check box reports
        its NonFinite on one stderr line, with no floating-point warning."""
        cfg = write_config(tmp_path, lagrangian=da_lagrangian(),
                           check={"box": {"p": [-1e160, 1e160]}})
        assert cli.main(["check", cfg]) == 2
        err = capsys.readouterr().err
        assert err == "check: level_convexity: Lagrangian evaluation is not finite\n"

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

    def test_canonical_text_is_pinned(self):
        """The exact text of every kind of value an artifact holds: a
        round trip through a JSON reader cannot see a change of format."""
        doc = {
            "floats": [0.1, -0.0, float("nan"), float("inf"), -float("inf"),
                       np.float64(0.1), np.float64("-inf"), np.float32(0.1)],
            "ints": [1, np.int64(-7)],
            "flags": [True, False, np.bool_(True), np.bool_(False)],
            "none": None,
            "text": 'é "quoted" back\\slash\nnewline',
            "tuple": (1, 2.5),
            "array": np.array([[1.0, 2.0], [3.0, 0.5]]),
            "nested": {"empty_list": [], "empty_dict": {}},
        }
        assert cli.dumps_canonical(doc) == "\n".join([
            '{',
            '  "floats": [',
            '    0.10000000000000001,',
            '    -0,',
            '    null,',
            '    null,',
            '    null,',
            '    0.10000000000000001,',
            '    null,',
            '    0.10000000149011612',
            '  ],',
            '  "ints": [',
            '    1,',
            '    -7',
            '  ],',
            '  "flags": [',
            '    true,',
            '    false,',
            '    true,',
            '    false',
            '  ],',
            '  "none": null,',
            '  "text": "é \\"quoted\\" back\\\\slash\\nnewline",',
            '  "tuple": [',
            '    1,',
            '    2.5',
            '  ],',
            '  "array": [',
            '    [',
            '      1,',
            '      2',
            '    ],',
            '    [',
            '      3,',
            '      0.5',
            '    ]',
            '  ],',
            '  "nested": {',
            '    "empty_list": [],',
            '    "empty_dict": {}',
            '  }',
            '}',
            '',
        ])
        with pytest.raises(TypeError, match="set"):
            cli.dumps_canonical({"nested": [{1}]})


def drift_c():
    return [[i / 8, math.sin(2 * math.pi * (i / 8)), math.cos(3 * (i / 8))] for i in range(9)]


# The benchmark's four workloads at benchmark seed 0, copied from their
# definition so that a change to either shows here.
TRAFFIC_CONFIGS = {
    "da-rot": {
        "lagrangian": {"kind": "data_assimilation", "K": [[1.0, 0.0]],
                       "k": [[0.0, 0.5], [0.5, -0.3], [1.0, 0.2]],
                       "A": [[0.0, 1.0], [-1.0, 0.0]],
                       "c": [[0.0, 1.0, 0.0], [0.5, 0.0, 2.0], [1.0, 1.0, 0.0]]},
        "domain": [0.0, 1.0], "N": 2, "grid_points": 17,
        "boundary": {"b0": [0.0, 0.0], "b1": [1.0, 1.0]},
        "solve": {"max_iters": 400}, "seed": 42,
    },
    "drift-65": {
        "lagrangian": {"kind": "data_assimilation", "K": [[0.0, 0.0]],
                       "k": [[0.0, 0.0], [1.0, 0.0]],
                       "A": [[0.0, 0.0], [0.0, 0.0]], "c": drift_c()},
        "domain": [0.0, 1.0], "N": 2, "grid_points": 65,
        "boundary": {"b0": [0.0, 0.0], "b1": [1.0, -0.5]}, "seed": 7,
    },
    "audit-drift": {
        "lagrangian": {"kind": "data_assimilation", "K": [[0.0, 0.0]],
                       "k": [[0.0, 0.0], [1.0, 0.0]],
                       "A": [[0.0, 0.0], [0.0, 0.0]], "c": drift_c()},
        "domain": [0.0, 1.0], "N": 2, "grid_points": 33,
        "boundary": {"b0": [0.0, 0.0], "b1": [1.0, -0.5]},
        "solve": {"max_iters": 400}, "seed": 7,
    },
    "min-norms": {
        "lagrangian": {"kind": "min_norms", "centers": [[1.0, 0.0], [-1.0, 0.0]],
                       "exponent": 2.0,
                       "growth": {"C1": 0.5, "C2": 1.0, "C3": 2.0, "q": 2.0, "r": 2.0,
                                  "h_bound": 2.0}},
        "domain": [0.0, 1.0], "N": 2, "grid_points": 17,
        "boundary": {"b0": [0.0, 0.0], "b1": [0.0, 1.0]},
        "schedule": {"restarts": 3}, "check": {"num_triples": 20000}, "seed": 3,
    },
}


class TestModelTraffic:
    @pytest.mark.parametrize("workload, command, code, evals, jets, totals", [
        ("da-rot", ["solve"], 0, (36, 576), (37, 591), (26, 36, 36)),
        ("drift-65", ["solve"], 0, (8, 512), (9, 575), (6, 8, 8)),
        ("audit-drift", ["solve"], 0, (8, 256), (9, 287), (6, 8, 8)),
        ("audit-drift", ["solve", "audit"], 0, (11, 1339), (9, 1296), (86, 125, 124)),
        ("min-norms", ["solve"], 0, (20, 608), (14, 463), (22, 38, 28)),
        ("min-norms", ["solve", "check"], 4, (40, 160000), (0, 0), None),
    ])
    def test_benchmark_configs(self, tmp_path, monkeypatch, workload, command, code, evals,
                               jets, totals):
        """The exit code, solve totals and model calls and rows of the last of
        ``command`` on a benchmark config.  ``eval_many`` would count the
        calls of a finite-difference jet; every built-in model of these
        configs has a closed-form one."""
        calls = {}
        parse = cli.parse_config

        def counted(raw):
            config = parse(raw)
            for name in ("eval_many", "jet_many"):
                method, calls[name] = getattr(config.model, name), []

                def wrapped(xs, *rest, method=method, log=calls[name]):
                    log.append(len(xs))
                    return method(xs, *rest)

                setattr(config.model, name, wrapped)
            return config

        monkeypatch.setattr(cli, "parse_config", counted)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(TRAFFIC_CONFIGS[workload], output_dir=str(tmp_path))))
        for name in command:
            status = cli.main([name, str(cfg)])
        assert status == code
        assert (len(calls["eval_many"]), sum(calls["eval_many"])) == evals
        assert (len(calls["jet_many"]), sum(calls["jet_many"])) == jets
        if totals is not None:
            artifact = "audit.json" if command[-1] == "audit" else "sweep.json"
            doc = json.loads((tmp_path / artifact).read_text())
            assert doc["solve_totals"] == dict(zip(("iterations", "f_evals", "g_evals"), totals))


def test_min_norms_benchmark_config_finds_the_zigzag_bound(tmp_path):
    """The min-norms benchmark config's candidate attains the zigzag's
    sup 1 within 1e-13; with finite-difference jets it stopped 9.6e-12
    above it."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TRAFFIC_CONFIGS["min-norms"], output_dir=str(tmp_path))))
    assert cli.main(["solve", str(cfg)]) == 0
    sup = json.loads((tmp_path / "sweep.json").read_text())["sup_of_candidate"]
    assert abs(sup - 1.0) <= 1e-13


def test_da_rot_restarts_audit_decides_every_entry(tmp_path):
    """The CI's DA-rot audit at 65 nodes, 3 restarts and 16 subintervals:
    a local sweep stops only once its roots agree to round-off, so none
    ends short of its local min-max and every entry is decided."""
    config = {key: value for key, value in TRAFFIC_CONFIGS["da-rot"].items() if key != "solve"}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(config, grid_points=65, schedule={"restarts": 3},
                                   audit={"num_subintervals": 16}, output_dir=str(tmp_path))))
    assert cli.main(["audit", str(cfg), "--solve-first"]) == 0
    doc = json.loads((tmp_path / "audit.json").read_text())
    assert doc["num_subintervals"] == 16
    assert [e["status"] for e in doc["subintervals"]] == ["ok"] * 16


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
