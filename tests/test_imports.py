"""What importing supmin loads: the public names resolve on first use, and
reading a config loads no solver."""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import supmin as sm

SRC = Path(__file__).resolve().parents[1] / "src"

# the public names, by the module that defines them
PUBLIC = {
    "aronsson": ["ResidualProfile", "aronsson_operator", "normal_projection", "residual_profile"],
    "audit": ["AuditReport", "EndpointScan", "ScanEntry", "SemicontinuityResult",
              "SubintervalAudit", "audit_absolute_minimality", "build_comparison",
              "endpoint_quotient_scan", "semicontinuity_check", "snap_delta"],
    "energy": ["EnergyReport", "jensen_gap", "power_energy", "power_energy_gradient",
               "sup_energy"],
    "errors": ["ConfigError", "NonFinite", "SupminError"],
    "lagrangian": ["Box", "CheckResult", "CustomModel", "DataAssimilationModel", "GrowthParams",
                   "JetDerivatives", "LagrangianModel", "MinOfNormsModel", "PowerNormModel",
                   "RadialModel", "RadialProfile", "SampledSignal", "SamplePlan", "ScaledModel",
                   "check_growth_bounds", "check_level_convexity", "radial_profile"],
    "options": ["AuditConfig", "SolveOptions", "SweepSchedule"],
    "path": ["AffineMap", "Grid", "Path", "difference_quotient", "eval_and_slope",
             "interpolate_affine"],
    "solver": ["SolveStats", "SweepRecord", "SweepResult", "m_sweep", "minimize_power"],
}

# the drift oracle c13 on 33 nodes, as the benchmark's audit-drift workload runs it
DRIFT_CONFIG = {
    "lagrangian": {"kind": "data_assimilation", "K": [[0.0, 0.0]], "k": [[0.0, 0.0], [1.0, 0.0]],
                   "A": [[0.0, 0.0], [0.0, 0.0]],
                   "c": [[x, math.sin(2 * math.pi * x), math.cos(3 * x)]
                         for x in (i / 8 for i in range(9))]},
    "domain": [0.0, 1.0], "N": 2, "grid_points": 33,
    "boundary": {"b0": [0.0, 0.0], "b1": [1.0, -0.5]},
    "seed": 7, "solve": {"max_iters": 400},
}

# run in a fresh interpreter: load the config, then solve it
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from supmin import cli

def loaded():
    return sorted(name for name in sys.modules if name.startswith("supmin."))

cli.load_config(sys.argv[2])
after_config = loaded()
code = cli.main(["solve", sys.argv[2]])
print(json.dumps({"after_config": after_config, "code": code, "after_solve": loaded()}))
"""


def test_loading_a_config_imports_no_pipeline(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(DRIFT_CONFIG, output_dir=str(tmp_path / "out"))))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(config)],
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    pipelines = {"supmin.solver", "supmin.energy", "supmin.audit", "supmin.aronsson"}
    assert not pipelines & set(seen["after_config"])
    assert seen["code"] == 0
    assert {"supmin.solver", "supmin.energy", "supmin.aronsson"} <= set(seen["after_solve"])
    assert "supmin.audit" not in seen["after_solve"]


def test_public_names_resolve_to_their_home_modules():
    names = [name for module_names in PUBLIC.values() for name in module_names]
    assert sm.__all__ == names
    for module, module_names in PUBLIC.items():
        home = importlib.import_module(f"supmin.{module}")
        for name in module_names:
            assert getattr(sm, name) is getattr(home, name), name
    assert set(names) <= set(dir(sm))
    # the settings still resolve where the pipelines that take them live
    assert sm.solver.SolveOptions is sm.SolveOptions
    assert sm.solver.SweepSchedule is sm.SweepSchedule
    assert sm.audit.AuditConfig is sm.AuditConfig
    with pytest.raises(AttributeError, match="'PathSample'"):
        sm.PathSample
    namespace = {}
    exec("from supmin import *", namespace)
    assert set(names) <= set(namespace)
    assert sm.__version__ == "0.1.0"
