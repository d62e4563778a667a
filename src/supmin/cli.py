"""Batch front-end: solve / audit / check pipelines driven by a JSON config.

Artifacts are CSV for paths and profiles, JSON for structured reports; both
are byte-deterministic for a fixed config and seed.  Exit codes: 0 ok,
1 config error (or an output directory or candidate path that cannot be
used), 2 solver failure (or a check sample the model cannot evaluate, or an
audit with no conclusive subinterval), 3 audit violation, 4 hypothesis
witness.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import get_type_hints

import numpy as np

from ._io import dumps_canonical, fmt_float, write_csv
from .errors import ConfigError, NonFinite, SupminError
from .lagrangian import (
    Box,
    DataAssimilationModel,
    GrowthParams,
    LagrangianModel,
    MinOfNormsModel,
    PowerNormModel,
    RadialModel,
    RadialProfile,
    SampledSignal,
    SamplePlan,
    check_growth_bounds,
    check_level_convexity,
    radial_profile,
)
from .options import AuditConfig, SolveOptions, SweepSchedule
from .path import AffineMap, Grid, Path

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_AUDIT = 3
EXIT_HYPOTHESIS = 4


@dataclass
class RunConfig:
    model: LagrangianModel
    growth: GrowthParams | None  # the bounds ``check`` samples, if the config sets them
    grid: Grid
    boundary: AffineMap
    schedule: SweepSchedule
    solve: SolveOptions
    audit: AuditConfig
    plan: SamplePlan
    seed: int
    output_dir: str


def _reject_unknown(obj: dict, path: str, allowed: set):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _get(obj: dict, path: str, key: str, kind, required=True, default=None):
    name = f"{path}.{key}" if path else key
    if key not in obj:
        if required:
            raise ConfigError(name, "required field missing")
        return default
    val = obj[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        if not abs(val) <= sys.float_info.max:  # NaN, infinities, ints beyond a double
            raise ConfigError(name, "expected a finite number")
        return float(val)
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return int(val)
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigError(name, f"expected {getattr(kind, '__name__', str(kind))}")
    return val


def _build(path: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, its ``SupminError`` a ``ConfigError`` at ``path``."""
    try:
        return cls(*args, **kwargs)
    except SupminError as exc:
        raise ConfigError(path, str(exc)) from None


def _array(obj, path: str, length: int | None = None) -> np.ndarray:
    """``obj`` as floats, each entry held to ``_get``'s rule for a float field:
    an array of ``length`` entries if that is given, else a matrix of equal
    rows if ``obj`` is a list of lists and an array if not."""
    matrix = (length is None and isinstance(obj, list) and len(obj) > 0
              and all(isinstance(row, list) for row in obj))
    rows = obj if matrix else [obj]
    if not (isinstance(obj, list) and len({len(row) for row in rows}) <= 1
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for row in rows for v in row)):
        raise ConfigError(path, f"expected {'a matrix' if matrix else 'an array'} of numbers")
    if not all(abs(v) <= sys.float_info.max for row in rows for v in row):
        raise ConfigError(path, f"expected a finite {2 if matrix else 1}-d array")
    if length is not None and len(obj) != length:
        raise ConfigError(path, f"length must equal N = {length}")
    return np.array(obj, dtype=float)


def _growth(obj: dict | None, path: str) -> GrowthParams | None:
    if obj is None:
        return None
    _reject_unknown(obj, path, {"C1", "C2", "C3", "q", "r", "h_bound"})
    required = [_get(obj, path, key, float) for key in ("C1", "C2", "C3", "q", "r")]
    h_bound = {"h_bound": _get(obj, path, "h_bound", float)} if "h_bound" in obj else {}
    return _build(path, GrowthParams, *required, **h_bound)


# how a field is read by its annotation (None: unannotated), as a JSON type
# and a reader of a value of that type; any other annotation by ``_get``'s rule
_READERS = {
    None: (list, _array),
    SampledSignal: (list, lambda rows, path: _build(path, SampledSignal.from_rows,
                                                    _array(rows, path))),
    RadialProfile: (dict, lambda obj, path: _call(obj, path, radial_profile)),
}

# the constructor of each ``lagrangian.kind``
_MODELS = {"power_norm": PowerNormModel, "data_assimilation": DataAssimilationModel,
           "radial": RadialModel, "min_norms": MinOfNormsModel}


def _call(obj: dict, path: str, fn, nested: tuple = (), **fixed):
    """``fn`` called with the fields of the config section ``obj`` at ``path``.

    The section may set every parameter of ``fn`` but those that ``fixed``
    fills, and must set those without a default; the others keep their
    defaults.  Each is read by its annotation (``_READERS``).  Keys in
    ``nested`` are allowed but read by the caller.
    """
    params = inspect.signature(fn).parameters
    keys = [key for key in params if key not in fixed]
    _reject_unknown(obj, path, set(keys) | set(nested))
    hints = get_type_hints(fn.__init__ if isinstance(fn, type) else fn)
    values = {}
    for key in keys:
        if key in obj or params[key].default is params[key].empty:  # else it keeps its default
            kind, read = _READERS.get(hints.get(key), (hints.get(key), None))
            value = _get(obj, path, key, kind)
            values[key] = read(value, f"{path}.{key}") if read else value
    return _build(path, fn, **values, **fixed)


def parse_config(raw: dict) -> RunConfig:
    allowed = {"lagrangian", "domain", "N", "grid_points", "boundary", "schedule",
               "solve", "audit", "check", "seed", "output_dir"}
    _reject_unknown(raw, "", allowed)

    def section(name: str) -> dict:
        return _get(raw, "", name, dict, required=False, default={})

    domain = _array(_get(raw, "", "domain", list), "domain", 2)
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise ConfigError("domain", "a < b required")
    if not np.isfinite(b - a):
        raise ConfigError("domain", "b - a must be finite")
    dim = _get(raw, "", "N", int)
    if dim < 1:
        raise ConfigError("N", "N >= 1 required")
    grid_points = _get(raw, "", "grid_points", int)
    if grid_points < 3:
        raise ConfigError("grid_points", "grid_points >= 3 required")
    grid = _build("domain", Grid.uniform, a, b, grid_points)

    boundary_obj = _get(raw, "", "boundary", dict)
    _reject_unknown(boundary_obj, "boundary", {"b0", "b1"})
    b0 = _array(_get(boundary_obj, "boundary", "b0", list), "boundary.b0", dim)
    b1 = _array(_get(boundary_obj, "boundary", "b1", list), "boundary.b1", dim)

    # the rank and shape of the model's fields are its constructor's rule
    model_obj = _get(raw, "", "lagrangian", dict)
    kind = _get(model_obj, "lagrangian", "kind", str)
    growth = _growth(_get(model_obj, "lagrangian", "growth", dict, required=False),
                     "lagrangian.growth")
    if kind not in _MODELS:
        raise ConfigError("lagrangian.kind", f"unknown model kind '{kind}'")
    model = _call(model_obj, "lagrangian", _MODELS[kind], ("kind", "growth"))
    if model.dim != dim:
        raise ConfigError("lagrangian", f"model dimension {model.dim} differs from N = {dim}")

    schedule = _call(section("schedule"), "schedule", SweepSchedule)
    solve = _call(section("solve"), "solve", SolveOptions)

    seed = _get(raw, "", "seed", int, required=False, default=0)
    if seed < 0:
        raise ConfigError("seed", "seed must be nonnegative")

    audit = _call(section("audit"), "audit", AuditConfig, seed=seed, schedule=schedule,
                  options=solve)

    check_obj = section("check")
    box_obj = _get(check_obj, "check", "box", dict, required=False, default={})
    _reject_unknown(box_obj, "check.box", {"x", "eta", "p"})
    ranges = {key: tuple(_array(val, f"check.box.{key}", 2).tolist())
              for key, val in box_obj.items()}
    box = _build("check", Box, **{"x": (a, b), **ranges})
    plan = _call(check_obj, "check", SamplePlan, ("box",), box=box, seed=seed)

    output_dir = _get(raw, "", "output_dir", str)
    return RunConfig(model, growth, grid, AffineMap(b0, b1),
                     schedule, solve, audit, plan, seed, output_dir)


def _unique_keys(pairs: list, config_path: str) -> dict:
    """The pairs of a JSON object as a dict; a key given twice is an error,
    not its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(config_path, f"repeated key '{key}'")
        obj[key] = value
    return obj


def load_config(config_path: str) -> RunConfig:
    try:
        with open(config_path) as fh:
            raw = json.load(fh, object_pairs_hook=lambda pairs: _unique_keys(pairs, config_path))
    except OSError as exc:
        raise ConfigError(config_path, str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    if not isinstance(raw, dict):
        raise ConfigError(config_path, "config must be a JSON object")
    return parse_config(raw)


# -- subcommands ---------------------------------------------------------------


# The pipelines import their modules at their first call, so that loading a
# config loads no solver.  They stay names of this module, where a caller can
# wrap them (``perfbench/tracing.py`` does).
def m_sweep(*args, **kwargs):
    from .solver import m_sweep
    return m_sweep(*args, **kwargs)


def residual_profile(*args, **kwargs):
    from .aronsson import residual_profile
    return residual_profile(*args, **kwargs)


def audit_absolute_minimality(*args, **kwargs):
    from .audit import audit_absolute_minimality
    return audit_absolute_minimality(*args, **kwargs)


# the ``SolveStats`` of a sweep.json record in order, ``objective`` as its normalized root
_RECORD_STATS = ("objective", "iterations", "stop_reason", "converged", "grad_norm", "f_evals",
                 "g_evals")


def run_solve(config: RunConfig, output_dir: FsPath) -> int:
    from .aronsson import ResidualProfile

    out = FsPath(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "paths").mkdir(exist_ok=True)
    sweep = m_sweep(config.model, config.grid, config.boundary, config.schedule,
                    config.solve, seed=config.seed)

    records_json = []
    for rec in sweep.records:
        ref = f"paths/m_{rec.m:06d}.csv"
        rec.path.to_csv(out / ref)
        stats = {key: getattr(rec.stats, key) for key in _RECORD_STATS}
        records_json.append({"m": rec.m, "normalized_root": stats.pop("objective"), **stats,
                             "path_csv": ref})
    sweep.candidate.to_csv(out / "candidate.csv")
    write_csv(out / "energies.csv", ["m", "normalized_root"],
              ([rec.m, rec.stats.objective] for rec in sweep.records))

    residuals_error = None
    if sweep.candidate.grid.num_elements < 4 or sweep.aborted:
        residuals_error = "residual profile unavailable"
    else:
        try:
            residual_profile(config.model, sweep.candidate).to_csv(out / "residuals.csv")
        except SupminError as exc:
            residuals_error = str(exc)
    if residuals_error is not None:
        empty = ResidualProfile(np.empty(0), np.empty((0, config.model.dim)), np.empty(0))
        empty.to_csv(out / "residuals.csv")

    tied_refs = []
    for idx, tied in enumerate(sweep.tied_candidates, start=1):
        ref = f"candidate_tie_{idx}.csv"
        tied.to_csv(out / ref)
        tied_refs.append(ref)

    doc = {
        "domain": [config.grid.a, config.grid.b],
        "n": config.model.dim,
        "grid_points": config.grid.nodes.size,
        "seed": config.seed,
        "records": records_json,
        "c_sequence": sweep.c_sequence,
        "sup_of_candidate": sweep.sup_of_candidate,
        "candidate_csv": "candidate.csv",
        "stop_reason": sweep.stop_reason,
        "aborted": sweep.aborted,
        "error": sweep.error,
        "residuals_error": residuals_error,
        "restart_sups": sweep.restart_sups,
        "solve_totals": sweep.solve_totals,
        "tied_candidate_csvs": tied_refs,
    }
    with open(out / "sweep.json", "w", newline="\n") as fh:
        fh.write(dumps_canonical(doc))

    if sweep.aborted:
        print(f"solver failure: {sweep.error}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"solve: {len(sweep.records)} exponents, "
          f"sup_of_candidate = {fmt_float(sweep.sup_of_candidate)}")
    short = [rec for rec in sweep.records if not rec.stats.converged]
    for rec in short:
        print(f"solve: m={rec.m} stopped at {rec.stats.stop_reason}", file=sys.stderr)
    return EXIT_SOLVER if short else EXIT_OK


def _candidate_mismatch(config: RunConfig, candidate: Path) -> str | None:
    """Why a candidate does not fit the config's grid, dimension and boundary
    values (within round-off), or None."""
    a, b, nodes = config.grid.a, config.grid.b, config.grid.nodes
    if candidate.dim != config.model.dim:
        return f"has {candidate.dim} value column(s), the config has N = {config.model.dim}"
    if (candidate.grid.nodes.size != nodes.size
            or np.max(np.abs(candidate.grid.nodes - nodes)) > 1e-12 * (b - a)):
        return (f"nodes differ from the config's uniform grid of {nodes.size} "
                f"nodes on [{fmt_float(a)}, {fmt_float(b)}]")
    ends = np.array([config.boundary(a), config.boundary(b)])
    if np.max(np.abs(candidate.values[[0, -1]] - ends)) > 1e-12 * (1.0 + np.max(np.abs(ends))):
        return "end values differ from the config's boundary values"
    return None


def run_audit(config: RunConfig, output_dir: FsPath, solve_first: bool = False) -> int:
    if config.audit.min_elements > config.grid.num_elements:
        raise ConfigError("audit.min_elements",
                          f"exceeds the {config.grid.num_elements} elements of the grid")
    out = FsPath(output_dir)
    candidate_csv = out / "candidate.csv"
    if solve_first:
        code = run_solve(config, out)
        if code != EXIT_OK:
            return code
    if not candidate_csv.exists():
        print(f"audit: {candidate_csv} not found (run solve or pass --solve-first)",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        candidate = Path.from_csv(candidate_csv)
        problem = _candidate_mismatch(config, candidate)
    except SupminError as exc:
        problem = str(exc)
    if problem is not None:
        print(f"audit: {candidate_csv}: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    report = audit_absolute_minimality(config.model, candidate, config.audit)
    with open(out / "audit.json", "w", newline="\n") as fh:
        fh.write(dumps_canonical(report.to_json_dict()))
    if report.violations:
        print(f"audit: {len(report.violations)} violation(s), "
              f"max_deficit = {fmt_float(report.max_deficit)}")
        print(f"{'alpha':>12} {'beta':>12} {'restricted':>14} {'local':>14} {'deficit':>14}")
        for i in report.violations:
            e = report.entries[i]
            print(f"{e.alpha:>12.6g} {e.beta:>12.6g} {e.sup_global_restricted:>14.8g} "
                  f"{e.sup_local_solution:>14.8g} {e.deficit:>14.8g}")
        return EXIT_AUDIT
    if not report.passed:
        print(f"audit: no conclusive subinterval among {len(report.entries)}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"audit: no violations over {len(report.entries)} subintervals "
          f"(max_deficit = {fmt_float(report.max_deficit)})")
    return EXIT_OK


def run_check(config: RunConfig, output_dir: FsPath) -> int:
    out = FsPath(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, plan = config.model, config.plan
    checks = [("level_convexity", check_level_convexity, ())]
    if config.growth is not None:
        checks.append(("growth_bounds", check_growth_bounds, (config.growth,)))
    doc = {"level_convexity": None, "growth_bounds": None}
    results, errors = [], []
    for name, check, args in checks:
        try:
            result = check(model, *args, plan)
        except NonFinite as exc:  # a sample the model cannot evaluate
            errors.append(f"{name}: {exc}")
            doc[name] = {"error": str(exc)}
        else:
            results.append(result)
            doc[name] = result.to_json_dict()
    with open(out / "hypotheses.json", "w", newline="\n") as fh:
        fh.write(dumps_canonical(doc))
    for message in errors:
        print(f"check: {message}", file=sys.stderr)
    if errors:
        return EXIT_SOLVER
    if not all(result.passed for result in results):
        n_wit = sum(len(result.witnesses) for result in results)
        print(f"check: {n_wit} witness(es) found")
        return EXIT_HYPOTHESIS
    print("check: hypotheses hold on all samples")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supmin",
        description="Sup-energy path minimization: solve, audit, check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run the exponent sweep and emit candidate artifacts"),
        ("audit", "audit a candidate's absolute minimality on subintervals"),
        ("check", "check level-convexity and growth hypotheses by sampling"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="JSON run configuration")
        p.add_argument("--output-dir", help="override the config's output_dir")
        if name == "audit":
            p.add_argument("--solve-first", action="store_true",
                           help="run solve before auditing in the same invocation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    output_dir = FsPath(args.output_dir or config.output_dir)
    try:
        if args.command == "solve":
            return run_solve(config, output_dir)
        if args.command == "audit":
            return run_audit(config, output_dir, solve_first=args.solve_first)
        return run_check(config, output_dir)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except SupminError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:  # an output directory or candidate path that cannot be used
        print(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc), file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
