"""Batch front-end: solve / audit / check pipelines driven by a JSON config.

Artifacts are CSV for paths and profiles, JSON for structured reports; both
are byte-deterministic for a fixed config and seed.  Exit codes: 0 ok,
1 config error, 2 solver failure (or a check sample the model cannot
evaluate, or an audit with no conclusive subinterval), 3 audit violation,
4 hypothesis witness.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path as FsPath
from typing import get_type_hints

import numpy as np

from ._io import dumps_canonical, fmt_float, write_csv
from .aronsson import ResidualProfile, residual_profile
from .audit import AuditConfig, audit_absolute_minimality
from .errors import ConfigError, NonFinite, SupminError
from .lagrangian import (
    Box,
    DataAssimilationModel,
    GrowthParams,
    LagrangianModel,
    MinOfNormsModel,
    PowerNormModel,
    RadialModel,
    SampledSignal,
    SamplePlan,
    check_growth_bounds,
    check_level_convexity,
    radial_profile,
)
from .path import AffineMap, Grid, Path
from .solver import SolveOptions, SweepSchedule, m_sweep

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


def _vector(obj, path: str, length: int | None = None) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "expected an array of numbers") from None
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise ConfigError(path, "expected a finite 1-d array")
    if length is not None and arr.size != length:
        raise ConfigError(path, f"length must equal N = {length}")
    return arr


def _matrix(obj, path: str) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "expected a matrix of numbers") from None
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise ConfigError(path, "expected a finite 2-d array")
    return arr


def _signal(obj, path: str) -> SampledSignal:
    return _build(path, SampledSignal.from_rows, _matrix(obj, path))


def _optional(obj: dict, path: str, keys) -> dict:
    """The float fields of ``keys`` that ``obj`` sets; the others keep the
    defaults of the constructor they are passed to."""
    return {key: _get(obj, path, key, float) for key in keys if key in obj}


def _growth(obj: dict | None, path: str) -> GrowthParams | None:
    if obj is None:
        return None
    _reject_unknown(obj, path, {"C1", "C2", "C3", "q", "r", "h_bound"})
    required = [_get(obj, path, key, float) for key in ("C1", "C2", "C3", "q", "r")]
    return _build(path, GrowthParams, *required, **_optional(obj, path, ("h_bound",)))


def _model(obj: dict) -> tuple[LagrangianModel, GrowthParams | None]:
    """The model of the ``lagrangian`` section and the growth bounds of its
    ``growth`` block (None without one).  Each field is read as a number,
    vector or matrix here; whether their shapes agree is the model
    constructor's rule, reported at ``lagrangian``."""
    path = "lagrangian"
    kind = _get(obj, path, "kind", str)
    growth = _growth(_get(obj, path, "growth", dict, required=False), f"{path}.growth")
    if kind == "power_norm":
        _reject_unknown(obj, path, {"kind", "exponent", "offset", "growth"})
        exponent = _get(obj, path, "exponent", float)
        offset = _vector(_get(obj, path, "offset", list), f"{path}.offset")
        return _build(path, PowerNormModel, exponent, offset), growth
    if kind == "data_assimilation":
        _reject_unknown(obj, path, {"kind", "K", "k", "A", "c", "growth"})
        K = _matrix(_get(obj, path, "K", list), f"{path}.K")
        A = _matrix(_get(obj, path, "A", list), f"{path}.A")
        k = _signal(_get(obj, path, "k", list), f"{path}.k")
        c = _signal(_get(obj, path, "c", list), f"{path}.c")
        return _build(path, DataAssimilationModel, K, k, A, c), growth
    if kind == "radial":
        _reject_unknown(obj, path, {"kind", "profile", "A", "c", "growth"})
        prof_path = f"{path}.profile"
        prof = _get(obj, path, "profile", dict)
        _reject_unknown(prof, prof_path, {"name", "beta", "gamma"})
        name = _get(prof, prof_path, "name", str)
        profile = _build(prof_path, radial_profile, name,
                         **_optional(prof, prof_path, ("beta", "gamma")))
        A = _matrix(_get(obj, path, "A", list), f"{path}.A")
        c = _signal(_get(obj, path, "c", list), f"{path}.c")
        return _build(path, RadialModel, profile, A, c), growth
    if kind == "min_norms":
        _reject_unknown(obj, path, {"kind", "centers", "exponent", "growth"})
        centers = _matrix(_get(obj, path, "centers", list), f"{path}.centers")
        return _build(path, MinOfNormsModel, centers,
                      **_optional(obj, path, ("exponent",))), growth
    raise ConfigError(f"{path}.kind", f"unknown model kind '{kind}'")


def _section(raw: dict, name: str, cls, nested: tuple = (), **fixed):
    """The dataclass ``cls`` built from the optional config section ``name``.

    The section may set every field of ``cls`` but those that ``fixed``
    fills, each read with the type of the field; fields it leaves out keep
    their defaults.  Keys in ``nested`` are allowed but read by the caller.
    """
    obj = _get(raw, "", name, dict, required=False, default={})
    keys = [f.name for f in fields(cls) if f.name not in fixed and f.name not in nested]
    _reject_unknown(obj, name, set(keys) | set(nested))
    hints = get_type_hints(cls)
    values = {key: _get(obj, name, key, hints[key]) for key in keys if key in obj}
    return _build(name, cls, **values, **fixed)


def parse_config(raw: dict) -> RunConfig:
    allowed = {"lagrangian", "domain", "N", "grid_points", "boundary", "schedule",
               "solve", "audit", "check", "seed", "output_dir"}
    _reject_unknown(raw, "", allowed)

    domain = _vector(_get(raw, "", "domain", list), "domain", 2)
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
    b0 = _vector(_get(boundary_obj, "boundary", "b0", list), "boundary.b0", dim)
    b1 = _vector(_get(boundary_obj, "boundary", "b1", list), "boundary.b1", dim)

    model, growth = _model(_get(raw, "", "lagrangian", dict))
    if model.dim != dim:
        raise ConfigError("lagrangian", f"model dimension {model.dim} differs from N = {dim}")

    schedule = _section(raw, "schedule", SweepSchedule)
    solve = _section(raw, "solve", SolveOptions)

    seed = _get(raw, "", "seed", int, required=False, default=0)
    if seed < 0:
        raise ConfigError("seed", "seed must be nonnegative")

    audit = _section(raw, "audit", AuditConfig, seed=seed, schedule=schedule, options=solve)
    if audit.min_elements > grid.num_elements:
        raise ConfigError("audit.min_elements",
                          f"exceeds the {grid.num_elements} elements of the grid")

    check_obj = _get(raw, "", "check", dict, required=False, default={})
    box_obj = _get(check_obj, "check", "box", dict, required=False, default={})
    _reject_unknown(box_obj, "check.box", {"x", "eta", "p"})
    ranges = {key: tuple(float(v) for v in _vector(val, f"check.box.{key}", 2))
              for key, val in box_obj.items()}
    box = _build("check", Box, **{"x": (a, b), **ranges})
    plan = _section(raw, "check", SamplePlan, ("box",), box=box, seed=seed)

    output_dir = _get(raw, "", "output_dir", str)
    return RunConfig(model, growth, grid, AffineMap(b0, b1),
                     schedule, solve, audit, plan, seed, output_dir)


def load_config(config_path: str) -> RunConfig:
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(config_path, str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    if not isinstance(raw, dict):
        raise ConfigError(config_path, "config must be a JSON object")
    return parse_config(raw)


# -- subcommands ---------------------------------------------------------------


def _write_energies_csv(path, records) -> None:
    write_csv(path, ["m", "normalized_root"], ([rec.m, rec.stats.objective] for rec in records))


def run_solve(config: RunConfig, output_dir: FsPath) -> int:
    out = FsPath(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "paths").mkdir(exist_ok=True)
    sweep = m_sweep(config.model, config.grid, config.boundary, config.schedule,
                    config.solve, seed=config.seed)

    records_json = []
    for rec in sweep.records:
        ref = f"paths/m_{rec.m:06d}.csv"
        rec.path.to_csv(out / ref)
        records_json.append({
            "m": rec.m,
            "normalized_root": rec.stats.objective,
            "iterations": rec.stats.iterations,
            "stop_reason": rec.stats.stop_reason,
            "converged": rec.stats.converged,
            "grad_norm": rec.stats.grad_norm,
            "f_evals": rec.stats.f_evals,
            "g_evals": rec.stats.g_evals,
            "path_csv": ref,
        })
    sweep.candidate.to_csv(out / "candidate.csv")
    _write_energies_csv(out / "energies.csv", sweep.records)

    residuals_error = None
    try:
        if sweep.candidate.grid.num_elements >= 4 and not sweep.aborted:
            residual_profile(config.model, sweep.candidate).to_csv(out / "residuals.csv")
        else:
            raise SupminError("residual profile unavailable")
    except SupminError as exc:
        residuals_error = str(exc)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
