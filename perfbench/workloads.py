"""The benchmark's four workloads and the configs they generate from a seed.

Each workload is a supmin JSON config plus the CLI commands run on it.
Seed 0 gives the configs exactly as specified below.  Any other seed shifts
the x-domain of the solve/check workloads by a whole number ``s`` in
[-512, 512]: the signal knots move with it and ``b0`` becomes ``b0 - b1 s``,
so the boundary values stay the same.  Every x the CLI reads and writes
changes, but because grid steps, knot offsets and boundary values are dyadic
the shifted problem runs the same floating-point operations on the same
values, so the work (and every counter) is the same for every seed.

That is deliberate.  The solves these workloads exercise are decided by
round-off: a rotation of R^2, which leaves the exact problem unchanged,
moved the ``da-rot`` solve between 4.2 and 8.3 s and turned a 7-iteration
exponent of the ``audit-drift`` solve into a 400-iteration stall, and the
config's own ``seed`` field (restarts, audit subintervals, check samples)
moved ``audit_s`` between 2.3 and 10.5 s over seeds 0-9.  Such spreads would
hide every change a later PR makes, so the config ``seed`` is part of each
workload's definition and the benchmark seed only translates the problem.
The audit re-solves against chords ``u_a - b1 alpha + b1 x`` through absolute
x, so no shift leaves its arithmetic unchanged (shifts moved ``audit_s``
between 3.0 and 8.9 s); ``audit-drift`` therefore has one config for every
seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # CLI subcommands, run in order on one output directory
    expected_exit: dict  # command -> exit code the CLI must return
    oracle: str | None  # "drift" (|kappa|^2), "one" (the zigzag bound) or None
    why: str


def _drift_c():
    return [[i / 8, math.sin(2 * math.pi * (i / 8)), math.cos(3 * (i / 8))] for i in range(9)]


def _da_rot():
    return {
        "lagrangian": {"kind": "data_assimilation", "K": [[1.0, 0.0]],
                       "k": [[0.0, 0.5], [0.5, -0.3], [1.0, 0.2]],
                       "A": [[0.0, 1.0], [-1.0, 0.0]],
                       "c": [[0.0, 1.0, 0.0], [0.5, 0.0, 2.0], [1.0, 1.0, 0.0]]},
        "domain": [0.0, 1.0], "N": 2, "grid_points": 17,
        "boundary": {"b0": [0.0, 0.0], "b1": [1.0, 1.0]},
        "solve": {"max_iters": 400}, "seed": 42, "output_dir": "out",
    }


def _drift(grid_points, solve=None):
    cfg = {
        "lagrangian": {"kind": "data_assimilation", "K": [[0.0, 0.0]],
                       "k": [[0.0, 0.0], [1.0, 0.0]],
                       "A": [[0.0, 0.0], [0.0, 0.0]], "c": _drift_c()},
        "domain": [0.0, 1.0], "N": 2, "grid_points": grid_points,
        "boundary": {"b0": [0.0, 0.0], "b1": [1.0, -0.5]},
        "seed": 7, "output_dir": "out",
    }
    if solve:
        cfg["solve"] = solve
    return cfg


def _min_norms():
    return {
        "lagrangian": {"kind": "min_norms", "centers": [[1.0, 0.0], [-1.0, 0.0]],
                       "exponent": 2.0,
                       "growth": {"C1": 0.5, "C2": 1.0, "C3": 2.0, "q": 2.0, "r": 2.0,
                                  "h_bound": 2.0}},
        "domain": [0.0, 1.0], "N": 2, "grid_points": 17,
        "boundary": {"b0": [0.0, 0.0], "b1": [0.0, 1.0]},
        "schedule": {"restarts": 3}, "check": {"num_triples": 20000},
        "seed": 3, "output_dir": "out",
    }


WORKLOADS = {
    "da-rot": Workload(
        "da-rot", ("solve",), {"solve": 0}, None,
        "Line-search bound: about 8.7 backtracks per iteration and 3 of 10 exponents "
        "stop at the 400-iteration cap, so the stall stays visible."),
    "drift-65": Workload(
        "drift-65", ("solve",), {"solve": 0}, "drift",
        "Bound by the per-element jet loop of the gradient (79% of self time); exact "
        "oracle |kappa|^2; the conditioning case with 677 L-BFGS iterations at m=2."),
    "audit-drift": Workload(
        "audit-drift", ("solve", "audit"), {"solve": 0, "audit": 0}, "drift",
        "Many small cold-start sweeps on 3- to 24-element subgrids; one capped "
        "15-element sweep takes 40% of audit_s, so the straggler effect shows."),
    "min-norms": Workload(
        "min-norms", ("solve", "check"), {"solve": 0, "check": 4}, "one",
        "The only finite-difference jet user and scalar eval path of check (160,000 "
        "calls); multi-start finds the zigzag with sup 1 where the affine start gives 2."),
}

_BUILDERS = {
    "da-rot": _da_rot,
    "drift-65": lambda: _drift(65),
    "audit-drift": lambda: _drift(33, {"max_iters": 400}),
    "min-norms": _min_norms,
}


def shift(seed: int) -> int:
    """Whole-number x-shift for a benchmark seed; seed 0 gives no shift."""
    return random.Random(seed).randint(-512, 512) if seed else 0


def make_config(name: str, seed: int) -> dict:
    """The config of workload ``name`` for benchmark seed ``seed``."""
    cfg = _BUILDERS[name]()
    s = 0 if "audit" in WORKLOADS[name].commands else shift(seed)
    if s:
        lag, bnd = cfg["lagrangian"], cfg["boundary"]
        cfg["domain"] = [x + s for x in cfg["domain"]]
        for key in ("k", "c"):
            if key in lag:
                lag[key] = [[row[0] + s] + row[1:] for row in lag[key]]
        # u'(x + s) = u(x): b0' + b1 (x + s) = b0 + b1 x
        bnd["b0"] = [b0 - b1 * s for b0, b1 in zip(bnd["b0"], bnd["b1"])]
    return cfg
