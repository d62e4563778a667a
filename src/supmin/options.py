"""The settings a run config fills: a solve's iteration budget, a sweep's
restarts and a subinterval audit.  The sweep's exponents are not a setting:
every sweep climbs the ladder ``solver.EXPONENTS``, 2, 4, ..., 1024.

They live apart from the code that runs them, which imports them from here,
so that reading and checking a config loads no solver.  This module imports
nothing of supmin but ``errors``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_count


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 2000

    def __post_init__(self):
        check_count(self.max_iters, 1, "max_iters must be positive, an integer")


@dataclass(frozen=True)
class SweepSchedule:
    restarts: int = 1

    def __post_init__(self):
        check_count(self.restarts, 1, "restarts must be >= 1, an integer")


@dataclass(frozen=True)
class AuditConfig:
    num_subintervals: int = 20
    seed: int = 0
    schedule: SweepSchedule | None = None
    options: SolveOptions | None = None

    def __post_init__(self):
        check_count(self.num_subintervals, 1, "audit needs num_subintervals >= 1, an integer")
        check_count(self.seed, 0, "audit seed must be an integer >= 0")
