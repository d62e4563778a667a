"""The settings a run config fills: a solve's iteration budget, a sweep's
exponents and a subinterval audit.

They live apart from the code that runs them, which imports them from here,
so that reading and checking a config loads no solver.  This module imports
nothing of supmin but ``errors``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SupminError, check_count


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 2000

    def __post_init__(self):
        check_count(self.max_iters, 1, "max_iters must be positive, an integer")


@dataclass(frozen=True)
class SweepSchedule:
    m_max: int = 1024
    tol_sweep: float = 1e-4
    restarts: int = 1

    def __post_init__(self):
        check_count(self.m_max, 2, "schedule needs m_max >= 2, an integer")
        if not self.tol_sweep > 0:  # written so that NaN fails it
            raise SupminError("tol_sweep must be positive")
        check_count(self.restarts, 1, "restarts must be >= 1, an integer")

    def exponents(self) -> list[int]:
        """2, 4, 8, ... up to m_max."""
        return [2**k for k in range(1, self.m_max.bit_length())]


def _check_tol_audit(tol_audit: float) -> None:
    """Raise ``SupminError`` unless the relative tolerance is positive."""
    if not tol_audit > 0:  # written so that NaN fails it
        raise SupminError("tol_audit must be positive")


@dataclass(frozen=True)
class AuditConfig:
    num_subintervals: int = 20
    min_elements: int = 3
    tol_audit: float = 1e-3  # relative
    seed: int = 0
    schedule: SweepSchedule | None = None
    options: SolveOptions | None = None

    def __post_init__(self):
        check_count(self.num_subintervals, 1, "audit config counts must be positive integers")
        # a subinterval of one element has no free node to re-solve
        check_count(self.min_elements, 2,
                    "audit config counts must be positive integers, min_elements at least 2")
        check_count(self.seed, 0, "audit seed must be an integer >= 0")
        _check_tol_audit(self.tol_audit)
