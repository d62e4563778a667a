"""supmin: candidate absolute minimisers of worst-case path energies.

Minimizes the sup over an interval of a nonnegative Lagrangian L(x, u, Du)
among vector-valued paths with affine boundary data by sweeping minimizers of
power-mean energies to high exponents, then audits the result and its model:
absolute minimality on subintervals, sampled level convexity and growth bounds
of L, and the residual of the associated second-order system.

``import supmin`` loads none of its modules: a public name's module is
imported the first time the name is looked up (PEP 562), so a caller that
only reads a config never compiles the solver.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name
_HOMES = {name: module for module, names in (
    ("aronsson", ("ResidualProfile", "aronsson_operator", "normal_projection",
                  "residual_profile")),
    ("audit", ("AuditReport", "SubintervalAudit", "audit_absolute_minimality")),
    ("energy", ("EnergyReport", "power_energy", "power_energy_gradient", "sup_energy")),
    ("errors", ("ConfigError", "NonFinite", "SupminError")),
    ("lagrangian", ("Box", "CheckResult", "CustomModel", "DataAssimilationModel",
                    "GrowthParams", "JetDerivatives", "LagrangianModel", "MinOfNormsModel",
                    "PowerNormModel", "RadialModel", "RadialProfile", "SampledSignal",
                    "SamplePlan", "ScaledModel", "check_growth_bounds",
                    "check_level_convexity", "radial_profile")),
    ("options", ("AuditConfig", "SolveOptions", "SweepSchedule")),
    ("path", ("AffineMap", "Grid", "Path", "interpolate_affine")),
    ("solver", ("SolveStats", "SweepRecord", "SweepResult", "m_sweep", "minimize_power")),
) for name in names}

_MODULES = {*_HOMES.values(), "_io", "cli"}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _MODULES:  # ``supmin.solver`` works before anything imported it
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
