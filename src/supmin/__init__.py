"""supmin: candidate absolute minimisers of worst-case path energies.

Minimizes the sup over an interval of a nonnegative Lagrangian L(x, u, Du)
among vector-valued paths with affine boundary data by sweeping minimizers of
power-mean energies to high exponents, then audits the defining properties of
the result: absolute minimality on subintervals, Jensen/level-convexity gaps,
and the residual of the associated second-order system.
"""

from .aronsson import (
    ResidualProfile,
    aronsson_operator,
    normal_projection,
    residual_profile,
)
from .audit import (
    AuditConfig,
    AuditReport,
    EndpointScan,
    ScanEntry,
    SemicontinuityResult,
    SubintervalAudit,
    audit_absolute_minimality,
    build_comparison,
    endpoint_quotient_scan,
    semicontinuity_check,
    snap_delta,
)
from .energy import (
    EnergyReport,
    jensen_gap,
    power_energy,
    power_energy_gradient,
    sup_energy,
)
from .errors import ConfigError, NonFinite, SupminError
from .lagrangian import (
    Box,
    CheckResult,
    CustomModel,
    DataAssimilationModel,
    GrowthParams,
    JetDerivatives,
    LagrangianModel,
    MinOfNormsModel,
    PowerNormModel,
    RadialModel,
    RadialProfile,
    SampledSignal,
    SamplePlan,
    ScaledModel,
    check_growth_bounds,
    check_level_convexity,
    radial_profile,
)
from .path import (
    AffineMap,
    Grid,
    Path,
    PathSample,
    difference_quotient,
    eval_and_slope,
    interpolate_affine,
)
from .solver import (
    SolveOptions,
    SolveStats,
    SweepRecord,
    SweepResult,
    SweepSchedule,
    m_sweep,
    minimize_power,
)

__version__ = "0.1.0"
