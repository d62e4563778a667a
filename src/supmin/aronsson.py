"""Row-batched vectorial Aronsson operator and residual profiles along paths.

At a point x with value eta, slope p and curvature xx, and with J the
model's jet at (x, eta, p), its x-derivatives dx and dpx
(``x_jet_many``) and Q the orthogonal projection onto the hyperplane
normal to J.dp, the operator assembles

    [ dp (x) dp + L * Q * dpp ] xx
    + (deta . p + dx) dp
    + L * Q * (dpeta p + dpx - deta),

the natural second-order system attached to sup-energy minimization.  Its
coefficients are discontinuous across dp = 0, where the projection
degenerates to the identity (sign of the zero vector is zero); this locus is
reported as-is, never smoothed.  ``normal_projection`` treats |xi| at or
below 1e-12 * (1 + |xi|) as zero, so round-off near dp = 0 cannot blow the
projection up.

``aronsson_operator`` evaluates it at rows of points from one batched jet
and one batched x-jet;
``residual_profile`` feeds it the interior nodes of a path, and
``ResidualProfile.to_csv`` writes the profile to a named file through
``_io.write_csv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .errors import NonFinite, SupminError
from .lagrangian import LagrangianModel, check_width
from .path import Path


def normal_projection(xi) -> np.ndarray:
    """I - (xi/|xi|) (x) (xi/|xi|) for |xi| above 1e-12 * (1 + |xi|), else
    the identity.

    ``xi`` is one vector (N,) or rows of them (M, N), giving (M, N, N).  The
    threshold guards against projection blow-up from floating-point noise
    near xi = 0.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    norm = np.linalg.norm(xi, axis=-1, keepdims=True)
    live = norm > 1e-12 * (1.0 + norm)
    unit = np.where(live, xi / np.where(live, norm, 1.0), 0.0)
    return np.eye(xi.shape[-1]) - unit[..., :, None] * unit[..., None, :]


def aronsson_operator(model: LagrangianModel, xs, values, slopes, curvatures) -> np.ndarray:
    """The operator at rows of points, shape (M, N), from one batched jet
    and one batched x-jet.

    ``xs`` is (M,); ``values``, ``slopes`` and ``curvatures`` are (M, N).
    A width other than the model's ``dim``, a row count other than the
    length of ``xs`` or a non-finite entry raises SupminError: a model
    broadcasts a single x over every row, and one that does not read a
    value would not notice it.
    """
    check_width(model, value=values, slope=slopes, curvature=curvatures)
    for name, rows in (("value", values), ("slope", slopes), ("curvature", curvatures)):
        if len(rows) != len(xs):
            raise SupminError(f"{name} has {len(rows)} rows, xs has length {len(xs)}")
        if not np.all(np.isfinite(rows)):
            raise SupminError(f"{name} must be finite")
    jet = model.jet_many(xs, values, slopes)
    dx, dpx = model.x_jet_many(xs, values, slopes)
    if not (np.isfinite(dx).all() and np.isfinite(dpx).all()):
        raise NonFinite("jet contains non-finite entries")
    proj = normal_projection(jet.dp)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as NonFinite
        scale = jet.value[:, None, None] * proj
        lead = jet.dp[:, :, None] * jet.dp[:, None, :] + scale @ jet.dpp
        lower = (np.sum(jet.deta * slopes, axis=1) + dx)[:, None] * jet.dp
        drift_arg = (jet.dpeta @ slopes[:, :, None])[:, :, 0] + dpx - jet.deta
        drift = (scale @ drift_arg[:, :, None])[:, :, 0]
        out = (lead @ curvatures[:, :, None])[:, :, 0] + lower + drift
    if not np.all(np.isfinite(out)):
        raise NonFinite("operator value is not finite")
    return out


@dataclass(frozen=True)
class ResidualProfile:
    """Operator residuals at the interior nodes of a uniform grid."""

    xs: np.ndarray
    residuals: np.ndarray
    norms: np.ndarray

    @property
    def max_norm(self) -> float:
        return float(np.max(self.norms)) if self.norms.size else 0.0

    def to_csv(self, path) -> None:
        """Rows `x,res_1,...,res_N,norm` at 17 significant digits; an empty
        profile writes the header alone."""
        header = ["x"] + [f"res_{k + 1}" for k in range(self.residuals.shape[1])] + ["norm"]
        write_csv(path, header,
                  ([x, *row, nrm] for x, row, nrm in zip(self.xs, self.residuals, self.norms)))


def residual_profile(model: LagrangianModel, path: Path) -> ResidualProfile:
    """Central-difference slope and curvature at each interior node, fed
    through the operator.

    Candidates are in general only Lipschitz, so the profile is a diagnostic,
    not a convergence claim; no smallness is asserted at kinks.
    """
    grid = path.grid
    if grid.num_elements < 4:
        raise SupminError("residual profile needs at least 4 elements")
    if not grid.is_uniform:
        raise SupminError("residual profile needs a uniform grid")
    check_width(model, path=path.values)
    h = float(grid.nodes[1] - grid.nodes[0])
    u = path.values
    xs = grid.nodes[1:-1]
    slopes = (u[2:] - u[:-2]) / (2.0 * h)
    curvatures = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
    residuals = aronsson_operator(model, xs, u[1:-1], slopes, curvatures)
    norms = np.linalg.norm(residuals, axis=1)
    return ResidualProfile(xs, residuals, norms)
