"""Sup-energy, stabilized power-mean energies, their gradients, Jensen gaps.

The sup energy of a path over (alpha, beta) is the maximum of L over a fixed
three-point rule per element (offsets 0, 1/2, 1 of the clipped element); the
power energy of order m uses a single midpoint sample per element.  Since the
slope is element-constant, only (x, u(x)) vary inside an element, so the
midpoint rule is second-order and the three-point maximum brackets the
within-element variation.

Power energies are evaluated in factored form: with S the largest sample,
  raw   = S^m * sum_e len_e * (L_e/S)^m,
  root  = S * ( sum_e len_e * (L_e/S)^m / (beta-alpha) )^(1/m),
so the normalized root stays finite up to m = 2^10 and beyond even when the
raw integral overflows (then flagged).  Elements are always accumulated in
ascending index order so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadWeights, EmptyInterval, NonFinite, OutOfDomain, SupminError
from .lagrangian import LagrangianModel
from .path import Path


# Per-element sample offsets in [0, 1] of the clipped element; the power
# rule's weights are element lengths.
POWER_OFFSET = 0.5
SUP_OFFSETS = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class EnergyReport:
    """Power energy of one order over one subinterval.

    ``raw`` is the unnormalized integral of L^m (infinite when overflow is
    flagged); ``normalized_root`` is the overflow-safe m-th root of its mean;
    ``sup`` is the maximum of L over the same quadrature samples.
    """

    m: int
    raw: float
    overflow: bool
    normalized_root: float
    sup: float
    alpha: float
    beta: float

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "raw": None if self.overflow else self.raw,
            "overflow": self.overflow,
            "normalized_root": self.normalized_root,
            "sup": self.sup,
            "alpha": self.alpha,
            "beta": self.beta,
        }


def _subinterval(path: Path, subinterval) -> tuple[float, float]:
    if subinterval is None:
        return path.grid.a, path.grid.b
    alpha, beta = float(subinterval[0]), float(subinterval[1])
    if alpha >= beta:
        raise EmptyInterval(f"need alpha < beta, got ({alpha}, {beta})")
    if alpha < path.grid.a or beta > path.grid.b:
        raise OutOfDomain(f"({alpha}, {beta}) not inside [{path.grid.a}, {path.grid.b}]")
    return alpha, beta


def _clipped_elements(path: Path, alpha: float, beta: float):
    """Element indices overlapping (alpha, beta) with clip bounds and slopes."""
    nodes = path.grid.nodes
    lo = np.maximum(nodes[:-1], alpha)
    hi = np.minimum(nodes[1:], beta)
    keep = hi > lo
    idx = np.nonzero(keep)[0]
    slopes = path.element_slopes()[idx]
    return idx, lo[idx], hi[idx], slopes


def _samples_at(path: Path, idx, lo, hi, slopes, offset: float):
    xs = lo + offset * (hi - lo)
    left = path.grid.nodes[idx]
    etas = path.values[idx] + (xs - left)[:, None] * slopes
    return xs, etas


def sup_energy(model: LagrangianModel, path: Path, subinterval=None) -> float:
    """Maximum of L(x, u(x), Du(x)) over the three-point rule of every element
    intersecting (alpha, beta); partial elements are sampled at their clipped
    endpoints and midpoint."""
    alpha, beta = _subinterval(path, subinterval)
    idx, lo, hi, slopes = _clipped_elements(path, alpha, beta)
    xs, etas = zip(*(_samples_at(path, idx, lo, hi, slopes, o) for o in SUP_OFFSETS))
    values = model.eval_many(np.concatenate(xs), np.concatenate(etas),
                             np.tile(slopes, (len(SUP_OFFSETS), 1)))
    return float(np.max(values))


def power_energy(model: LagrangianModel, path: Path, m: int, subinterval=None) -> EnergyReport:
    """Midpoint-rule integral of L^m in factored, overflow-safe form."""
    if m < 1:
        raise SupminError("power energy needs m >= 1")
    alpha, beta = _subinterval(path, subinterval)
    idx, lo, hi, slopes = _clipped_elements(path, alpha, beta)
    lengths = hi - lo
    xs, etas = _samples_at(path, idx, lo, hi, slopes, POWER_OFFSET)
    values = model.eval_many(xs, etas, slopes)
    top = float(np.max(values))
    if top == 0.0:
        return EnergyReport(int(m), 0.0, False, 0.0, 0.0, alpha, beta)
    ratios = values / top
    weight_sum = float(np.sum(lengths * ratios**m))
    root = top * (weight_sum / (beta - alpha)) ** (1.0 / m)
    with np.errstate(over="ignore"):
        raw = float(np.float64(top) ** m * weight_sum)
    overflow = not np.isfinite(raw)
    if overflow:
        raw = np.inf
    if not np.isfinite(root):
        raise NonFinite("normalized power root is not finite")
    return EnergyReport(int(m), raw, overflow, root, top, alpha, beta)


def power_energy_gradient(model: LagrangianModel, path: Path, m: int, subinterval=None) -> np.ndarray:
    """Gradient of the normalized power root with respect to nodal values.

    Rows for nodes on or outside the closed subinterval are zero: boundary
    nodes are clamped Dirichlet data of the comparison problem.
    """
    if m < 1:
        raise SupminError("power energy needs m >= 1")
    alpha, beta = _subinterval(path, subinterval)
    nodes = path.grid.nodes
    grad = np.zeros_like(path.values)
    idx, lo, hi, slopes = _clipped_elements(path, alpha, beta)
    lengths = hi - lo
    xs, etas = _samples_at(path, idx, lo, hi, slopes, POWER_OFFSET)
    values = model.eval_many(xs, etas, slopes)
    top = float(np.max(values))
    if top == 0.0:
        return grad
    ratios = values / top
    weight_sum = float(np.sum(lengths * ratios**m))
    outer = (weight_sum / (beta - alpha)) ** (1.0 / m)
    # d(root)/dL_e in factored form: stays representable for every m
    coeffs = (outer * lengths * ratios ** (m - 1) / weight_sum)[:, None]
    elem_len = path.grid.element_lengths[idx]
    jet = model.jet_many(xs, etas, slopes)
    theta = ((xs - nodes[idx]) / elem_len)[:, None]
    d_slope = jet.dp / elem_len[:, None]
    # each node takes its left element's right share and its right element's
    # left share; two terms added to zero round the same in either order
    grad[idx] += coeffs * ((1.0 - theta) * jet.deta - d_slope)
    grad[idx + 1] += coeffs * (theta * jet.deta + d_slope)
    clamped = (nodes <= alpha) | (nodes >= beta)
    grad[clamped] = 0.0
    if not np.all(np.isfinite(grad)):
        raise NonFinite("power energy gradient is not finite")
    return grad


def jensen_gap(model: LagrangianModel, x: float, eta, weights, p_list) -> float:
    """max_i L(x, eta, p_i) - L(x, eta, sum_i w_i p_i).

    Nonnegative (within the level-convexity tolerance) whenever L(x, eta, .)
    is level-convex; a negative gap exhibits a failure of level convexity.
    """
    ps = [np.asarray(p, dtype=float) for p in p_list]
    if not ps:
        raise SupminError("p_list must be nonempty")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(ps),) or np.any(w < 0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise BadWeights("weights must be nonnegative and sum to 1 within 1e-12")
    rows = np.stack(ps)
    rows = np.vstack([rows, np.sum(w[:, None] * rows, axis=0)])
    values = model.eval_many(np.full(len(rows), float(x)),
                             np.tile(np.asarray(eta, dtype=float), (len(rows), 1)), rows)
    return float(np.max(values[:-1]) - values[-1])
