"""Sup-energy, stabilized power-mean energies, their gradients, Jensen gaps.

Every energy of a path over (alpha, beta) samples L by one rule: the midpoint
of each element intersecting the subinterval, clipped to it, weighted by the
clipped length.  The slope is element-constant, so only (x, u(x)) vary inside
an element and the rule is second-order.  The power energy of order m is the
rule's integral of L^m; the sup energy is the largest sample, the limit of
its normalized roots as m grows, so the sup reported for a minimiser is the
value of the same discrete problem the solver minimises.

Power energies are evaluated in factored form: with S the largest sample,
  raw   = S^m * sum_e len_e * (L_e/S)^m,
  root  = S * ( sum_e len_e * (L_e/S)^m / (beta-alpha) )^(1/m),
so the normalized root stays finite up to m = 2^10 and beyond even when the
raw integral overflows (then flagged).  Elements are always accumulated in
ascending index order so results are bit-reproducible.

One ``MidpointPowerRule`` holds this arithmetic.  Prepared once per grid,
order and subinterval, it turns nodal values into ``PowerSamples`` with one
``eval_many`` call, and samples into the gradient and the block-tridiagonal
part of the Hessian with one ``jet_many`` call: element e reads only nodes
e and e + 1, so only neighbouring nodes are coupled.  The solver keeps one
rule per solve and takes an accepted trial's gradient and Hessian from that
trial's samples; ``power_energy``, ``power_energy_gradient`` and
``sup_energy`` are one-call wrappers around the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, SupminError
from .lagrangian import LagrangianModel
from .path import Grid, Path


@dataclass(frozen=True)
class EnergyReport:
    """Power energy of one order over one subinterval.

    ``raw`` is the unnormalized integral of L^m (infinite when overflow is
    flagged); ``normalized_root`` is the overflow-safe m-th root of its mean;
    ``sup`` is the maximum of L over the same samples, which is
    ``sup_energy`` of the path over the subinterval for every m.
    """

    m: int
    raw: float
    overflow: bool
    normalized_root: float
    sup: float
    alpha: float
    beta: float


def _subinterval(grid: Grid, subinterval) -> tuple[float, float]:
    if subinterval is None:
        return grid.a, grid.b
    alpha, beta = float(subinterval[0]), float(subinterval[1])
    if alpha >= beta:
        raise SupminError(f"need alpha < beta, got ({alpha}, {beta})")
    if alpha < grid.a or beta > grid.b:
        raise SupminError(f"({alpha}, {beta}) not inside [{grid.a}, {grid.b}]")
    return alpha, beta


@dataclass(frozen=True)
class PowerSamples:
    """The midpoint samples of one path: element slopes, sample values of
    the map, L over its maximum ``top``, and the factored power sum.

    When ``top`` is zero the sums are zero too and ``ratios`` is None.
    """

    slopes: np.ndarray
    etas: np.ndarray
    top: float
    ratios: np.ndarray | None
    weight_sum: float
    outer: float

    @property
    def root(self) -> float:
        """The normalized power root."""
        return self.top * self.outer


class MidpointPowerRule:
    """The midpoint rule of the order-m power energy over (alpha, beta) of a
    grid, prepared once: element indices and clipped lengths, sample points
    ``xs`` and their offsets ``theta`` in the element, and the clamped nodes.

    ``samples`` evaluates L at the midpoints of a path (one ``eval_many``
    call); ``derivatives`` turns those samples into the gradient with
    respect to nodal values and the element part of the Hessian (one
    ``jet_many`` call).
    """

    def __init__(self, grid: Grid, m: int, subinterval=None):
        if m < 1:
            raise SupminError("power energy needs m >= 1")
        alpha, beta = _subinterval(grid, subinterval)
        nodes = grid.nodes
        lo = np.maximum(nodes[:-1], alpha)
        hi = np.minimum(nodes[1:], beta)
        idx = np.nonzero(hi > lo)[0]  # the elements overlapping (alpha, beta)
        lo, hi = lo[idx], hi[idx]
        self.m = int(m)
        self.alpha, self.beta = alpha, beta
        self.idx = idx
        self.lengths = hi - lo
        self.xs = lo + 0.5 * self.lengths
        self.elem_len = grid.element_lengths[idx]
        offsets = self.xs - nodes[idx]
        self._offsets = offsets[:, None]
        self.theta = (offsets / self.elem_len)[:, None]
        self.clamped = (nodes <= alpha) | (nodes >= beta)

    def samples(self, model: LagrangianModel, values: np.ndarray) -> PowerSamples:
        """Samples of the path with nodal ``values`` (one row per grid node)."""
        if not np.all(np.isfinite(values)):
            raise SupminError("path values must be finite")
        if values.shape[1] != model.dim:
            raise SupminError(f"path dimension {values.shape[1]} differs from the model "
                              f"dimension {model.dim}")
        idx, m = self.idx, self.m
        slopes = (values[idx + 1] - values[idx]) / self.elem_len[:, None]
        etas = values[idx] + self._offsets * slopes
        sampled = model.eval_many(self.xs, etas, slopes)
        top = float(np.max(sampled))
        if top == 0.0:
            return PowerSamples(slopes, etas, 0.0, None, 0.0, 0.0)
        ratios = sampled / top
        weight_sum = float(np.sum(self.lengths * ratios**m))
        outer = (weight_sum / (self.beta - self.alpha)) ** (1.0 / m)
        if not np.isfinite(top * outer):
            raise NonFinite("normalized power root is not finite")
        return PowerSamples(slopes, etas, top, ratios, weight_sum, outer)

    def derivatives(self, model: LagrangianModel, samples: PowerSamples):
        """Gradient and element part of the Hessian of the normalized root at
        the sampled path, from one ``jet_many`` call: ``(grad, (diag,
        upper))``.

        ``grad`` has one row per node.  The element part is block
        tridiagonal: ``diag[i]`` couples node i with itself, ``upper[i]``
        node i with node i + 1, each N x N.  Clamped nodes (on or outside the
        closed subinterval) get zero gradient rows, identity diagonal blocks
        and no coupling.

        With ``coeff_e`` the derivative of the root in L_e, the element part
        is ``sum_e coeff_e J_e^T (H_e + (m-1)/L_e grad L_e grad L_e^T) J_e``,
        H_e the (eta, p) Hessian of L and J_e the map from the element's two
        nodes to (eta_e, p_e).  The Hessian of the root is this minus
        ``(m-1)/root g g^T``, g the gradient.
        """
        idx, m = self.idx, self.m
        n_nodes, n = self.clamped.size, samples.slopes.shape[1]
        grad = np.zeros((n_nodes, n))
        diag = np.zeros((n_nodes, n, n))
        upper = np.zeros((n_nodes - 1, n, n))
        if samples.top != 0.0:
            ratios = samples.ratios
            weighted = samples.outer * self.lengths
            powers = ratios ** (m - 1)
            jet = model.jet_many(self.xs, samples.etas, samples.slopes)
            # d(root)/dL_e in factored form: stays representable for every m
            g_coeffs = (weighted * powers / samples.weight_sum)[:, None]
            d_slope = jet.dp / self.elem_len[:, None]
            # each node takes its left element's right share and its right element's
            # left share; two terms added to zero round the same in either order
            grad[idx] += g_coeffs * ((1.0 - self.theta) * jet.deta - d_slope)
            grad[idx + 1] += g_coeffs * (self.theta * jet.deta + d_slope)

            # the gradient's coefficients again, rounded in another order; one
            # form for both would move the last bits of every artifact
            scale = weighted / samples.weight_sum
            coeffs = (scale * powers)[:, None, None]
            # (m-1) coeff_e / L_e in the same factored form; zero for m = 1
            rank_one = ((m - 1) * scale * ratios ** max(m - 2, 0) / samples.top)[:, None, None]
            # the eta and p weights of an element's left and right node in J_e
            eta_w = (1.0 - self.theta[:, :, None], self.theta[:, :, None])
            inv_len = (1.0 / self.elem_len)[:, None, None]
            p_w = (-inv_len, inv_len)
            dpeta_t = jet.dpeta.transpose(0, 2, 1)
            v = [eta_w[a][:, :, 0] * jet.deta + p_w[a][:, :, 0] * jet.dp for a in (0, 1)]

            def block(a, b):
                return coeffs * (eta_w[a] * eta_w[b] * jet.detaeta + eta_w[a] * p_w[b] * dpeta_t
                                 + p_w[a] * eta_w[b] * jet.dpeta + p_w[a] * p_w[b] * jet.dpp) \
                    + rank_one * v[a][:, :, None] * v[b][:, None, :]

            diag[idx] += block(0, 0)
            diag[idx + 1] += block(1, 1)
            upper[idx] += block(0, 1)
        clamped = self.clamped
        grad[clamped] = 0.0
        diag[clamped] = np.eye(n)
        upper[clamped[:-1] | clamped[1:]] = 0.0
        if not np.all(np.isfinite(grad)):
            raise NonFinite("power energy gradient is not finite")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(upper))):
            raise NonFinite("power energy Hessian is not finite")
        return grad, (diag, upper)


def power_energy(model: LagrangianModel, path: Path, m: int, subinterval=None) -> EnergyReport:
    """Midpoint-rule integral of L^m in factored, overflow-safe form."""
    rule = MidpointPowerRule(path.grid, m, subinterval)
    s = rule.samples(model, path.values)
    with np.errstate(over="ignore"):
        raw = float(np.float64(s.top) ** rule.m * s.weight_sum)
    overflow = not np.isfinite(raw)
    if overflow:
        raw = np.inf
    return EnergyReport(rule.m, raw, overflow, s.root, s.top, rule.alpha, rule.beta)


def sup_energy(model: LagrangianModel, path: Path, subinterval=None) -> float:
    """Maximum of L(x, u(x), Du(x)) over the midpoint samples of every element
    intersecting (alpha, beta), partial elements sampled at the midpoint of
    their clipped part: the ``sup`` of ``power_energy`` for every m."""
    # the largest sample does not depend on the order; m = 1 is the cheapest
    return MidpointPowerRule(path.grid, 1, subinterval).samples(model, path.values).top


def power_energy_gradient(model: LagrangianModel, path: Path, m: int, subinterval=None) -> np.ndarray:
    """Gradient of the normalized power root with respect to nodal values.

    Rows for nodes on or outside the closed subinterval are zero: boundary
    nodes are clamped Dirichlet data of the comparison problem.
    """
    rule = MidpointPowerRule(path.grid, m, subinterval)
    return rule.derivatives(model, rule.samples(model, path.values))[0]


def jensen_gap(model: LagrangianModel, x: float, eta, weights, p_list) -> float:
    """max_i L(x, eta, p_i) - L(x, eta, sum_i w_i p_i).

    Nonnegative (within the level-convexity tolerance) whenever L(x, eta, .)
    is level-convex; a negative gap exhibits a failure of level convexity.
    """
    ps = [np.asarray(p, dtype=float) for p in p_list]
    if not ps:
        raise SupminError("p_list must be nonempty")
    w = np.asarray(weights, dtype=float)
    # written so that NaN weights fail it
    if not (w.shape == (len(ps),) and np.all(w >= 0) and abs(float(np.sum(w)) - 1.0) <= 1e-12):
        raise SupminError("weights must be nonnegative and sum to 1 within 1e-12")
    rows = np.stack(ps)
    rows = np.vstack([rows, np.sum(w[:, None] * rows, axis=0)])
    values = model.eval_many(np.full(len(rows), float(x)),
                             np.tile(np.asarray(eta, dtype=float), (len(rows), 1)), rows)
    return float(np.max(values[:-1]) - values[-1])
