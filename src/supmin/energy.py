"""Sup-energy, stabilized power-mean energies, their gradients, Jensen gaps.

Every energy of a path over (alpha, beta) samples L by one rule: the midpoint
of each element intersecting the subinterval, clipped to it, weighted by the
clipped length.  The slope is element-constant, so only (x, u(x)) vary inside
an element and the rule is second-order.  The power energy of order m is the
rule's integral of L^m; the sup energy is the largest sample, the limit of
its normalized roots as m grows, so the sup reported for a minimiser is the
value of the same discrete problem the solver minimises.

Power energies are evaluated in factored form: with S the largest sample,
  root  = S * ( sum_e len_e * (L_e/S)^m / (beta-alpha) )^(1/m),
so the normalized root stays finite up to m = 2^10 and beyond even where
the integral S^m * sum_e len_e * (L_e/S)^m overflows.  Elements are always
accumulated in ascending index order so results are bit-reproducible.

One ``MidpointPowerRule`` holds this arithmetic.  Prepared once per grid,
order and subinterval, it turns nodal values into ``PowerSamples`` with one
``eval_many`` call, and nodal values into the gradient and the
block-tridiagonal part of the Hessian with one ``jet_many`` call, whose
values are the samples again: element e reads only nodes e and e + 1, so
only neighbouring nodes are coupled.  Rules of one order stack into one
rule over the concatenated nodes of all their problems, so that one call
serves a whole batch of solves; each problem's largest sample, power sum
and root are segment reductions, rounded as that problem alone would round
them.  The solver keeps one rule per problem and hands it nothing but an
iterate's nodal values; ``power_energy``, ``power_energy_gradient`` and
``sup_energy`` are one-call wrappers around a rule of one problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, SupminError, check_count
from .lagrangian import LagrangianModel, check_width
from .path import Grid, Path


@dataclass(frozen=True)
class EnergyReport:
    """Power energy of one order over one subinterval.

    ``normalized_root`` is the overflow-safe m-th root of the mean of L^m;
    ``sup`` is the maximum of L over the same samples, which is
    ``sup_energy`` of the path over the subinterval for every m.
    """

    normalized_root: float
    sup: float


def _subinterval(grid: Grid, subinterval) -> tuple[float, float]:
    if subinterval is None:
        return grid.a, grid.b
    alpha, beta = float(subinterval[0]), float(subinterval[1])
    if not alpha < beta:  # written so that a NaN end fails it, as the next check
        raise SupminError(f"need alpha < beta, got ({alpha}, {beta})")
    if not (grid.a <= alpha and beta <= grid.b):
        raise SupminError(f"({alpha}, {beta}) not inside [{grid.a}, {grid.b}]")
    return alpha, beta


def segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of each segment of ``values`` along its first axis, segment k
    running from ``starts[k]`` to the next start, each rounded exactly as
    ``np.sum`` of that segment alone.

    ``np.add.reduceat`` adds a segment's first entry to the pairwise sum of
    the rest, where ``np.sum`` sums all of it pairwise, so a zero goes ahead
    of every segment.
    """
    flat = values.reshape(len(values), -1)
    width = flat.shape[1]
    padded = np.insert(flat.ravel(), starts * width, 0.0)
    return np.add.reduceat(padded, starts * width + np.arange(len(starts)))


@dataclass(frozen=True)
class PowerSamples:
    """The midpoint samples of a stack of paths: L at every element's sample
    point (``sampled``), and per problem the largest sample ``top`` and the
    normalized power root ``root``, both zero where every sample is zero."""

    sampled: np.ndarray
    top: np.ndarray
    root: np.ndarray


class MidpointPowerRule:
    """The midpoint rule of the order-m power energy over a stack of
    problems, prepared once: per element its index, clipped length, sample
    point ``xs`` and offset ``theta`` in the element; per node whether it is
    clamped; per problem its first element, first node and the length of
    its subinterval.

    A rule built from a grid (and a subinterval of it) is a stack of one
    problem; ``stack`` concatenates the nodes and elements of rules of one
    order.  From nodal values, ``samples`` evaluates L at the midpoints of
    every problem's path (one ``eval_many`` call), and ``derivatives`` the
    gradient and the element part of the Hessian (one ``jet_many`` call),
    both by the same helpers ``_points`` and ``_powers``.  Every per-problem
    sum is rounded as the same sum over that problem alone
    (``segment_sums``), and every other operation acts on one element or
    node at a time, so a problem's numbers do not depend on the stack it is
    evaluated in, as long as the model's value for a row does not depend on
    the other rows of its batch.
    """

    def __init__(self, grid: Grid, m: int, subinterval=None):
        check_count(m, 1, "power energy needs m >= 1, an integer")
        alpha, beta = _subinterval(grid, subinterval)
        nodes = grid.nodes
        lo = np.maximum(nodes[:-1], alpha)
        hi = np.minimum(nodes[1:], beta)
        idx = np.nonzero(hi > lo)[0]  # the elements overlapping (alpha, beta)
        lo, hi = lo[idx], hi[idx]
        self.m = m
        self.idx = idx
        self.lengths = hi - lo
        self.xs = lo + 0.5 * self.lengths
        self.elem_len = grid.element_lengths[idx]
        offsets = self.xs - nodes[idx]
        self.offsets = offsets[:, None]
        self.theta = (offsets / self.elem_len)[:, None]
        # the grid's end nodes are always clamped, so stacked problems never couple
        self.clamped = (nodes <= alpha) | (nodes >= beta)
        self.spans = [beta - alpha]
        self.elem_starts, self.node_starts = np.zeros(1, dtype=int), np.zeros(1, dtype=int)
        # the problem of each element
        self.elem_problem = np.zeros(idx.size, dtype=int)

    @classmethod
    def stack(cls, rules) -> "MidpointPowerRule":
        """One rule over the problems of ``rules``, all of one order, in
        order; a stack of one rule is that rule."""
        if len(rules) == 1:
            return rules[0]
        node_offsets = np.cumsum([0] + [rule.clamped.size for rule in rules[:-1]])
        elem_offsets = np.cumsum([0] + [rule.idx.size for rule in rules[:-1]])
        out = cls.__new__(cls)
        out.m = rules[0].m
        out.idx = np.concatenate([rule.idx + off for rule, off in zip(rules, node_offsets)])
        for name in ("lengths", "xs", "elem_len", "offsets", "theta", "clamped"):
            setattr(out, name, np.concatenate([getattr(rule, name) for rule in rules]))
        out.spans = [span for rule in rules for span in rule.spans]
        problem_offsets = np.cumsum([0] + [len(rule.spans) for rule in rules[:-1]])
        for name, offsets in (("elem_starts", elem_offsets), ("node_starts", node_offsets),
                              ("elem_problem", problem_offsets)):
            setattr(out, name, np.concatenate([getattr(rule, name) + off
                                               for rule, off in zip(rules, offsets)]))
        return out

    def _points(self, model: LagrangianModel, values: np.ndarray):
        """The map's value and slope at every element's sample point of the
        paths with nodal ``values`` (one row per node of the stack)."""
        if not np.all(np.isfinite(values)):
            raise SupminError("path values must be finite")
        check_width(model, path=values)
        idx = self.idx
        slopes = (values[idx + 1] - values[idx]) / self.elem_len[:, None]
        return values[idx] + self.offsets * slopes, slopes

    def _powers(self, sampled: np.ndarray):
        """``(top, ratios, weight_sum, outer)`` of the samples L_e: per problem
        the largest sample, the factored power sum and ``root / top``; per
        element L_e / top."""
        top = np.maximum.reduceat(sampled, self.elem_starts)
        ratios = sampled / np.where(top == 0.0, 1.0, top)[self.elem_problem]
        weight_sum = segment_sums(self.lengths * ratios**self.m, self.elem_starts)
        # one scalar power per problem: numpy's vector power may round differently
        outer = np.array([(w / span) ** (1.0 / self.m)
                          for w, span in zip(weight_sum.tolist(), self.spans)])
        if not np.all(np.isfinite(top * outer)):
            raise NonFinite("normalized power root is not finite")
        return top, ratios, weight_sum, outer

    def samples(self, model: LagrangianModel, values: np.ndarray) -> PowerSamples:
        """Samples of the paths with nodal ``values``, one row per stack node."""
        sampled = model.eval_many(self.xs, *self._points(model, values))
        top, _, _, outer = self._powers(sampled)
        return PowerSamples(sampled, top, top * outer)

    def derivatives(self, model: LagrangianModel, values: np.ndarray):
        """Gradient and element part of the Hessian of each problem's
        normalized root at the paths with nodal ``values``, from one
        ``jet_many`` call: ``(grad, (diag, upper))``.

        The jet's values are bitwise the samples (a ``LagrangianModel``
        contract), reduced as in ``samples``.  A problem whose samples all
        vanish, a global minimum, gets zero gradient rows and a zero element
        part.

        ``grad`` has one row per node.  The element part is block
        tridiagonal: ``diag[i]`` couples node i with itself, ``upper[i]``
        node i with node i + 1, each N x N.  Clamped nodes (on or outside the
        closed subinterval) get zero gradient rows, identity diagonal blocks
        and no coupling, so the stack's element part is block diagonal, one
        block-tridiagonal system per problem.

        With ``coeff_e`` the derivative of the root in L_e, the element part
        is ``sum_e coeff_e J_e^T (H_e + (m-1)/L_e grad L_e grad L_e^T) J_e``,
        H_e the (eta, p) Hessian of L and J_e the map from the element's two
        nodes to (eta_e, p_e).  The Hessian of the root is this minus
        ``(m-1)/root g g^T``, g the gradient.
        """
        m, idx, theta, elem_len = self.m, self.idx, self.theta, self.elem_len
        n_nodes, n = values.shape
        jet = model.jet_many(self.xs, *self._points(model, values))
        top, ratios, weight_sum, outer = self._powers(jet.value)
        problem = self.elem_problem
        # a problem whose samples all vanish has zero top, power sum and
        # root; dividing its entries by one instead of zero gives it zero rows
        vanished = (top == 0.0)[problem]
        scale = outer[problem] * self.lengths / np.where(vanished, 1.0, weight_sum[problem])
        # d(root)/dL_e in factored form: stays representable for every m
        coeffs = scale * ratios ** (m - 1)
        d_slope = jet.dp / elem_len[:, None]
        grad = np.zeros((n_nodes, n))
        # each node takes its left element's right share and its right element's
        # left share; two terms added to zero round the same in either order
        grad[idx] += coeffs[:, None] * ((1.0 - theta) * jet.deta - d_slope)
        grad[idx + 1] += coeffs[:, None] * (theta * jet.deta + d_slope)

        # (m-1) coeff_e / L_e in the same factored form; zero for m = 1
        rank_one = ((m - 1) * scale * ratios ** max(m - 2, 0)
                    / np.where(vanished, 1.0, top[problem]))[:, None, None]
        # the eta and p weights of an element's left and right node in J_e
        eta_w = (1.0 - theta[:, :, None], theta[:, :, None])
        inv_len = (1.0 / elem_len)[:, None, None]
        p_w = (-inv_len, inv_len)
        dpeta_t = jet.dpeta.transpose(0, 2, 1)
        v = [eta_w[a][:, :, 0] * jet.deta + p_w[a][:, :, 0] * jet.dp for a in (0, 1)]

        def block(a, b):
            return coeffs[:, None, None] * (
                eta_w[a] * eta_w[b] * jet.detaeta + eta_w[a] * p_w[b] * dpeta_t
                + p_w[a] * eta_w[b] * jet.dpeta + p_w[a] * p_w[b] * jet.dpp) \
                + rank_one * v[a][:, :, None] * v[b][:, None, :]

        diag = np.zeros((n_nodes, n, n))
        upper = np.zeros((n_nodes - 1, n, n))
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
    """Normalized root of the midpoint-rule mean of L^m, in factored,
    overflow-safe form, with the largest sample."""
    rule = MidpointPowerRule(path.grid, m, subinterval)
    s = rule.samples(model, path.values)
    return EnergyReport(float(s.root[0]), float(s.top[0]))


def sup_energy(model: LagrangianModel, path: Path, subinterval=None) -> float:
    """Maximum of L(x, u(x), Du(x)) over the midpoint samples of every element
    intersecting (alpha, beta), partial elements sampled at the midpoint of
    their clipped part: the ``sup`` of ``power_energy`` for every m."""
    # the largest sample does not depend on the order; m = 1 is the cheapest
    return float(MidpointPowerRule(path.grid, 1, subinterval).samples(model, path.values).top[0])


def power_energy_gradient(model: LagrangianModel, path: Path, m: int, subinterval=None) -> np.ndarray:
    """Gradient of the normalized power root with respect to nodal values.

    Rows for nodes on or outside the closed subinterval are zero: boundary
    nodes are clamped Dirichlet data of the comparison problem.  Where every
    sample is zero, a global minimum, every row is zero, and so it stays
    where the model has no jet at such a path (|p|^s, s < 2, at p = offset).
    """
    rule = MidpointPowerRule(path.grid, m, subinterval)
    try:
        return rule.derivatives(model, path.values)[0]
    except NonFinite:
        if rule.samples(model, path.values).top[0] == 0.0:  # L vanishes at every sample
            return np.zeros(path.values.shape)
        raise


def jensen_gap(model: LagrangianModel, x: float, eta, weights, p_list) -> float:
    """max_i L(x, eta, p_i) - L(x, eta, sum_i w_i p_i).

    Nonnegative (within the level-convexity tolerance) whenever L(x, eta, .)
    is level-convex; a negative gap exhibits a failure of level convexity.
    """
    ps = [np.atleast_1d(np.asarray(p, dtype=float)) for p in p_list]
    if not ps:
        raise SupminError("p_list must be nonempty")
    w = np.asarray(weights, dtype=float)
    # written so that NaN weights fail it
    if not (w.shape == (len(ps),) and np.all(w >= 0) and abs(float(np.sum(w)) - 1.0) <= 1e-12):
        raise SupminError("weights must be nonnegative and sum to 1 within 1e-12")
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    check_width(model, eta=eta)
    for p in ps:
        check_width(model, p=p)
    rows = np.stack(ps)
    rows = np.vstack([rows, np.sum(w[:, None] * rows, axis=0)])
    values = model.eval_many(np.full(len(rows), float(x)), np.tile(eta, (len(rows), 1)), rows)
    return float(np.max(values[:-1]) - values[-1])
