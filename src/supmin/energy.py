"""Sup-energy, stabilized power-mean energies and their gradients.

Every energy of a path samples L by one rule: the midpoint of each element
of its grid, weighted by the element's length.  The slope is element-constant,
so only (x, u(x)) vary inside an element and the rule is second-order.  The
power energy of order m is the rule's integral of L^m; the sup energy is the
largest sample, the limit of its normalized roots as m grows, so the sup
reported for a minimiser is the value of the same discrete problem the
solver minimises.

Power energies are evaluated in factored form: with S the largest sample,
  root  = S * ( sum_e len_e * (L_e/S)^m / (b-a) )^(1/m),
so the normalized root stays finite up to m = 2^10 and beyond even where
the integral S^m * sum_e len_e * (L_e/S)^m overflows.  Elements are always
accumulated in ascending index order so results are bit-reproducible.

An energy over nodes i..j is that of the restricted path
``Path(Grid(nodes[i:j+1]), values[i:j+1])``, a discrete problem of its own.

One ``MidpointPowerRule`` holds this arithmetic: the geometry of the
discrete problem and nothing else.  Prepared once for a list of grids, one
per problem, it holds the concatenated nodes and elements of all of them, so
that one call serves a whole batch of solves.
It holds no order; each call that needs one takes it.  It turns nodal
values into L at the samples with one ``eval_many`` call (``evaluate``),
into each problem's power root of order m and largest sample with the same
call (``samples``), and into the gradient and the block-tridiagonal part of
the Hessian with one ``jet_many`` call, whose values are the samples again:
element e reads only nodes e and e + 1, so only neighbouring nodes are
coupled.  Each problem's largest sample, power sum and root are segment
reductions, rounded as that problem alone would round them.  How the block
systems are solved is the solver's business, not the rule's.
``power_energy``, ``power_energy_gradient`` and ``sup_energy`` are one-call
wrappers around a rule of one grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, SupminError, check_count
from .lagrangian import LagrangianModel, check_width
from .path import Path


@dataclass(frozen=True)
class EnergyReport:
    """Power energy of one order of a path over its grid.

    ``normalized_root`` is the overflow-safe m-th root of the mean of L^m;
    ``sup`` is the maximum of L over the same samples, which is
    ``sup_energy`` of the path for every m.
    """

    normalized_root: float
    sup: float


def segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of each segment of ``values`` along its first axis, segment k
    running from ``starts[k]`` to the next start, each rounded exactly as
    ``np.sum`` of that segment alone.

    ``np.add.reduceat`` adds a segment's first entry to the pairwise sum of
    the rest, where ``np.sum`` sums all of it pairwise, so a zero goes ahead
    of every segment.
    """
    flat = values.ravel()
    heads = starts * (flat.size // len(values)) + np.arange(len(starts))
    padded = np.zeros(flat.size + len(starts))
    kept = np.ones(padded.size, dtype=bool)
    kept[heads] = False
    padded[kept] = flat
    return np.add.reduceat(padded, heads)


# the node pairs (left, left), (right, right) and (left, right) of an
# element's Hessian blocks, as the first nodes and the second nodes
_BLOCKS = (np.array([0, 1, 0]), np.array([0, 1, 1]))


class MidpointPowerRule:
    """The midpoint rule over a stack of problems, prepared once: per
    element its two nodes, length, sample point ``xs`` and the weights of
    its nodes in J_e, the map from them to (eta_e, p_e); per node whether it
    is clamped, and per link whether it touches a clamped node; per problem
    its first element, first node and the length of its grid.

    The rule is built in one pass over ``grids``, one per problem: their
    nodes are concatenated, each grid's two end nodes are clamped, and the
    element that would join two problems is left out.  It holds no order:
    from nodal values, ``evaluate`` returns L at the midpoints of every
    problem's path (one ``eval_many`` call), ``samples`` reduces them to
    each problem's power root of order m and largest sample, and
    ``derivatives`` gives the gradient and the element part of the Hessian
    of that root (one ``jet_many`` call), both by the same helpers
    ``_points`` and ``_powers``.  Every per-problem sum is rounded as the
    same sum over that problem alone (``segment_sums``), and every other
    operation acts on one element or node at a time, so a problem's numbers
    do not depend on the problems it is built with, as long as the model's
    value for a row does not depend on the other rows of its batch.
    """

    def __init__(self, grids):
        sizes = [grid.nodes.size for grid in grids]
        nodes = np.concatenate([grid.nodes for grid in grids])
        self.node_starts = np.cumsum(sizes) - sizes
        ends = self.node_starts + sizes - 1
        # every element but those that would join two problems
        self.idx = idx = np.delete(np.arange(nodes.size - 1), ends[:-1])
        self.right = right = idx + 1
        self.elem_len = nodes[right] - nodes[idx]
        self.xs = nodes[idx] + 0.5 * self.elem_len
        offsets = self.xs - nodes[idx]
        self.offsets = offsets[:, None]
        theta = (offsets / self.elem_len)[:, None]
        # J_e's weights of the left and right node, on eta 1 - theta and
        # theta, on p -1/len and 1/len; and their products, the weights of
        # the Hessian blocks of _BLOCKS, each (eta eta, eta p, p eta, p p)
        inv_len = 1.0 / self.elem_len[:, None]
        self.eta_w, self.p_w = np.stack([1.0 - theta, theta]), np.stack([-inv_len, inv_len])
        eta_a, eta_b, p_a, p_b = (w[nodes, :, :, None] for w in (self.eta_w, self.p_w)
                                  for nodes in _BLOCKS)
        self.block_w = (eta_a * eta_b, eta_a * p_b, p_a * eta_b, p_a * p_b)
        # each grid's two end nodes are clamped, so the problems never couple
        self.clamped = np.zeros(nodes.size, dtype=bool)
        self.clamped[self.node_starts] = self.clamped[ends] = True
        self.clamped_links = self.clamped[:-1] | self.clamped[1:]
        self.spans = [grid.b - grid.a for grid in grids]
        self.elem_starts = self.node_starts - np.arange(len(sizes))
        # the problem of each node and of each element
        self.node_problem = np.repeat(np.arange(len(sizes)), sizes)
        self.elem_problem = self.node_problem[idx]

    def _points(self, model: LagrangianModel, values: np.ndarray):
        """The map's value and slope at every element's sample point of the
        paths with nodal ``values`` (one row per node of the stack)."""
        if not np.isfinite(values).all():
            raise SupminError("path values must be finite")
        check_width(model, path=values)
        idx = self.idx
        slopes = (values[self.right] - values[idx]) / self.elem_len[:, None]
        return values[idx] + self.offsets * slopes, slopes

    def _powers(self, sampled: np.ndarray, m: int):
        """``(top, ratios, weight_sum, outer)`` of the samples L_e at order m:
        per problem the largest sample, the factored power sum and
        ``root / top``; per element L_e / top."""
        top = np.maximum.reduceat(sampled, self.elem_starts)
        ratios = sampled / np.where(top == 0.0, 1.0, top)[self.elem_problem]
        weight_sum = segment_sums(self.elem_len * ratios**m, self.elem_starts)
        # one scalar power per problem: numpy's vector power may round differently
        outer = np.array([(w / span) ** (1.0 / m)
                          for w, span in zip(weight_sum.tolist(), self.spans)])
        if not np.isfinite(top * outer).all():
            raise NonFinite("normalized power root is not finite")
        return top, ratios, weight_sum, outer

    def evaluate(self, model: LagrangianModel, values: np.ndarray) -> np.ndarray:
        """L at every element's sample point of the paths with nodal
        ``values``, one row per stack node, from one ``eval_many`` call."""
        return model.eval_many(self.xs, *self._points(model, values))

    def samples(self, model: LagrangianModel, values: np.ndarray, m: int):
        """``(root, top)`` of the paths with nodal ``values``, one row per
        stack node: per problem the normalized power root of order m and the
        largest sample, both zero where every sample is zero.  The samples
        themselves are ``evaluate``'s."""
        check_count(m, 1, "power energy needs m >= 1, an integer")
        top, _, _, outer = self._powers(self.evaluate(model, values), m)
        return top * outer, top

    def derivatives(self, model: LagrangianModel, values: np.ndarray, m: int):
        """Gradient and element part of the Hessian of each problem's
        normalized root of order m at the paths with nodal ``values``, from
        one ``jet_many`` call: ``(grad, (diag, upper))``.

        The jet's values are bitwise the samples (a ``LagrangianModel``
        contract), reduced as in ``samples``.  A problem whose samples all
        vanish, a global minimum, gets zero gradient rows and a zero element
        part.

        ``grad`` has one row per node.  The element part is block
        tridiagonal: ``diag[i]`` couples node i with itself, ``upper[i]``
        node i with node i + 1, each N x N.  Clamped nodes (each grid's two
        end nodes) get zero gradient rows, identity diagonal blocks
        and no coupling, so the stack's element part is block diagonal, one
        block-tridiagonal system per problem.

        With ``coeff_e`` the derivative of the root in L_e, the element part
        is ``sum_e coeff_e J_e^T (H_e + (m-1)/L_e grad L_e grad L_e^T) J_e``,
        H_e the (eta, p) Hessian of L and J_e the map from the element's two
        nodes to (eta_e, p_e).  The Hessian of the root is this minus
        ``(m-1)/root g g^T``, g the gradient.
        """
        check_count(m, 1, "power energy needs m >= 1, an integer")
        idx, right, elem_len = self.idx, self.right, self.elem_len
        eta_w, p_w = self.eta_w, self.p_w
        n_nodes, n = values.shape
        jet = model.jet_many(self.xs, *self._points(model, values))
        top, ratios, weight_sum, outer = self._powers(jet.value, m)
        problem = self.elem_problem
        # a problem whose samples all vanish has zero top, power sum and
        # root; dividing its entries by one instead of zero gives it zero rows
        vanished = (top == 0.0)[problem]
        scale = outer[problem] * elem_len / np.where(vanished, 1.0, weight_sum[problem])
        # d(root)/dL_e in factored form: stays representable for every m
        coeffs = scale * ratios ** (m - 1)
        d_slope = jet.dp / elem_len[:, None]
        grad = np.zeros((n_nodes, n))
        # each node takes its left element's right share and its right element's
        # left share; two terms added to zero round the same in either order
        grad[idx] += coeffs[:, None] * (eta_w[0] * jet.deta - d_slope)
        grad[right] += coeffs[:, None] * (eta_w[1] * jet.deta + d_slope)

        # (m-1) coeff_e / L_e in the same factored form; zero for m = 1
        rank_one = ((m - 1) * scale * ratios ** max(m - 2, 0)
                    / np.where(vanished, 1.0, top[problem]))[:, None, None]
        dpeta_t = jet.dpeta.transpose(0, 2, 1)
        # J_e^T grad L_e, the left and right node's part
        v = eta_w * jet.deta + p_w * jet.dp
        w_ee, w_ep, w_pe, w_pp = self.block_w
        # the three blocks of _BLOCKS at once, each as it would be alone
        blocks = coeffs[:, None, None] * (w_ee * jet.detaeta + w_ep * dpeta_t + w_pe * jet.dpeta
                                          + w_pp * jet.dpp) \
            + rank_one * v[_BLOCKS[0], :, :, None] * v[_BLOCKS[1], :, None, :]
        diag = np.zeros((n_nodes, n, n))
        upper = np.zeros((n_nodes - 1, n, n))
        diag[idx] += blocks[0]
        diag[right] += blocks[1]
        upper[idx] += blocks[2]
        clamped = self.clamped
        grad[clamped] = 0.0
        diag[clamped] = np.eye(n)
        upper[self.clamped_links] = 0.0
        if not np.isfinite(grad).all():
            raise NonFinite("power energy gradient is not finite")
        if not (np.isfinite(diag).all() and np.isfinite(upper).all()):
            raise NonFinite("power energy Hessian is not finite")
        return grad, (diag, upper)


def power_energy(model: LagrangianModel, path: Path, m: int) -> EnergyReport:
    """Normalized root of the midpoint-rule mean of L^m over the path's
    grid, in factored, overflow-safe form, with the largest sample."""
    root, top = MidpointPowerRule([path.grid]).samples(model, path.values, m)
    return EnergyReport(float(root[0]), float(top[0]))


def sup_energy(model: LagrangianModel, path: Path) -> float:
    """Maximum of L(x, u(x), Du(x)) over the midpoint samples of the path's
    elements: the ``sup`` of ``power_energy`` for every m."""
    return float(np.max(MidpointPowerRule([path.grid]).evaluate(model, path.values)))


def power_energy_gradient(model: LagrangianModel, path: Path, m: int) -> np.ndarray:
    """Gradient of the normalized power root with respect to nodal values.

    The rows of the two end nodes are zero: they are clamped Dirichlet data
    of the comparison problem.  Where every
    sample is zero, a global minimum, every row is zero, and so it stays
    where the model has no jet at such a path (|p|^s, s < 2, at p = offset).
    """
    rule = MidpointPowerRule([path.grid])
    try:
        return rule.derivatives(model, path.values, m)[0]
    except NonFinite:
        if not np.any(rule.evaluate(model, path.values)):  # L vanishes at every sample
            return np.zeros(path.values.shape)
        raise
