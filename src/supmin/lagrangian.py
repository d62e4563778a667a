"""Lagrangian models L(x, eta, p) >= 0 with jets and hypothesis checkers.

Arguments follow the convention (x, eta, p): position in the interval, map
value in R^N, derivative in R^N.  A model answers three batched calls on
rows xs (M,), etas (M, N), ps (M, N):

* ``eval_many``  the values of L, shape (M,);
* ``jet_many``   the values with the (eta, p) derivatives the power energy
  reads, one ``JetDerivatives`` whose fields carry a leading row axis;
* ``x_jet_many`` the x-derivatives the residual profile reads too.

These three are the only ways to evaluate a model.  They take rows as they
come; every entry point that takes points or paths rejects a width that is
not the model's ``dim`` (``check_width``).  Each constructor checks that its
fields agree in shape, and its message names the fields it compares.  The
base class derives both jets from ``eval_many`` by central finite
differences, one call on every shifted row of their stencils (41 and 10
rows per row at N=2); the analytic families override them.
Built-in families:

* ``DataAssimilationModel`` L = |k(x) - K eta|^2 + |p - (A eta + c(x))|^2
* ``RadialModel``           L = f(|p - (A eta + c(x))|^2 / 2) for an increasing profile f
* ``MinOfNormsModel``       L = min_k |p - center_k|^s, the nearest center's jet
* ``PowerNormModel``        L = |p - offset|^s, the min of norms with one center
* ``CustomModel``           user callable of rows, finite-difference jets

``check_level_convexity`` and ``check_growth_bounds`` are sampling
certifications: a pass is evidence, never a proof.  The growth bounds
(``GrowthParams``) are a setting of that check, not of a model, read field
by field from the run config's ``lagrangian.growth`` block.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import NonFinite, SupminError, check_count

_EPS = np.finfo(float).eps
_FD_FIRST = _EPS ** (1.0 / 3.0)
# second differences lose ~eps/h^2; the quarter-power step keeps ~1e-8 accuracy
_FD_SECOND = _EPS**0.25


def _vec(v, name: str) -> np.ndarray:
    a = np.array(v, dtype=float)
    a = np.atleast_1d(a)
    if a.ndim != 1 or not np.all(np.isfinite(a)):
        raise SupminError(f"{name} must be a finite vector")
    a.flags.writeable = False
    return a


def _mat(v, name: str) -> np.ndarray:
    a = np.array(v, dtype=float)
    if a.ndim != 2 or not np.all(np.isfinite(a)):
        raise SupminError(f"{name} must be a finite matrix")
    a.flags.writeable = False
    return a


def _apply(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat @ row for every row, summed row by row: BLAS rounds a one-row
    product differently from a many-row one, and a row's result must not
    depend on the batch it came in.  Added onto zeros one column at a time,
    bitwise numpy's sum over a short trailing axis, -0.0 + -0.0 = +0.0 too."""
    total = np.zeros((len(rows), len(mat)))
    for row_j, mat_j in zip(rows.T, mat.T):
        total += row_j[:, None] * mat_j
    return total


def _squared_distances(ps: np.ndarray, center: np.ndarray) -> np.ndarray:
    """|p - center|^2 for every row p of ps (M, N), added up one column at a
    time over 1-D arrays of length M.

    numpy's norm along a row adds its N squares one after another for N < 8,
    so the square root of this is ``np.linalg.norm(ps - center, axis=1)``
    bitwise for N <= 7; from N = 8 on numpy sums pairwise and the last bit
    may differ.  Unlike that norm, it builds no array with a short trailing
    axis, which numpy loops over slowly.
    """
    total = np.zeros(len(ps))
    for p_j, c_j in zip(ps.T, center):
        d = p_j - c_j
        total += d * d
    return total


@dataclass(frozen=True)
class SampledSignal:
    """Piecewise-linear signal from (x, value) samples, constant outside them."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = _vec(self.xs, "signal xs")
        if xs.size < 2 or not np.all(np.diff(xs) > 0):
            raise SupminError("signal xs must be strictly increasing, >= 2 samples")
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != xs.size:
            raise SupminError("signal needs one value row per sample")
        if not np.all(np.isfinite(values)):
            raise SupminError("signal values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, values) -> "SampledSignal":
        """The constant vector ``values``: two equal samples, zero slope."""
        value = _vec(values, "constant signal value")
        return cls(np.array([0.0, 1.0]), np.stack([value, value]))

    @classmethod
    def from_rows(cls, rows) -> "SampledSignal":
        """Rows [x, v1, ..., vD] of a finite matrix, strictly increasing in x."""
        data = _mat(rows, "signal rows")
        if data.shape[1] < 2:
            raise SupminError("signal rows need at least [x, value]")
        return cls(data[:, 0], data[:, 1:])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Values at xs, shape (len(xs), dim)."""
        return np.column_stack([np.interp(xs, self.xs, col) for col in self.values.T])

    def derivative_many(self, xs: np.ndarray) -> np.ndarray:
        """Element slopes at xs (left element at knots), zero outside the
        samples; shape (len(xs), dim)."""
        xs = np.asarray(xs, dtype=float)
        e = np.clip(np.searchsorted(self.xs, xs, side="left") - 1, 0, self.xs.size - 2)
        out = (self.values[e + 1] - self.values[e]) / (self.xs[e + 1] - self.xs[e])[:, None]
        out[(xs < self.xs[0]) | (xs > self.xs[-1])] = 0.0
        return out


@dataclass(frozen=True)
class GrowthParams:
    """Constants of the two-sided growth bound
    C1*|p|^q - C2 <= L <= h_bound*|p|^r + C3,
    named as the config's ``lagrangian.growth`` block names them.

    A bound term whose coefficient (C1 or h_bound) is 0 is 0, even where
    |p|^q or |p|^r overflows; with a positive coefficient an overflowing
    power is an infinite term, so every finite L violates that lower bound
    and meets that upper bound."""

    C1: float
    C2: float
    C3: float
    q: float
    r: float
    h_bound: float = 1.0

    def __post_init__(self):
        if not all(c >= 0 for c in (self.C1, self.C2, self.C3)):
            raise SupminError("growth constants must be nonnegative")
        if not (0 < self.q <= self.r < np.inf):
            raise SupminError("0 < q <= r required")
        if not 0 <= self.h_bound < np.inf:
            raise SupminError("h_bound must be finite and nonnegative")


@dataclass(frozen=True)
class JetDerivatives:
    """Value and (eta, p) derivatives of L at rows (x, eta, p).

    ``dp``/``deta`` are gradients in p and eta; ``dpp``, ``dpeta`` are the
    second-order blocks taken against p first, and ``detaeta`` the Hessian
    in eta.  ``dpp`` and ``detaeta`` are symmetric.
    From ``jet_many`` every field has a leading row axis: ``value`` (M,),
    ``dp``, ``deta`` (M, N), the blocks (M, N, N).
    Construction rejects non-finite entries, once for the whole batch, in
    every writeable field: a read-only one is a constant block that its
    model checked when it was built.
    """

    value: np.ndarray
    dp: np.ndarray
    deta: np.ndarray
    dpp: np.ndarray
    dpeta: np.ndarray
    detaeta: np.ndarray

    def __post_init__(self):
        if not all(np.isfinite(a).all() for a in (getattr(self, f.name) for f in fields(self))
                   if a.flags.writeable):
            raise NonFinite("jet contains non-finite entries")

    def map(self, fn) -> "JetDerivatives":
        """``fn`` applied to every field."""
        return JetDerivatives(**{f.name: fn(getattr(self, f.name)) for f in fields(self)})


def check_width(model: LagrangianModel, **arrays) -> None:
    """Raise SupminError unless every named array has ``model.dim`` entries
    along its last axis.  A model broadcasts rows of another width without
    complaint, so each entry point that takes points or paths checks."""
    for name, array in arrays.items():
        width = np.shape(array)[-1]
        if width != model.dim:
            raise SupminError(f"{name} dimension {width} differs from the model "
                              f"dimension {model.dim}")


@functools.cache
def _fd_stencil(n: int):
    """The shifts of ``LagrangianModel.jet_many``'s stencil at N = n, as
    signs over z = (p, eta), built once per n and read-only:
    ``(first, second, (i, j))``.  ``first`` holds the h1 shifts +-e_i;
    ``second`` the h2 shifts +-e_i, then the corners ++, +-, -+, -- of
    each pair (i[q], j[q]), i < j.
    """
    k = 2 * n
    eye = np.eye(k)
    i, j = np.triu_indices(k, 1)
    first = np.array([s * eye[a] for a in range(k) for s in (1, -1)])
    second = np.array([s * eye[a] for a in range(k) for s in (1, -1)]
                      + [si * eye[a] + sj * eye[b] for a, b in zip(i, j)
                         for si in (1, -1) for sj in (1, -1)])
    for a in (first, second, i, j):
        a.flags.writeable = False
    return first, second, (i, j)


class LagrangianModel:
    """Base class: nonnegative L(x, eta, p), evaluated and differentiated by rows.

    Subclasses implement ``eval_many``; ``jet_many`` and ``x_jet_many``
    default to central finite differences of it, one ``eval_many`` call on
    all rows of their stencil (41 and 10 rows per row at N=2).  That call
    needs ``eval_many``'s value for a row not to depend on the other rows
    of its batch (``_apply`` keeps products so), and the solver, which
    evaluates many problems in one call, needs the same of ``jet_many``.
    The ``value`` of ``jet_many`` is ``eval_many`` of the same rows,
    bitwise: a Newton step reads its iterate's samples from the jet.
    Models are immutable after construction and all evaluation methods are
    pure.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)

    def eval_many(self, xs: np.ndarray, etas: np.ndarray, ps: np.ndarray) -> np.ndarray:
        """L at every row, shape (M,); non-finite or negative values raise."""
        raise NotImplementedError

    def jet_many(self, xs: np.ndarray, etas: np.ndarray, ps: np.ndarray) -> JetDerivatives:
        """Central-difference jet of ``eval_many`` at every row, from one
        ``eval_many`` call on the stencil's shifted copies of all rows.

        Each row keeps its x.  Its stencil over z = (p, eta) is z itself,
        z +- h1 e_i and z +- h2 e_i for every coordinate, and the corners
        z +- h2 e_i +- h2 e_j for every pair i < j.  The steps are
        h1 = eps^(1/3)*(1+|z_i|) and h2 = eps^(1/4)*(1+|z_i|).  A mixed
        difference is f(++) - f(+-) - f(-+) + f(--), signs of (e_i, e_j),
        taken once and mirrored.
        """
        m, n = ps.shape
        z = np.column_stack([ps, etas])
        k = z.shape[1]
        h1, h2 = _FD_FIRST * (1.0 + np.abs(z)), _FD_SECOND * (1.0 + np.abs(z))
        first_signs, second_signs, (i, j) = _fd_stencil(n)

        def shifted(signs, h):
            signs = signs[:, None, :]
            # an unshifted coordinate keeps its exact value, -0.0 included
            return np.where(signs != 0, z + signs * h, z)

        stencil = np.concatenate([z[None], shifted(first_signs, h1), shifted(second_signs, h2)])
        rows = stencil.reshape(-1, k)
        f = self.eval_many(np.tile(xs, len(stencil)), np.ascontiguousarray(rows[:, n:]),
                           np.ascontiguousarray(rows[:, :n])).reshape(-1, m)

        value, first, diagonal = f[0], f[1 : 2 * k + 1], f[2 * k + 1 : 4 * k + 1]
        corners = f[4 * k + 1 :].reshape(len(i), 4, m)
        grad = ((first[0::2] - first[1::2]) / (2 * h1.T)).T
        hess = np.zeros((m, k, k))
        d = np.arange(k)
        hess[:, d, d] = ((diagonal[0::2] - 2 * value + diagonal[1::2]) / h2.T**2).T
        hess[:, i, j] = hess[:, j, i] = (
            (corners[:, 0] - corners[:, 1] - corners[:, 2] + corners[:, 3])
            / (4 * h2.T[i] * h2.T[j])).T
        # C-ordered fields: numpy may sum the rows of a strided view in another order
        return JetDerivatives(*(np.ascontiguousarray(a) for a in (
            value, grad[:, :n], grad[:, n:], hess[:, :n, :n], hess[:, :n, n:], hess[:, n:, n:])))

    def x_jet_many(self, xs: np.ndarray, etas: np.ndarray,
                   ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(dx, dpx)``, (M,) and (M, N): the x-derivative of L and its
        mixed (p, x) block at every row, non-finite entries as they come.
        The base class differences one ``eval_many`` call on x +- h1 and the
        corners (p +- h2 e_i, x +- h2) of every row, steps as ``jet_many``'s.
        """
        m, n = ps.shape
        h1, h2 = _FD_FIRST * (1.0 + np.abs(xs)), _FD_SECOND * (1.0 + np.abs(xs))
        hp = _FD_SECOND * (1.0 + np.abs(ps))
        x_rows, p_rows = [xs + h1, xs - h1], [ps, ps]
        for i, si, sj in itertools.product(range(n), (1.0, -1.0), (1.0, -1.0)):
            x_rows.append(xs + sj * h2)
            p_rows.append(ps.copy())
            p_rows[-1][:, i] += si * hp[:, i]
        f = self.eval_many(np.concatenate(x_rows), np.tile(etas, (len(x_rows), 1)),
                           np.concatenate(p_rows)).reshape(-1, m)
        corners = f[2:].reshape(n, 4, m)
        dpx = ((corners[:, 0] - corners[:, 1] - corners[:, 2] + corners[:, 3])
               / (4 * hp.T * h2)).T
        return (f[0] - f[1]) / (2 * h1), np.ascontiguousarray(dpx)

    @staticmethod
    def _checked(values: np.ndarray) -> np.ndarray:
        if not np.isfinite(values).all():
            raise NonFinite("Lagrangian evaluation is not finite")
        if (values < 0).any():
            raise SupminError("Lagrangian evaluation is negative")
        return values


def _power_jet(s: float, w: np.ndarray, rho: np.ndarray) -> JetDerivatives:
    """The jet of |p - c|^s at rows w = p - c, with rho = |w| as the model's
    ``eval_many`` computes it, so that the jet's value is bitwise its value.
    At w = 0 for s < 2 it raises NonFinite."""
    n = w.shape[1]
    apex = rho == 0.0
    if s < 2 and np.any(apex):
        # |w|^s has no two-sided jet at w = 0 below quadratic growth
        raise NonFinite("jet of |p - c|^s is singular at p = c for s < 2")
    safe = np.where(apex, 1.0, rho)
    zeros = np.zeros_like(w)
    # an infinite rho (overflow) makes NaN slopes; the jet raises NonFinite
    with np.errstate(over="ignore", invalid="ignore"):
        unit = w / safe[:, None]
        value = rho**s
        dp = (s * rho ** (s - 1))[:, None] * unit
        dpp = (s * safe ** (s - 2))[:, None, None] * (
            np.eye(n) + (s - 2) * unit[:, :, None] * unit[:, None, :])
    dpp[apex] = 2.0 * np.eye(n) if s == 2 else 0.0
    return JetDerivatives(value, dp, zeros, dpp, np.zeros_like(dpp), np.zeros_like(dpp))


def _velocity_dim(A: np.ndarray, c: SampledSignal) -> int:
    """N for the velocity field V(x, eta) = A eta + c(x): A must be N x N and
    the signal c have N value columns."""
    rows, cols = A.shape
    if rows != cols:
        raise SupminError(f"A must be square, got {rows}x{cols}")
    if c.dim != rows:
        raise SupminError(f"c has {c.dim} value column(s), A is {rows}x{rows}")
    return rows


def _deviation(A: np.ndarray, c: SampledSignal, xs, etas, ps) -> np.ndarray:
    """Rows of w = p - V(x, eta), V(x, eta) = A eta + c(x)."""
    return ps - (_apply(A, etas) + c.eval_many(xs))


class DataAssimilationModel(LagrangianModel):
    """Squared observation mismatch plus squared law-of-motion mismatch:
    L = |k(x) - K eta|^2 + |p - V(x, eta)|^2 with V(x, eta) = A eta + c(x).

    The second-order blocks of its jet do not depend on the row: ``dpp`` is
    2I, ``dpeta`` -2A and ``detaeta`` 2K^T K + 2A^T A.  They are built once,
    with the factors -2K^T and 2A^T of ``deta``, and ``jet_many`` returns
    read-only broadcasts of them."""

    def __init__(self, K, k: SampledSignal, A, c: SampledSignal):
        K = _mat(K, "K")
        A = _mat(A, "A")
        n = _velocity_dim(A, c)
        if K.shape[1] != n:
            raise SupminError(f"K has {K.shape[1]} columns, A is {n}x{n}")
        if k.dim != K.shape[0]:
            raise SupminError(f"k has {k.dim} value column(s), K has {K.shape[0]} row(s)")
        super().__init__(n)
        self.K = K
        self.k = k
        self.A = A
        self.c = c
        # what every jet shares: the factors of deta, and dpp, dpeta, detaeta
        with np.errstate(over="ignore", invalid="ignore"):
            self._deta_factors = (-2.0 * K.T, 2.0 * A.T)
            self._blocks = (2.0 * np.eye(n), -2.0 * A, 2.0 * (K.T @ K) + 2.0 * (A.T @ A))
        # an entry of K or A whose double overflows overflows its square on
        # this block's diagonal, so the other blocks are finite if this one is
        if not np.isfinite(self._blocks[2]).all():
            raise SupminError("K and A are too large: 2 K^T K + 2 A^T A overflows")
        for a in (*self._deta_factors, *self._blocks):
            a.flags.writeable = False

    def _mismatches(self, xs, etas, ps):
        """Rows of r = k(x) - K eta and w = p - V(x, eta)."""
        r = self.k.eval_many(xs) - _apply(self.K, etas)
        return r, _deviation(self.A, self.c, xs, etas, ps)

    def eval_many(self, xs, etas, ps):
        with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFinite
            r, w = self._mismatches(xs, etas, ps)
            return self._checked((r * r).sum(axis=1) + (w * w).sum(axis=1))

    def jet_many(self, xs, etas, ps):
        shape = (len(ps), self.dim, self.dim)
        dpp, dpeta, detaeta = (np.broadcast_to(b, shape) for b in self._blocks)
        k_t, a_t = self._deta_factors
        # an overflowing row makes inf and NaN entries; the jet raises NonFinite
        with np.errstate(over="ignore", invalid="ignore"):
            r, w = self._mismatches(xs, etas, ps)
            return JetDerivatives((r * r).sum(axis=1) + (w * w).sum(axis=1), 2.0 * w,
                                  _apply(k_t, r) - _apply(a_t, w), dpp, dpeta, detaeta)

    def x_jet_many(self, xs, etas, ps):
        kdx = self.k.derivative_many(xs)
        cdx = self.c.derivative_many(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            r, w = self._mismatches(xs, etas, ps)
            return 2.0 * (r * kdx).sum(axis=1) - 2.0 * (w * cdx).sum(axis=1), -2.0 * cdx


@dataclass(frozen=True)
class RadialProfile:
    """Strictly increasing scalar profile f with derivatives, f(t) >= 0 for
    t >= 0; each callable takes a float or an array of them."""

    f: Callable[[float], float]
    df: Callable[[float], float]
    ddf: Callable[[float], float]


def radial_profile(name: str, *, beta: float = 0.0, gamma: float = 1.0) -> RadialProfile:
    """Profiles: shift t+beta (finite beta >= 0; t itself at the default
    beta = 0), power (1+t)^gamma - 1 (finite gamma > 0)."""
    if name == "shift":
        if not 0 <= beta < np.inf:
            raise SupminError("shift profile needs beta >= 0, finite")
        return RadialProfile(lambda t: t + beta, lambda t: 1.0, lambda t: 0.0)
    if name == "power":
        if not 0 < gamma < np.inf:
            raise SupminError("power profile needs gamma > 0, finite")
        return RadialProfile(
            lambda t: (1.0 + t) ** gamma - 1.0,
            lambda t: gamma * (1.0 + t) ** (gamma - 1.0),
            lambda t: gamma * (gamma - 1.0) * (1.0 + t) ** (gamma - 2.0),
        )
    raise SupminError(f"unknown radial profile '{name}'")


class RadialModel(LagrangianModel):
    """L = f(|p - V(x, eta)|^2 / 2), an increasing profile of the squared
    deviation from the velocity field V(x, eta) = A eta + c(x)."""

    def __init__(self, profile: RadialProfile, A, c: SampledSignal):
        A = _mat(A, "A")
        super().__init__(_velocity_dim(A, c))
        self.profile = profile
        self.A = A
        self.c = c

    def eval_many(self, xs, etas, ps):
        with np.errstate(over="ignore", invalid="ignore"):  # surfaces as NonFinite
            w = _deviation(self.A, self.c, xs, etas, ps)
            return self._checked(self.profile.f(0.5 * np.sum(w * w, axis=1)))

    def _profile_terms(self, xs, etas, ps):
        """Rows of w = p - V(x, eta), t = |w|^2 / 2, f'(t) and f''(t), the
        last two as columns."""
        w = _deviation(self.A, self.c, xs, etas, ps)
        t = 0.5 * np.sum(w * w, axis=1)
        f1 = np.broadcast_to(self.profile.df(t), t.shape)[:, None]
        f2 = np.broadcast_to(self.profile.ddf(t), t.shape)[:, None]
        return w, t, f1, f2

    def jet_many(self, xs, etas, ps):
        # an overflowing row makes inf and NaN entries; the jet raises NonFinite
        with np.errstate(over="ignore", invalid="ignore"):
            w, t, f1, f2 = self._profile_terms(xs, etas, ps)
            at_w = _apply(self.A.T, w)
            return JetDerivatives(
                self.profile.f(t), f1 * w, -f1 * at_w,
                f1[:, :, None] * np.eye(self.dim) + f2[:, :, None] * w[:, :, None] * w[:, None, :],
                -f2[:, :, None] * w[:, :, None] * at_w[:, None, :] - f1[:, :, None] * self.A,
                f1[:, :, None] * (self.A.T @ self.A)
                + f2[:, :, None] * at_w[:, :, None] * at_w[:, None, :],
            )

    def x_jet_many(self, xs, etas, ps):
        cdx = self.c.derivative_many(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            w, _, f1, f2 = self._profile_terms(xs, etas, ps)
            w_cdx = np.sum(w * cdx, axis=1)[:, None]
            return (-f1 * w_cdx)[:, 0], -f2 * w_cdx * w - f1 * cdx


class CustomModel(LagrangianModel):
    """Model from a callable fn(xs, etas, ps) of rows, (M,), (M, N), (M, N),
    that returns L at each row, (M,); jets by finite differences.  ``fn``
    is called once per ``eval_many`` call and once per ``jet_many`` call,
    and a row's value must not depend on the other rows of its batch."""

    def __init__(self, fn: Callable, dim: int):
        super().__init__(dim)
        self.fn = fn

    def eval_many(self, xs, etas, ps):
        values = np.asarray(self.fn(xs, etas, ps), dtype=float)
        if values.shape != (len(xs),):  # rather than broadcast
            raise SupminError(f"custom model fn returned shape {values.shape}, "
                              f"expected ({len(xs)},)")
        return self._checked(values)


class MinOfNormsModel(LagrangianModel):
    """L = min_k |p - center_k|^s: level-convex only when a single center
    remains; the canonical counterexample with two centers."""

    def __init__(self, centers, exponent: float = 1.0):
        centers = _mat(centers, "centers")
        super().__init__(centers.shape[1])
        if not (exponent > 0 and np.isfinite(exponent)):
            raise SupminError("exponent must be positive and finite")
        self.centers = centers
        self.exponent = float(exponent)

    def eval_many(self, xs, etas, ps):
        with np.errstate(over="ignore"):  # overflow surfaces as NonFinite
            nearest = np.minimum.reduce([_squared_distances(ps, c) for c in self.centers])
            # sqrt is monotone and correctly rounded: the root of the least
            # square is the least distance, bitwise
            return self._checked(np.sqrt(nearest) ** self.exponent)

    def jet_many(self, xs, etas, ps):
        """The jet of |p - c|^s at the nearest center c, the first on a tie
        (``argmin``'s rule): one-sided where two centers are equally near."""
        with np.errstate(over="ignore"):
            squares = np.array([_squared_distances(ps, c) for c in self.centers])
            nearest = np.argmin(squares, axis=0)
            w = ps - self.centers[nearest]
        return _power_jet(self.exponent, w, np.sqrt(squares[nearest, np.arange(len(ps))]))

    def x_jet_many(self, xs, etas, ps):
        return np.zeros(len(ps)), np.zeros_like(ps)  # L does not read x


class PowerNormModel(MinOfNormsModel):
    """L = |p - offset|^s, level-convex for every s > 0: the min of norms
    with the one center ``offset``."""

    def __init__(self, exponent: float, offset):
        super().__init__([_vec(offset, "offset")], exponent)


class ScaledModel(LagrangianModel):
    """factor * L for a positive factor; jets scale exactly."""

    def __init__(self, inner: LagrangianModel, factor: float):
        if factor <= 0 or not np.isfinite(factor):
            raise SupminError("scale factor must be positive and finite")
        super().__init__(inner.dim)
        self.inner = inner
        self.factor = float(factor)

    def eval_many(self, xs, etas, ps):
        values = self.inner.eval_many(xs, etas, ps)
        with np.errstate(over="ignore"):  # overflow surfaces as NonFinite
            return self._checked(self.factor * values)

    def jet_many(self, xs, etas, ps):
        jet = self.inner.jet_many(xs, etas, ps)
        with np.errstate(over="ignore"):
            return jet.map(lambda v: self.factor * v)

    def x_jet_many(self, xs, etas, ps):
        dx, dpx = self.inner.x_jet_many(xs, etas, ps)
        with np.errstate(over="ignore"):
            return self.factor * dx, self.factor * dpx


# -- sampling certifications --------------------------------------------------

# Points per eval_many call of the samplers.  A call's temporaries grow with
# its rows: ``check`` of the min-norms benchmark config (140,000 level-convexity
# points) peaks 8.3 MB higher in blocks of 100,000 points than in blocks of 64,
# and 0.4 MB higher in blocks of 4,096 (peak RSS).  So the samplers evaluate in
# blocks of whole samples up to this many points.
_SAMPLE_ROWS = 4096
# Mixes per sampled segment of ``check_level_convexity``: lambda = 1/6, ..., 5/6.
T_LEVELS = 5


@dataclass(frozen=True)
class Box:
    """Coordinate ranges for sampling (x, eta, p); eta/p ranges apply per axis."""

    x: tuple[float, float] = (0.0, 1.0)
    eta: tuple[float, float] = (-5.0, 5.0)
    p: tuple[float, float] = (-5.0, 5.0)

    def __post_init__(self):
        for lo, hi in (self.x, self.eta, self.p):
            if not (lo <= hi and np.isfinite(float(hi) - float(lo))):  # so lo and hi are finite
                raise SupminError("box ranges need lo <= hi and a finite width hi - lo")


@dataclass(frozen=True)
class SamplePlan:
    num_triples: int = 500
    box: Box = field(default_factory=Box)
    seed: int = 0

    def __post_init__(self):
        check_count(self.num_triples, 1, "sample plan needs num_triples >= 1, an integer")
        check_count(self.seed, 0, "sample plan seed must be an integer >= 0")


@dataclass(frozen=True)
class LevelConvexityWitness:
    x: float
    eta: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    lam: float
    mixed_value: float
    end_max: float


@dataclass(frozen=True)
class CheckResult:
    """A sampling check's witnesses; the growth check also reports the least
    slack found on each side, ``{"lower": ..., "upper": ...}``."""

    witnesses: list
    worst_margins: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_json_dict(self) -> dict:
        doc = {"pass": self.passed}
        if self.worst_margins is not None:
            doc["worst_margins"] = self.worst_margins
        doc["witness_count"] = len(self.witnesses)
        doc["witnesses"] = [{"lambda" if f.name == "lam" else f.name: getattr(w, f.name)
                             for f in fields(w)} for w in self.witnesses[:20]]
        return doc


def sample_tolerance(value):
    """Slack 1e-9 * (1 + |value|) of both checks' comparisons, absorbing
    floating-point noise on exact-equality cases."""
    return 1e-9 * (1.0 + np.abs(value))


def _sample_blocks(plan: SamplePlan, dim: int, num_p: int, points_per_sample: int):
    """Uniform samples of the plan's box in blocks of whole samples, at most
    _SAMPLE_ROWS points each.

    Yields x (k,), eta (k, N) and p (k, num_p, N), drawn in the order of
    per-sample ``rng.uniform`` calls for x, eta, p_1, ..., p_num_p.
    """
    box = plan.box
    lo = np.array([box.x[0]] + [box.eta[0]] * dim + [box.p[0]] * (num_p * dim))
    hi = np.array([box.x[1]] + [box.eta[1]] * dim + [box.p[1]] * (num_p * dim))
    rng = np.random.default_rng(plan.seed)
    step = max(1, _SAMPLE_ROWS // points_per_sample)
    for start in range(0, plan.num_triples, step):
        s = lo + (hi - lo) * rng.random((min(step, plan.num_triples - start), lo.size))
        yield s[:, 0], s[:, 1 : 1 + dim], s[:, 1 + dim :].reshape(-1, num_p, dim)


def check_level_convexity(model: LagrangianModel, plan: SamplePlan | None = None) -> CheckResult:
    """Sample segments in p-space and flag L(mix) > max(L(p1), L(p2)) + tol
    at ``T_LEVELS`` evenly spaced interior mixes of each,
    tol = ``sample_tolerance(max(L(p1), L(p2)))``; each flagged mix is a
    ``LevelConvexityWitness``, by sample, then by lambda.  Each block of k
    samples is one ``eval_many`` call of at most ``_SAMPLE_ROWS`` rows, in
    order of point kind: the k p1's, the k p2's, then the k mixes of each
    lambda, each row with its sample's x and eta.

    Necessary-only evidence: a pass certifies nothing beyond the samples.
    """
    plan = plan or SamplePlan()
    lams = np.linspace(0.0, 1.0, T_LEVELS + 2)[1:-1]
    kinds = 2 + lams.size
    witnesses = []
    for x, eta, ends in _sample_blocks(plan, model.dim, 2, kinds):
        points = np.empty((kinds, len(x), model.dim))
        for j in range(model.dim):
            p1, p2 = ends[:, 0, j], ends[:, 1, j]
            points[0, :, j], points[1, :, j] = p1, p2
            points[2:, :, j] = np.multiply.outer(lams, p1) + np.multiply.outer(1.0 - lams, p2)
        values = model.eval_many(np.tile(x, kinds), np.tile(eta, (kinds, 1)),
                                 points.reshape(-1, model.dim)).reshape(kinds, -1)
        end_max = np.maximum(values[0], values[1])
        mixed = values[2:]
        i, j = np.nonzero((mixed > end_max + sample_tolerance(end_max)).T)
        witnesses += map(LevelConvexityWitness, x[i].tolist(), eta[i], ends[i, 0], ends[i, 1],
                         lams[j].tolist(), mixed[j, i].tolist(), end_max[i].tolist())
    return CheckResult(witnesses)


@dataclass(frozen=True)
class GrowthWitness:
    x: float
    eta: np.ndarray
    p: np.ndarray
    value: float
    bound: float
    side: str  # "lower" or "upper"


_SIDES = ("lower", "upper")


def check_growth_bounds(model: LagrangianModel, growth: GrowthParams,
                        plan: SamplePlan | None = None) -> CheckResult:
    """Sample (x, eta, p) and check both sides of the growth bound: a side
    whose slack (L - lower or upper - L) is below ``-sample_tolerance(L)``
    is a ``GrowthWitness``, lower before upper for each sample.
    ``worst_margins`` reports the least slack found on each side."""
    plan = plan or SamplePlan()
    margins = np.full(2, np.inf)
    witnesses = []
    for x, eta, ps in _sample_blocks(plan, model.dim, 1, 1):
        p = ps[:, 0]
        val = model.eval_many(x, eta, p)
        with np.errstate(over="ignore", invalid="ignore"):
            pn = np.sqrt(_squared_distances(p, np.zeros(model.dim)))
            # a zero coefficient makes a zero term, also where its power overflows
            lower, upper = (np.where(c == 0, 0.0, c * pn**e)
                            for c, e in ((growth.C1, growth.q), (growth.h_bound, growth.r)))
        bounds = np.stack([lower - growth.C2, upper + growth.C3])
        slack = np.stack([val - bounds[0], bounds[1] - val])
        margins = np.minimum(margins, slack.min(axis=1))
        i, side = np.nonzero((slack < -sample_tolerance(val)).T)
        witnesses += map(GrowthWitness, x[i].tolist(), eta[i], p[i], val[i].tolist(),
                         bounds[side, i].tolist(), (_SIDES[s] for s in side))
    return CheckResult(witnesses, dict(zip(_SIDES, margins.tolist())))
