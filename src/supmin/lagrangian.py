"""Lagrangian models L(x, eta, p) >= 0 with jets and hypothesis checkers.

Arguments follow the convention (x, eta, p): position in the interval, map
value in R^N, derivative in R^N.  A model answers two batched calls on rows
xs (M,), etas (M, N), ps (M, N):

* ``eval_many`` the values of L, shape (M,);
* ``jet_many``  the values with every first and second derivative, one
  ``JetDerivatives`` whose fields carry a leading row axis.  The power
  energy's gradient and Hessian (``MidpointPowerRule.derivatives``) read
  ``dp``, ``deta`` and the (eta, p) blocks of one such jet; the residual
  profile reads ``dx`` and ``dpx`` too.

``eval`` and ``jet`` are their one-row cases; like every entry point that
takes points or paths, they reject a point or path whose width is not the
model's ``dim`` (``check_width``).  Each constructor checks that its fields
agree in shape, and its message names the fields it compares.  The base
class derives ``jet_many`` from ``eval_many`` by central finite
differences, one call on every shifted row of the stencil (51 rows per row
at N=2); the analytic families override it.
Built-in families:

* ``PowerNormModel``        L = |p - offset|^s
* ``DataAssimilationModel`` L = |k(x) - K eta|^2 + |p - (A eta + c(x))|^2
* ``RadialModel``           L = f(|p - (A eta + c(x))|^2 / 2) for an increasing profile f
* ``MinOfNormsModel``       L = min_k |p - center_k|^s, finite-difference jets
* ``CustomModel``           user callable of one row, finite-difference jets

``check_level_convexity`` and ``check_growth_bounds`` are sampling
certifications: a pass is evidence, never a proof.  The growth bounds
(``GrowthParams``) are a setting of that check, not of a model: the run
config carries its ``lagrangian.growth`` block to ``check_growth_bounds``.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, fields
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
    a = np.atleast_2d(a)
    if a.ndim != 2 or not np.all(np.isfinite(a)):
        raise SupminError(f"{name} must be a finite matrix")
    a.flags.writeable = False
    return a


def _apply(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat @ row for every row, summed row by row: BLAS rounds a one-row
    product differently from a many-row one, and a row's result must not
    depend on the batch it came in."""
    return np.sum(rows[:, None, :] * mat[None, :, :], axis=2)


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
        """Rows [x, v1, ..., vD], strictly increasing in x."""
        data = np.atleast_2d(np.array(rows, dtype=float))
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
    c1*|p|^q - c2 <= L <= h(x,eta)*|p|^r + c3."""

    c1: float
    c2: float
    c3: float
    q: float
    r: float
    h_bound: float | Callable[[float, np.ndarray], float] = 1.0

    def __post_init__(self):
        if not all(c >= 0 for c in (self.c1, self.c2, self.c3)):
            raise SupminError("growth constants must be nonnegative")
        if not (0 < self.q <= self.r < np.inf):
            raise SupminError("0 < q <= r required")
        if not (callable(self.h_bound) or 0 <= self.h_bound < np.inf):
            raise SupminError("h_bound must be finite and nonnegative")

    def envelope(self, x: float, eta: np.ndarray) -> float:
        """h(x, eta); a callable envelope that returns a non-finite value
        raises ``NonFinite``, since no comparison with it can fail."""
        if not callable(self.h_bound):
            return float(self.h_bound)
        value = float(self.h_bound(x, eta))
        if not np.isfinite(value):
            raise NonFinite(f"growth envelope h_bound is not finite at x = {x}")
        return value


@dataclass(frozen=True)
class JetDerivatives:
    """Value and partial derivatives of L at rows (x, eta, p).

    ``dp``/``deta`` are gradients in p and eta, ``dx`` the x-derivative;
    ``dpp``, ``dpeta``, ``dpx`` are the second-order blocks taken against p
    first, and ``detaeta`` the Hessian in eta.  ``dpp`` and ``detaeta`` are
    symmetric.
    From ``jet_many`` every field has a leading row axis: ``value`` and
    ``dx`` (M,), ``dp``, ``deta``, ``dpx`` (M, N), the blocks (M, N, N).
    ``jet`` returns one row without that axis.  Construction rejects
    non-finite entries, once for the whole batch.
    """

    value: np.ndarray
    dp: np.ndarray
    deta: np.ndarray
    dx: np.ndarray
    dpp: np.ndarray
    dpeta: np.ndarray
    dpx: np.ndarray
    detaeta: np.ndarray

    def __post_init__(self):
        if not all(np.all(np.isfinite(getattr(self, f.name))) for f in fields(self)):
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
    signs over z = (p, eta, x), built once per n and read-only:
    ``(first, second, (i, j))``.  ``first`` holds the h1 shifts +-e_i;
    ``second`` the h2 shifts +-e_i but x, then the corners ++, +-, -+, --
    of each pair (i[q], j[q]) that a jet block reports.
    """
    k = 2 * n + 1
    eye = np.eye(k)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if i < n or j < k - 1]
    first = np.array([s * eye[i] for i in range(k) for s in (1, -1)])
    second = np.array([s * eye[i] for i in range(k - 1) for s in (1, -1)]
                      + [si * eye[i] + sj * eye[j] for i, j in pairs
                         for si in (1, -1) for sj in (1, -1)])
    i, j = np.array(pairs).T
    for a in (first, second, i, j):
        a.flags.writeable = False
    return first, second, (i, j)


def _one_row(model, x, eta, p):
    etas = np.asarray(eta, dtype=float).reshape(1, -1)
    ps = np.asarray(p, dtype=float).reshape(1, -1)
    check_width(model, eta=etas, p=ps)
    return np.array([float(x)]), etas, ps


class LagrangianModel:
    """Base class: nonnegative L(x, eta, p), evaluated and differentiated by rows.

    Subclasses implement ``eval_many``; ``jet_many`` defaults to central
    finite differences of it, one ``eval_many`` call on all rows of the
    stencil (51 rows per row at N=2).  That call needs ``eval_many``'s value
    for a row not to depend on the other rows of its batch (``_apply``
    keeps products so), and the solver, which evaluates many problems in
    one call, needs the same of ``jet_many``.  The ``value`` of
    ``jet_many`` is ``eval_many`` of the same rows, bitwise: a Newton step
    reads its iterate's samples from the jet.  Models are immutable after
    construction and all evaluation methods are pure.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)

    def eval_many(self, xs: np.ndarray, etas: np.ndarray, ps: np.ndarray) -> np.ndarray:
        """L at every row, shape (M,); non-finite or negative values raise."""
        raise NotImplementedError

    def jet_many(self, xs: np.ndarray, etas: np.ndarray, ps: np.ndarray) -> JetDerivatives:
        """Central-difference jet of ``eval_many`` at every row, from one
        ``eval_many`` call on the stencil's shifted copies of all rows.

        A row is a point z = (p, eta, x).  Its stencil is z itself,
        z +- h1 e_i for every coordinate, z +- h2 e_i for every coordinate
        but x, and the corners z +- h2 e_i +- h2 e_j for every pair i < j
        that a block reports: (p, p), (p, eta), (p, x) and (eta, eta).  The
        steps are h1 = eps^(1/3)*(1+|z_i|) and h2 = eps^(1/4)*(1+|z_i|).  A
        mixed difference is f(++) - f(+-) - f(-+) + f(--), signs of
        (e_i, e_j), taken once and mirrored.
        """
        m, n = ps.shape
        z = np.column_stack([ps, etas, xs])
        k = z.shape[1]
        h1, h2 = _FD_FIRST * (1.0 + np.abs(z)), _FD_SECOND * (1.0 + np.abs(z))
        first_signs, second_signs, (i, j) = _fd_stencil(n)

        def shifted(signs, h):
            signs = signs[:, None, :]
            # an unshifted coordinate keeps its exact value, -0.0 included
            return np.where(signs != 0, z + signs * h, z)

        rows = np.concatenate([z[None], shifted(first_signs, h1),
                               shifted(second_signs, h2)]).reshape(-1, k)
        f = self.eval_many(*(np.ascontiguousarray(a)
                             for a in (rows[:, -1], rows[:, n:-1], rows[:, :n]))).reshape(-1, m)

        value, first, diagonal = f[0], f[1 : 2 * k + 1], f[2 * k + 1 : 4 * k - 1]
        corners = f[4 * k - 1 :].reshape(len(i), 4, m)
        grad = ((first[0::2] - first[1::2]) / (2 * h1.T)).T
        hess = np.zeros((m, k, k))
        d = np.arange(k - 1)
        hess[:, d, d] = ((diagonal[0::2] - 2 * value + diagonal[1::2]) / h2.T[:-1] ** 2).T
        hess[:, i, j] = hess[:, j, i] = (
            (corners[:, 0] - corners[:, 1] - corners[:, 2] + corners[:, 3])
            / (4 * h2.T[i] * h2.T[j])).T
        eta = slice(n, k - 1)
        # C-ordered fields: numpy may sum the rows of a strided view in another order
        return JetDerivatives(*(np.ascontiguousarray(a) for a in (
            value, grad[:, :n], grad[:, eta], grad[:, -1],
            hess[:, :n, :n], hess[:, :n, eta], hess[:, :n, -1], hess[:, eta, eta])))

    def eval(self, x: float, eta, p) -> float:
        """L at one point."""
        return float(self.eval_many(*_one_row(self, x, eta, p))[0])

    def jet(self, x: float, eta, p) -> JetDerivatives:
        """Jet at one point, fields without the row axis."""
        return self.jet_many(*_one_row(self, x, eta, p)).map(lambda v: v[0])

    @staticmethod
    def _checked(values: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(values)):
            raise NonFinite("Lagrangian evaluation is not finite")
        if np.any(values < 0):
            raise SupminError("Lagrangian evaluation is negative")
        return values


class PowerNormModel(LagrangianModel):
    """L = |p - offset|^s, level-convex for every s > 0."""

    def __init__(self, exponent: float, offset):
        offset = _vec(offset, "offset")
        super().__init__(offset.size)
        if not (exponent > 0 and np.isfinite(exponent)):
            raise SupminError("exponent must be positive and finite")
        self.exponent = float(exponent)
        self.offset = offset

    def eval_many(self, xs, etas, ps):
        with np.errstate(over="ignore"):  # overflow surfaces as NonFinite
            rho = np.sqrt(_squared_distances(ps, self.offset))
            return self._checked(rho**self.exponent)

    def jet_many(self, xs, etas, ps):
        s, n = self.exponent, self.dim
        w = ps - self.offset[None, :]
        with np.errstate(over="ignore"):
            rho = np.sqrt(_squared_distances(ps, self.offset))
        apex = rho == 0.0
        if s < 2 and np.any(apex):
            # |w|^s has no two-sided jet at w = 0 below quadratic growth
            raise NonFinite("power-norm jet is singular at p = offset for s < 2")
        safe = np.where(apex, 1.0, rho)
        unit = w / safe[:, None]
        zeros = np.zeros_like(w)
        # an infinite rho (overflow) makes NaN slopes; the jet raises NonFinite
        with np.errstate(over="ignore", invalid="ignore"):
            value = rho**s
            dp = (s * rho ** (s - 1))[:, None] * unit
            dpp = (s * safe ** (s - 2))[:, None, None] * (
                np.eye(n) + (s - 2) * unit[:, :, None] * unit[:, None, :])
        dpp[apex] = 2.0 * np.eye(n) if s == 2 else 0.0
        return JetDerivatives(value, dp, zeros, np.zeros_like(rho), dpp,
                              np.zeros_like(dpp), zeros, np.zeros_like(dpp))


def _velocity_dim(A: np.ndarray, c: SampledSignal) -> int:
    """N for the velocity field V(x, eta) = A eta + c(x): A must be N x N and
    the signal c have N value columns."""
    rows, cols = A.shape
    if rows != cols:
        raise SupminError(f"A must be square, got {rows}x{cols}")
    if c.dim != rows:
        raise SupminError(f"c has {c.dim} value column(s), A is {rows}x{rows}")
    return rows


class DataAssimilationModel(LagrangianModel):
    """Squared observation mismatch plus squared law-of-motion mismatch:
    L = |k(x) - K eta|^2 + |p - V(x, eta)|^2 with V(x, eta) = A eta + c(x)."""

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

    def _mismatches(self, xs, etas, ps):
        """Rows of r = k(x) - K eta and w = p - V(x, eta)."""
        r = self.k.eval_many(xs) - _apply(self.K, etas)
        w = ps - (_apply(self.A, etas) + self.c.eval_many(xs))
        return r, w

    def eval_many(self, xs, etas, ps):
        r, w = self._mismatches(xs, etas, ps)
        return self._checked(np.sum(r * r, axis=1) + np.sum(w * w, axis=1))

    def jet_many(self, xs, etas, ps):
        r, w = self._mismatches(xs, etas, ps)
        value = np.sum(r * r, axis=1) + np.sum(w * w, axis=1)
        dp = 2.0 * w
        deta = _apply(-2.0 * self.K.T, r) - _apply(2.0 * self.A.T, w)
        kdx = self.k.derivative_many(xs)
        cdx = self.c.derivative_many(xs)
        m, n = w.shape
        return JetDerivatives(
            value, dp, deta,
            2.0 * np.sum(r * kdx, axis=1) - 2.0 * np.sum(w * cdx, axis=1),
            np.broadcast_to(2.0 * np.eye(n), (m, n, n)),
            np.broadcast_to(-2.0 * self.A, (m, n, n)),
            -2.0 * cdx,
            np.broadcast_to(2.0 * (self.K.T @ self.K) + 2.0 * (self.A.T @ self.A), (m, n, n)),
        )


@dataclass(frozen=True)
class RadialProfile:
    """Strictly increasing scalar profile f with derivatives, f(t) >= 0 for
    t >= 0; each callable takes a float or an array of them."""

    f: Callable[[float], float]
    df: Callable[[float], float]
    ddf: Callable[[float], float]


def radial_profile(name: str, *, beta: float = 0.0, gamma: float = 1.0) -> RadialProfile:
    """Profiles: identity t, shift t+beta (finite beta >= 0), power
    (1+t)^gamma - 1 (finite gamma > 0)."""
    if name == "identity":
        return RadialProfile(lambda t: t, lambda t: 1.0, lambda t: 0.0)
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

    def _deviation(self, xs, etas, ps):
        """Rows of w = p - V(x, eta)."""
        return ps - (_apply(self.A, etas) + self.c.eval_many(xs))

    def eval_many(self, xs, etas, ps):
        w = self._deviation(xs, etas, ps)
        return self._checked(self.profile.f(0.5 * np.sum(w * w, axis=1)))

    def jet_many(self, xs, etas, ps):
        w = self._deviation(xs, etas, ps)
        t = 0.5 * np.sum(w * w, axis=1)
        f1 = np.broadcast_to(self.profile.df(t), t.shape)[:, None]
        at_w = _apply(self.A.T, w)
        value, dp, deta = self.profile.f(t), f1 * w, -f1 * at_w
        cdx = self.c.derivative_many(xs)
        f2 = np.broadcast_to(self.profile.ddf(t), t.shape)[:, None]
        w_cdx = np.sum(w * cdx, axis=1)[:, None]
        return JetDerivatives(
            value, dp, deta,
            (-f1 * w_cdx)[:, 0],
            f1[:, :, None] * np.eye(self.dim) + f2[:, :, None] * w[:, :, None] * w[:, None, :],
            -f2[:, :, None] * w[:, :, None] * at_w[:, None, :] - f1[:, :, None] * self.A,
            -f2 * w_cdx * w - f1 * cdx,
            f1[:, :, None] * (self.A.T @ self.A)
            + f2[:, :, None] * at_w[:, :, None] * at_w[:, None, :],
        )


class CustomModel(LagrangianModel):
    """Model from a callable fn(x, eta, p) of one row; jets by finite differences."""

    def __init__(self, fn: Callable, dim: int):
        super().__init__(dim)
        self.fn = fn

    def eval_many(self, xs, etas, ps):
        # fn sees one row at a time
        values = [float(self.fn(float(x), eta, p)) for x, eta, p in zip(xs, etas, ps)]
        return self._checked(np.array(values, dtype=float))


class MinOfNormsModel(LagrangianModel):
    """L = min_k |p - center_k|^s: level-convex only when a single center
    remains; the canonical counterexample with two centers."""

    def __init__(self, centers, exponent: float = 1.0):
        centers = _mat(centers, "centers")
        super().__init__(centers.shape[1])
        if not (exponent > 0 and np.isfinite(exponent)):
            raise SupminError("exponent must be positive")
        self.centers = centers
        self.exponent = float(exponent)

    def eval_many(self, xs, etas, ps):
        with np.errstate(over="ignore"):  # overflow surfaces as NonFinite
            nearest = np.minimum.reduce([_squared_distances(ps, c) for c in self.centers])
            # sqrt is monotone and correctly rounded: the root of the least
            # square is the least distance, bitwise
            return self._checked(np.sqrt(nearest) ** self.exponent)


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


# -- sampling certifications --------------------------------------------------

# Points per eval_many call of the samplers.  A call's temporaries grow with
# its rows: ``check`` of the min-norms benchmark config (140,000 level-convexity
# points) peaks 9.5 MB higher in blocks of 100,000 points than in blocks of 64,
# and 0.3 MB higher in blocks of 4,096.  So the samplers evaluate in blocks of
# whole samples up to this many points.
_SAMPLE_ROWS = 4096


@dataclass(frozen=True)
class Box:
    """Coordinate ranges for sampling (x, eta, p); eta/p ranges apply per axis."""

    x: tuple[float, float] = (0.0, 1.0)
    eta: tuple[float, float] = (-5.0, 5.0)
    p: tuple[float, float] = (-5.0, 5.0)

    def __post_init__(self):
        for lo, hi in (self.x, self.eta, self.p):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise SupminError("box ranges must be finite with lo <= hi")


@dataclass(frozen=True)
class SamplePlan:
    num_triples: int = 500
    box: Box = field(default_factory=Box)
    t_levels: int = 5
    seed: int = 0

    def __post_init__(self):
        for count in (self.num_triples, self.t_levels):
            check_count(count, 1, "sample plan needs num_triples >= 1 and t_levels >= 1, integers")
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

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "eta": list(self.eta),
            "p1": list(self.p1),
            "p2": list(self.p2),
            "lambda": self.lam,
            "mixed_value": self.mixed_value,
            "end_max": self.end_max,
        }


@dataclass(frozen=True)
class LevelConvexityResult:
    witnesses: list

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "witness_count": len(self.witnesses),
            "witnesses": [w.to_json_dict() for w in self.witnesses[:20]],
        }


def level_convexity_tolerance(end_max: float) -> float:
    """Slack absorbing floating-point noise on exact-equality cases."""
    return 1e-9 * (1.0 + end_max)


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


def _eval_points(model: LagrangianModel, x, eta, points) -> np.ndarray:
    """L at points (k, R, N), each taken with its sample's x and eta: (k, R)."""
    k, r, n = points.shape
    return model.eval_many(np.repeat(x, r), np.repeat(eta, r, axis=0),
                           points.reshape(k * r, n)).reshape(k, r)


def check_level_convexity(model: LagrangianModel, plan: SamplePlan | None = None) -> LevelConvexityResult:
    """Sample segments in p-space and flag L(mix) > max(L(p1), L(p2)) + tol.

    Necessary-only evidence: a pass certifies nothing beyond the samples.
    """
    plan = plan or SamplePlan()
    lams = np.linspace(0.0, 1.0, plan.t_levels + 2)[1:-1]
    witnesses = []
    for x, eta, ends in _sample_blocks(plan, model.dim, 2, 2 + lams.size):
        p1, p2 = ends[:, :1], ends[:, 1:]
        mixes = lams[:, None] * p1 + (1.0 - lams)[:, None] * p2
        values = _eval_points(model, x, eta, np.concatenate([ends, mixes], axis=1))
        end_max = np.max(values[:, :2], axis=1)
        mixed = values[:, 2:]
        bad = mixed > (end_max + level_convexity_tolerance(end_max))[:, None]
        witnesses += [
            LevelConvexityWitness(float(x[i]), eta[i].copy(), p1[i, 0].copy(), p2[i, 0].copy(),
                                  float(lams[j]), float(mixed[i, j]), float(end_max[i]))
            for i, j in zip(*np.nonzero(bad))
        ]
    return LevelConvexityResult(witnesses)


@dataclass(frozen=True)
class GrowthWitness:
    x: float
    eta: np.ndarray
    p: np.ndarray
    value: float
    bound: float
    side: str  # "lower" or "upper"


@dataclass(frozen=True)
class GrowthCheckResult:
    lower_margin: float
    upper_margin: float
    witnesses: list

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "worst_margins": {"lower": self.lower_margin, "upper": self.upper_margin},
            "witness_count": len(self.witnesses),
            "witnesses": [asdict(w) for w in self.witnesses[:20]],
        }


def check_growth_bounds(model: LagrangianModel, growth: GrowthParams,
                        plan: SamplePlan | None = None) -> GrowthCheckResult:
    """Sample (x, eta, p) and check both sides of the growth bound; margins
    report the minimal slack found on each side."""
    plan = plan or SamplePlan()
    lower_margin = np.inf
    upper_margin = np.inf
    witnesses = []
    for x, eta, ps in _sample_blocks(plan, model.dim, 1, 1):
        p = ps[:, 0]
        val = _eval_points(model, x, eta, ps)[:, 0]
        pn = np.sqrt(_squared_distances(p, np.zeros(model.dim)))
        if callable(growth.h_bound):
            h = np.array([growth.envelope(xi, ei) for xi, ei in zip(x, eta)])
        else:
            h = float(growth.h_bound)
        lower = growth.c1 * pn**growth.q - growth.c2
        upper = h * pn**growth.r + growth.c3
        tol = 1e-9 * (1.0 + np.abs(val))
        lower_margin = min(lower_margin, float(np.min(val - lower)))
        upper_margin = min(upper_margin, float(np.min(upper - val)))
        low_bad = val - lower < -tol
        up_bad = upper - val < -tol
        for i in np.nonzero(low_bad | up_bad)[0]:
            for bad, bound, side in ((low_bad, lower, "lower"), (up_bad, upper, "upper")):
                if bad[i]:
                    witnesses.append(GrowthWitness(float(x[i]), eta[i].copy(), p[i].copy(),
                                                   float(val[i]), float(bound[i]), side))
    return GrowthCheckResult(float(lower_margin), float(upper_margin), witnesses)
