"""Grids, piecewise-linear vector paths, affine boundary maps, difference quotients.

A path u : [a, b] -> R^N is stored by its nodal values on a strictly
increasing grid and interpolated linearly inside each element, so its
derivative is element-wise constant.  This is the discrete stand-in for
Lipschitz candidates throughout the package.  ``Path.to_csv`` and
``Path.from_csv`` write and read a path as a CSV file named by its path; the
writing goes through ``_io.write_csv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .errors import SupminError, check_count


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Strictly increasing nodes x_0 < ... < x_M with at least two elements."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _readonly(self.nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise SupminError("grid needs at least 3 nodes")
        if not np.all(np.isfinite(nodes)):
            raise SupminError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise SupminError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, a: float, b: float, num_nodes: int) -> "Grid":
        check_count(num_nodes, 3, "grid needs at least 3 nodes, an integer")
        return cls(np.linspace(float(a), float(b), num_nodes))

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def num_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def element_lengths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def is_uniform(self) -> bool:
        h = self.element_lengths
        return bool(np.max(h) - np.min(h) <= 1e-12 * np.max(h))


@dataclass(frozen=True)
class Path:
    """Nodal values of a piecewise-linear map from the grid interval to R^N."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != self.grid.nodes.size:
            raise SupminError("values must have one row per grid node")
        if not np.all(np.isfinite(values)):
            raise SupminError("path values must be finite")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def element_slopes(self) -> np.ndarray:
        """Constant derivative of each element, shape (M, N)."""
        return np.diff(self.values, axis=0) / self.grid.element_lengths[:, None]

    def to_csv(self, path) -> None:
        """Write `x,u1,...,uN` rows at full double precision (17 significant digits)."""
        header = ["x"] + [f"u{k + 1}" for k in range(self.dim)]
        write_csv(path, header, ([x, *row] for x, row in zip(self.grid.nodes, self.values)))

    @classmethod
    def from_csv(cls, path) -> "Path":
        with open(path) as file:
            header = file.readline().strip()
            if not header.startswith("x,"):
                raise SupminError("path CSV must start with header 'x,u1,...'")
            lines = [line.strip().split(",") for line in file if line.strip()]
        if not lines:
            raise SupminError("path CSV has no data rows")
        width = len(header.split(","))  # at least 2, as the header starts with "x,"
        if any(len(row) != width for row in lines):
            raise SupminError(f"path CSV rows must all have the header's {width} columns")
        try:
            rows = [[float(tok) for tok in row] for row in lines]
        except ValueError:
            raise SupminError("path CSV values must be numbers") from None
        data = np.array(rows, dtype=float)
        return cls(Grid(data[:, 0]), data[:, 1:])


@dataclass(frozen=True)
class AffineMap:
    """Boundary data x -> b0 + b1 * x."""

    b0: np.ndarray
    b1: np.ndarray

    def __post_init__(self):
        b0 = _readonly(np.atleast_1d(self.b0))
        b1 = _readonly(np.atleast_1d(self.b1))
        if b0.shape != b1.shape or b0.ndim != 1:
            raise SupminError("b0 and b1 must be vectors of equal length")
        if not (np.all(np.isfinite(b0)) and np.all(np.isfinite(b1))):
            raise SupminError("affine map coefficients must be finite")
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "b1", b1)

    @property
    def dim(self) -> int:
        return self.b0.size

    def __call__(self, x: float) -> np.ndarray:
        return self.b0 + self.b1 * float(x)


def interpolate_affine(bmap: AffineMap, grid: Grid) -> Path:
    """Nodal sampling of the affine map: values[i] = b0 + b1 * x_i exactly."""
    values = bmap.b0[None, :] + grid.nodes[:, None] * bmap.b1[None, :]
    return Path(grid, values)


def _containing_element(grid: Grid, x: float) -> int:
    # Left element at interior nodes (tie-break rule); clamped at the ends.
    idx = int(np.searchsorted(grid.nodes, x, side="left"))
    return min(max(idx - 1, 0), grid.num_elements - 1)


def eval_and_slope(path: Path, x: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Interpolated value, element slope and element index at x; left element
    wins at nodes."""
    x = float(x)
    if not path.grid.a <= x <= path.grid.b:  # written so that NaN fails it
        raise SupminError(f"x={x} outside [{path.grid.a}, {path.grid.b}]")
    e = _containing_element(path.grid, x)
    x0 = path.grid.nodes[e]
    slope = (path.values[e + 1] - path.values[e]) / (path.grid.nodes[e + 1] - x0)
    return path.values[e] + (x - x0) * slope, slope, e


def difference_quotient(path: Path, y: float, t: float) -> np.ndarray:
    """(u(y+t) - u(y)) / t for y, y+t in [a, b], t != 0.

    For piecewise-linear paths this equals the element-length-weighted
    average of the element slopes between y and y+t, within 8*eps*scale
    where scale = ``quotient_scale(path, y, t)``.
    """
    t = float(t)
    if t == 0.0:
        raise SupminError("difference quotient needs t != 0")
    return (eval_and_slope(path, y + t)[0] - eval_and_slope(path, y)[0]) / t


def quotient_scale(path: Path, y: float, t: float) -> float:
    """Floating-point error scale of the difference-quotient identity."""
    lo, hi = (y, y + t) if t > 0 else (y + t, y)
    nodes = path.grid.nodes
    spanned = (nodes[1:] > lo) & (nodes[:-1] < hi)
    node_mask = np.zeros(nodes.size, dtype=bool)
    node_mask[:-1] |= spanned
    node_mask[1:] |= spanned
    umax = float(np.max(np.abs(path.values[node_mask]))) if node_mask.any() else 0.0
    return (int(np.count_nonzero(spanned)) + 4) * (1.0 + umax) / abs(t)

