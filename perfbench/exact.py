"""The benchmark's own checks of the CLI's outputs, written without supmin.

``candidate_sup`` is the exact sup of L along a piecewise-linear path.  For
``data_assimilation`` L is a sum of squares of functions that are affine in x
between breakpoints (element ends and the knots of the signals k and c), so
on every such piece it is a convex quadratic and its maximum sits at a piece
end: the max over element endpoints and the knots inside each element is
exact.  For ``min_norms`` L depends on the slope alone and is constant on each
element.  Arithmetic is plain Python floats, independent of numpy.
"""

from __future__ import annotations

import bisect
import math


def interp(x: float, xs: list, fs: list) -> float:
    """Piecewise-linear interpolation, constant outside the knots (numpy.interp)."""
    if x <= xs[0]:
        return fs[0]
    if x >= xs[-1]:
        return fs[-1]
    j = bisect.bisect_right(xs, x) - 1
    if x == xs[j]:
        return fs[j]
    slope = (fs[j + 1] - fs[j]) / (xs[j + 1] - xs[j])
    return slope * (x - xs[j]) + fs[j]


class _Signal:
    def __init__(self, rows):
        self.xs = [float(r[0]) for r in rows]
        self.cols = [[float(r[i]) for r in rows] for i in range(1, len(rows[0]))]

    def __call__(self, x):
        return [interp(x, self.xs, col) for col in self.cols]


def _matvec(m, v):
    return [sum(mij * vj for mij, vj in zip(row, v)) for row in m]


def lagrangian(lag: dict):
    """L(x, eta, p) for a config's ``lagrangian`` section, plus its knots."""
    kind = lag["kind"]
    if kind == "data_assimilation":
        K, A = lag["K"], lag["A"]
        k, c = _Signal(lag["k"]), _Signal(lag["c"])

        def L(x, eta, p):
            r = [ki - kei for ki, kei in zip(k(x), _matvec(K, eta))]
            w = [pi - (ai + ci) for pi, ai, ci in zip(p, _matvec(A, eta), c(x))]
            return sum(v * v for v in r) + sum(v * v for v in w)

        return L, sorted(set(k.xs) | set(c.xs))
    if kind == "min_norms":
        centers, s = lag["centers"], float(lag.get("exponent", 1.0))

        def L(x, eta, p):
            return min(math.sqrt(sum((pi - ci) ** 2 for pi, ci in zip(p, ctr)))
                       for ctr in centers) ** s

        return L, []
    raise ValueError(f"no exact evaluator for model kind '{kind}'")


def read_path(csv_file) -> tuple[list, list]:
    """(nodes, values) of a path CSV with header ``x,u1,...,uN``."""
    with open(csv_file) as fh:
        header = fh.readline()
        if not header.startswith("x,"):
            raise ValueError(f"{csv_file}: bad header {header!r}")
        rows = [[float(t) for t in line.split(",")] for line in fh if line.strip()]
    return [r[0] for r in rows], [r[1:] for r in rows]


def candidate_sup(cfg: dict, nodes: list, values: list) -> float:
    """Exact sup of L along the path: element endpoints plus interior knots."""
    L, knots = lagrangian(cfg["lagrangian"])
    best = -math.inf
    for i in range(len(nodes) - 1):
        x0, x1 = nodes[i], nodes[i + 1]
        u0, u1 = values[i], values[i + 1]
        p = [(b - a) / (x1 - x0) for a, b in zip(u0, u1)]
        best = max(best, L(x0, u0, p), L(x1, u1, p))
        lo = bisect.bisect_right(knots, x0)
        hi = bisect.bisect_left(knots, x1)
        for xk in knots[lo:hi]:
            best = max(best, L(xk, [a + (xk - x0) * pj for a, pj in zip(u0, p)], p))
    return best


def drift_oracle(cfg: dict) -> float:
    """|kappa|^2, kappa = (b1 (b - a) - int_a^b c) / (b - a), trapezoid over c's knots."""
    a, b = cfg["domain"]
    rows = cfg["lagrangian"]["c"]
    if rows[0][0] > a or rows[-1][0] < b:
        raise ValueError("drift oracle needs c's knots to cover the domain")
    dim = len(rows[0]) - 1
    integral = [0.0] * dim
    for r0, r1 in zip(rows, rows[1:]):
        for i in range(dim):
            integral[i] += (r1[0] - r0[0]) * (r0[i + 1] + r1[i + 1]) / 2.0
    b1 = cfg["boundary"]["b1"]
    kappa = [(b1[i] * (b - a) - integral[i]) / (b - a) for i in range(dim)]
    return sum(v * v for v in kappa)


def oracle(kind: str | None, cfg: dict) -> float | None:
    if kind == "drift":
        return drift_oracle(cfg)
    if kind == "one":
        return 1.0  # min-of-norms zigzag: slopes alternate between the two centres
    return None


def check_candidate(cfg: dict, csv_file, oracle_value: float | None):
    """(candidate_sup, problems) of ``candidate.csv`` against its config."""
    nodes, values = read_path(csv_file)
    problems = []
    if len(nodes) != cfg["grid_points"]:
        problems.append(f"{len(nodes)} nodes, expected {cfg['grid_points']}")
    a, b = cfg["domain"]
    b0, b1 = cfg["boundary"]["b0"], cfg["boundary"]["b1"]
    for x, got in ((a, values[0]), (b, values[-1])):
        want = [c0 + c1 * x for c0, c1 in zip(b0, b1)]
        if got != want:
            problems.append(f"endpoint at x={x!r} is {got}, expected {want}")
    sup = candidate_sup(cfg, nodes, values)
    if not math.isfinite(sup):
        problems.append(f"candidate sup {sup} is not finite")
    elif oracle_value is not None and sup < oracle_value * (1.0 - 1e-12):
        problems.append(f"candidate sup {sup!r} is below the oracle {oracle_value!r}")
    return sup, problems
