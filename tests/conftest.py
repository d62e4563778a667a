"""Shared test factories and the acceptance-summary terminal hook."""

import numpy as np
import pytest

import supmin as sm
from supmin.energy import MidpointPowerRule


def one_row(x, *vectors):
    """One point as a batch of one row: x as (1,) and each vector as (1, N),
    the arguments of ``eval_many``, ``jet_many`` and ``aronsson_operator``."""
    return (np.array([x], dtype=float), *(np.array([v], dtype=float) for v in vectors))


def random_grid(rng, max_elements=12, a=0.0, b=1.0):
    m = int(rng.integers(3, max_elements + 1))
    interior = np.sort(rng.uniform(a, b, size=m - 1))
    nodes = np.concatenate([[a], interior, [b]])
    while np.any(np.diff(nodes) <= 1e-6):
        interior = np.sort(rng.uniform(a, b, size=m - 1))
        nodes = np.concatenate([[a], interior, [b]])
    return sm.Grid(nodes)


def random_path(rng, grid=None, dim=None, scale=1.0):
    grid = grid if grid is not None else random_grid(rng)
    dim = dim if dim is not None else int(rng.integers(1, 4))
    return sm.Path(grid, rng.normal(scale=scale, size=(grid.nodes.size, dim)))


def restricted_sup(model, path, i, j):
    """``sup_energy`` of ``path`` over nodes i..j: that of the path restricted
    to the grid of those nodes, ``Path(Grid(nodes[i:j+1]), values[i:j+1])``.
    A grid has at least 3 nodes, so a single element is restricted together
    with a neighbour and keeps only its own sample; the midpoint rule
    samples each element from its own two nodes alone."""
    lo = min(i, path.grid.nodes.size - 3)
    hi = max(j, lo + 2)
    grid = sm.Grid(path.grid.nodes[lo : hi + 1])
    sampled = MidpointPowerRule([grid]).evaluate(model, path.values[lo : hi + 1])
    return float(np.max(sampled[i - lo : j - lo]))


def random_builtin_model(rng, dim):
    """One of the four built-in families with random moderate parameters."""
    kind = rng.integers(0, 4)
    if kind == 3:
        centers = rng.normal(size=(int(rng.integers(2, 4)), dim))
        return sm.MinOfNormsModel(centers, float(rng.uniform(0.5, 4.0)))
    if kind == 0:
        s = float(rng.uniform(0.5, 4.0))
        return sm.PowerNormModel(s, rng.normal(size=dim))
    if kind == 1:
        n_obs = int(rng.integers(1, 3))
        K = rng.normal(scale=0.5, size=(n_obs, dim))
        A = rng.normal(scale=0.3, size=(dim, dim))
        xs = np.linspace(-0.5, 1.5, 5)
        k = sm.SampledSignal(xs, rng.normal(scale=0.5, size=(5, n_obs)))
        c = sm.SampledSignal(xs, rng.normal(scale=0.5, size=(5, dim)))
        return sm.DataAssimilationModel(K, k, A, c)
    name = ("identity", "shift", "power")[int(rng.integers(0, 3))]
    profile = sm.radial_profile(name, beta=float(rng.uniform(0.0, 2.0)),
                                gamma=float(rng.uniform(0.5, 2.5)))
    A = rng.normal(scale=0.3, size=(dim, dim))
    xs = np.linspace(-0.5, 1.5, 5)
    c = sm.SampledSignal(xs, rng.normal(scale=0.5, size=(5, dim)))
    return sm.RadialModel(profile, A, c)


def drift_model(A=((0.0, 0.0), (0.0, 0.0))):
    """L = |p - (A eta + c(x))|^2 with c = (sin 2 pi x, cos 3x) on 8 knots: the
    drift oracle, and with a skew A the rotating drift oracle."""
    knots = np.linspace(0.0, 1.0, 9)
    c = sm.SampledSignal(knots, np.column_stack([np.sin(2 * np.pi * knots), np.cos(3 * knots)]))
    zero = sm.SampledSignal.from_rows([[0.0, 0.0], [1.0, 0.0]])
    return sm.DataAssimilationModel(np.zeros((1, 2)), zero, A, c)


ROTATION = ((0.0, 1.0), (-1.0, 0.0))


def dense_block_tridiagonal(diag, upper):
    """The dense symmetric matrix with diagonal blocks ``diag`` and blocks
    ``upper`` above the diagonal."""
    k, n = diag.shape[:2]
    dense = np.zeros((k, n, k, n))
    for i in range(k):
        dense[i, :, i, :] = diag[i]
    for i in range(k - 1):
        dense[i, :, i + 1, :] = upper[i]
        dense[i + 1, :, i, :] = upper[i].T
    return dense.reshape(k * n, k * n)


def started(model, problems):
    """``(grid, boundary, init, seed)`` problems as the started problems
    ``(grid, values, seed)`` that ``solver.m_sweep_many`` takes, the values
    those of ``m_sweep``'s start."""
    return [(grid, sm.solver._start(model, grid, boundary, init), seed)
            for grid, boundary, init, seed in problems]


def record_sweep_solves(monkeypatch):
    """Hook ``solver._newton``, the generator behind every solve, and return
    the stats of every solve it completes, one list per sweep, the sweeps in
    the order of their first solves.  A sweep warm-starts each solve from
    the values of the path its last solve returned, so a solve that starts
    from such values continues that path's sweep."""
    sweeps, sweep_of, paths = [], {}, []  # paths keeps every id in sweep_of alive
    newton = sm.solver._newton

    def recorded(grid, m, values, max_iters):
        sweep = sweep_of.pop(id(values), None)
        if sweep is None:
            sweep = []
            sweeps.append(sweep)
        path, stats, sup = yield from newton(grid, m, values, max_iters)
        sweep.append(stats)
        sweep_of[id(path.values)] = sweep
        paths.append(path)
        return path, stats, sup

    monkeypatch.setattr(sm.solver, "_newton", recorded)
    return sweeps


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                rows.append((nodeid.split("::")[-1], verdict))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(rows):
            terminalreporter.write_line(f"{verdict}  {name}")
