import numpy as np
import pytest

import supmin as sm
from supmin.path import quotient_scale

from conftest import random_grid, random_path

EPS = np.finfo(float).eps


def weighted_slope_oracle(path, y, t):
    """Independent length-weighted average of element slopes over [y, y+t]."""
    lo, hi = sorted((y, y + t))
    nodes = path.grid.nodes
    slopes = np.diff(path.values, axis=0) / np.diff(nodes)[:, None]
    total = np.zeros(path.dim)
    for e in range(nodes.size - 1):
        w = min(nodes[e + 1], hi) - max(nodes[e], lo)
        if w > 0:
            total += w * slopes[e]
    return total / (hi - lo)


class TestGrid:
    def test_validation(self):
        with pytest.raises(sm.SupminError):
            sm.Grid(np.array([0.0, 1.0]))
        with pytest.raises(sm.SupminError):
            sm.Grid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(sm.SupminError):
            sm.Grid(np.array([0.0, np.nan, 1.0]))

    def test_uniform(self):
        g = sm.Grid.uniform(0.0, 2.0, 5)
        assert g.a == 0.0 and g.b == 2.0 and g.num_elements == 4
        assert g.is_uniform
        assert not sm.Grid(np.array([0.0, 0.1, 1.0])).is_uniform


class TestInterpolateAffine:
    def test_unit_slope(self):
        g = sm.Grid(np.array([0.0, 0.5, 1.0]))
        p = sm.interpolate_affine(sm.AffineMap([0.0, 0.0], [1.0, 0.0]), g)
        assert np.array_equal(p.values, [[0, 0], [0.5, 0], [1, 0]])

    def test_constant(self):
        g = sm.Grid(np.array([0.0, 0.5, 1.0]))
        p = sm.interpolate_affine(sm.AffineMap([2.0, -1.0], [0.0, 0.0]), g)
        assert np.array_equal(p.values, [[2, -1]] * 3)

    def test_nonuniform(self):
        g = sm.Grid(np.array([0.0, 0.25, 1.0]))
        p = sm.interpolate_affine(sm.AffineMap([1.0], [2.0]), g)
        assert np.array_equal(p.values, [[1.0], [1.5], [3.0]])


class TestEvalAndSlope:
    def test_affine_everywhere(self, rng):
        bmap = sm.AffineMap([0.3, -1.0], [1.5, 0.5])
        path = sm.interpolate_affine(bmap, random_grid(rng))
        for x in rng.uniform(0.0, 1.0, size=20):
            s = sm.eval_and_slope(path, x)
            np.testing.assert_allclose(s.value, bmap(x), atol=1e-12)
            np.testing.assert_allclose(s.slope, bmap.b1, atol=1e-10)

    def test_two_element(self):
        path = sm.Path(sm.Grid(np.array([0.0, 0.5, 1.0])), np.array([[0.0], [0.0], [1.0]]))
        s = sm.eval_and_slope(path, 0.75)
        assert s.value[0] == pytest.approx(0.5) and s.slope[0] == pytest.approx(2.0)
        assert s.element == 1

    def test_left_tie_break_at_node(self):
        path = sm.Path(sm.Grid(np.array([0.0, 0.5, 1.0])), np.array([[0.0], [0.0], [1.0]]))
        s = sm.eval_and_slope(path, 0.5)
        assert s.element == 0 and s.slope[0] == 0.0

    def test_out_of_domain(self):
        path = sm.Path(sm.Grid(np.array([0.0, 0.5, 1.0])), np.zeros((3, 1)))
        with pytest.raises(sm.SupminError, match=r"x=1\.5 outside \[0\.0, 1\.0\]"):
            sm.eval_and_slope(path, 1.5)


class TestDifferenceQuotient:
    def test_affine_gives_slope(self, rng):
        bmap = sm.AffineMap([0.0, 1.0], [2.0, -1.0])
        path = sm.interpolate_affine(bmap, sm.Grid.uniform(0.0, 1.0, 9))
        for _ in range(20):
            y = rng.uniform(0.0, 1.0)
            t = rng.uniform(-y, 1.0 - y)
            if t == 0:
                continue
            np.testing.assert_allclose(
                sm.difference_quotient(path, y, t), bmap.b1, atol=1e-10)

    def test_spike_endpoint(self):
        path = sm.Path(sm.Grid(np.array([0.0, 0.5, 1.0])), np.array([[0.0], [0.0], [1.0]]))
        assert sm.difference_quotient(path, 0.0, 1.0)[0] == pytest.approx(1.0)

    def test_spike_weighted(self):
        path = sm.Path(sm.Grid(np.array([0.0, 0.5, 1.0])), np.array([[0.0], [0.0], [1.0]]))
        q = sm.difference_quotient(path, 0.25, 0.5)
        assert q[0] == pytest.approx(1.0)
        np.testing.assert_allclose(q, weighted_slope_oracle(path, 0.25, 0.5), atol=1e-14)

    def test_zero_step(self):
        path = sm.Path(sm.Grid(np.array([0.0, 0.5, 1.0])), np.zeros((3, 1)))
        with pytest.raises(sm.SupminError, match="difference quotient needs t != 0"):
            sm.difference_quotient(path, 0.2, 0.0)
        with pytest.raises(sm.SupminError, match=r"x=1\.25 outside \[0\.0, 1\.0\]"):
            sm.difference_quotient(path, 0.5, 0.75)

    def test_averaging_identity_random(self, rng):
        for _ in range(200):
            path = random_path(rng, scale=float(rng.uniform(0.1, 5.0)))
            a, b = path.grid.a, path.grid.b
            y = rng.uniform(a, b)
            t = rng.uniform(a - y, b - y)
            if abs(t) < 1e-9:
                continue
            q = sm.difference_quotient(path, y, t)
            oracle = weighted_slope_oracle(path, y, t)
            tol = 8 * EPS * quotient_scale(path, y, t)
            assert np.max(np.abs(q - oracle)) <= tol

    def test_lipschitz_bound(self, rng):
        for _ in range(100):
            path = random_path(rng)
            a, b = path.grid.a, path.grid.b
            y = rng.uniform(a, b)
            t = rng.uniform(a - y, b - y)
            if abs(t) < 1e-9:
                continue
            q = sm.difference_quotient(path, y, t)
            max_slope = np.max(np.linalg.norm(path.element_slopes(), axis=1))
            assert np.linalg.norm(q) <= max_slope * (1 + 1e-12) + 1e-12


class TestCsv:
    def test_round_trip_exact(self, rng, tmp_path):
        path = random_path(rng, scale=3.0)
        f = tmp_path / "p.csv"
        path.to_csv(str(f))
        back = sm.Path.from_csv(str(f))
        assert np.array_equal(back.values, path.values)
        assert np.array_equal(back.grid.nodes, path.grid.nodes)

    def test_header(self, tmp_path):
        path = sm.Path(sm.Grid(np.array([0.0, 0.5, 1.0])), np.zeros((3, 2)))
        f = tmp_path / "p.csv"
        path.to_csv(str(f))
        assert f.read_text().splitlines()[0] == "x,u1,u2"

    @pytest.mark.parametrize("text", ["x,u1\n", "x,u1\n0,0\n0.5,1,2\n1,0\n", "x,u1\n0,a\n1,0\n",
                                      "x,u1,u2\n0,0\n0.5,1\n1,1\n"])
    def test_malformed_rejected(self, tmp_path, text):
        f = tmp_path / "p.csv"
        f.write_text(text)
        with pytest.raises(sm.SupminError):
            sm.Path.from_csv(str(f))
