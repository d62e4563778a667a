import numpy as np
import pytest

import supmin as sm

from conftest import random_path


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
