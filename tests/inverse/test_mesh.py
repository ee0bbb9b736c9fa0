"""Tests for the structured grids."""

import numpy as np
import pytest

from repro.inverse.mesh import Grid1D
from repro.util.validation import ReproError


class TestGrid1D:
    def test_spacing(self):
        g = Grid1D(9, length=1.0)
        assert g.h == pytest.approx(0.1)

    def test_points_interior(self):
        g = Grid1D(9)
        pts = g.points
        assert len(pts) == 9
        assert pts[0] == pytest.approx(g.h)
        assert pts[-1] == pytest.approx(1.0 - g.h)

    def test_uniform(self):
        g = Grid1D(31)
        d = np.diff(g.points)
        np.testing.assert_allclose(d, d[0])

    def test_nearest_index(self):
        g = Grid1D(9)
        assert g.nearest_index(0.5) == 4
        assert g.nearest_index(0.0) == 0
        assert g.nearest_index(1.0) == 8

    def test_nearest_out_of_domain(self):
        with pytest.raises(ReproError):
            Grid1D(4).nearest_index(2.0)

    def test_invalid(self):
        with pytest.raises(Exception):
            Grid1D(0)
        with pytest.raises(ReproError):
            Grid1D(4, length=-1.0)
