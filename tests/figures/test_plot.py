"""Tests for the ASCII chart renderer."""

import pytest

from repro.figures.plot import line_chart
from repro.util.validation import ReproError


class TestLineChart:
    def test_basic_render(self):
        out = line_chart([1, 2, 3, 4], [1.0, 2.0, 3.0, 2.5], title="T", height=5)
        lines = out.splitlines()
        assert lines[0] == "T"
        chart_rows = [l for l in lines if l.rstrip().endswith("|")]
        assert sum(ln.count("o") for ln in chart_rows) == 4

    def test_extremes_on_first_last_rows(self):
        out = line_chart([1, 2], [0.0, 10.0], height=4)
        lines = [l for l in out.splitlines() if "|" in l]
        assert "o" in lines[0]  # max on top row
        assert "o" in lines[-1]  # min on bottom row

    def test_log_scale(self):
        out = line_chart([1, 2, 3], [1e-8, 1e-7, 1e-6], logy=True, height=3)
        assert "1e-08" in out or "1e-06" in out

    def test_constant_series(self):
        out = line_chart([1, 2], [5.0, 5.0], height=3)
        chart_rows = [l for l in out.splitlines() if l.rstrip().endswith("|")]
        assert sum(r.count("o") for r in chart_rows) == 2

    def test_length_mismatch(self):
        with pytest.raises(ReproError):
            line_chart([1], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ReproError):
            line_chart([], [])
