"""Tests for the figure-regeneration harnesses: each figure's headline
facts must hold in the regenerated data."""

import numpy as np
import pytest

from repro.figures.fig1 import FIG1_SIZES, PAPER_FIG1, figure1
from repro.figures.fig2 import figure2
from repro.figures.fig3 import (
    PAPER_OPTIMAL_ADJ,
    PAPER_OPTIMAL_F,
    SINGLE_ROUNDOFF,
    figure3,
    seed_band,
)
from repro.figures.fig4 import figure4, measured_scaling_error


class TestFigure1:
    @pytest.fixture(scope="class")
    def fig1(self):
        return figure1()

    def test_covers_all_paper_shapes(self, fig1):
        rows, _ = fig1
        assert len(rows) == sum(len(v) for v in FIG1_SIZES.values()) == 17

    def test_optimized_wins_everywhere(self, fig1):
        rows, _ = fig1
        for r in rows:
            assert r.speedup >= 0.99, (r.datatype, r.m, r.n)

    def test_biggest_win_on_most_skewed_lightest_dtype(self, fig1):
        rows, _ = fig1
        best = max(rows, key=lambda r: r.speedup)
        assert best.datatype == "s" and (best.m, best.n) == (128, 4096)

    def test_model_tracks_paper_annotations(self, fig1):
        rows, _ = fig1
        for r in rows:
            assert r.paper_rocblas_pct is not None
            assert r.rocblas_pct == pytest.approx(r.paper_rocblas_pct, abs=0.06)
            assert r.optimized_pct == pytest.approx(r.paper_optimized_pct, abs=0.06)

    def test_table_text(self, fig1):
        _, text = fig1
        assert "Figure 1" in text and "128x4096" in text


class TestFigure2:
    @pytest.fixture(scope="class")
    def fig2(self):
        return figure2()

    def test_six_bars(self, fig2):
        entries, _ = fig2
        assert len(entries) == 6  # 3 GPUs x {F, F*}

    def test_sbgemv_dominates(self, fig2):
        entries, _ = fig2
        for e in entries:
            assert e.sbgemv_fraction > 0.9

    def test_bandwidth_trend(self, fig2):
        entries, _ = fig2
        f_times = {e.gpu: e.total_ms for e in entries if e.direction == "F"}
        assert (
            f_times["MI250X (Single GCD)"] > f_times["MI300X"] > f_times["MI355X"]
        )

    def test_adjoint_slightly_slower_on_mi300x(self, fig2):
        entries, _ = fig2
        f = next(e for e in entries if e.gpu == "MI300X" and e.direction == "F")
        a = next(e for e in entries if e.gpu == "MI300X" and e.direction == "F*")
        assert f.total_ms < a.total_ms < 1.3 * f.total_ms


class TestFigure3:
    @pytest.fixture(scope="class")
    def fig3(self):
        return figure3()

    def test_speedup_ranges(self, fig3):
        entries, _ = fig3
        for e in entries:
            pct = (e.speedup - 1) * 100
            if "MI355X" in e.gpu:
                assert 20 < pct < 60  # paper: ~40%
            else:
                assert 65 < pct < 100  # paper: 70-95%

    def test_errors_below_tolerance(self, fig3):
        # Not ``< 1e-7``: with a forward FFT that really computes in
        # single, dssdd measures 0.97e-7..1.14e-7 over the seeds — the
        # published tolerance sits inside that band at this size.  What
        # holds for every seed is single precision's unit roundoff.
        entries, text = fig3
        assert SINGLE_ROUNDOFF == 2.0**-23
        for e in entries:
            lo, hi = e.error_range
            assert 0 < lo <= hi == e.measured_error <= SINGLE_ROUNDOFF
            assert f"{lo:.2e} .. {hi:.2e}" in text  # the band is reported

    def test_sweep_selects_published_optima(self):
        band = seed_band()
        assert band.config == PAPER_OPTIMAL_F and len(band.errors) == 8
        # dssdd at every seed: on the front (up to the selection rule's
        # tie band), and the optimum at tolerance 2^-23 ...
        assert band.within_tie_band_of_front
        assert set(band.selected_at_roundoff) == {PAPER_OPTIMAL_F}
        # ... while exactly 1e-7 cuts through its error band (measured
        # 0.97e-7..1.14e-7), so that selection depends on the seed:
        # dssdd when its error lands below, the next config up the
        # front (SBGEMV alone in single) otherwise.
        for err, sel in zip(band.errors, band.selected):
            assert sel == (PAPER_OPTIMAL_F if err <= 1e-7 else "ddsdd")
        # F*: the inverse FFT was always genuinely single; ddssd holds
        # at the published tolerance for every seed.
        adj = seed_band(adjoint=True)
        assert set(adj.selected) == {PAPER_OPTIMAL_ADJ}
        assert adj.error_range[1] < 1e-7 and adj.within_tie_band_of_front


class TestFigure4:
    @pytest.fixture(scope="class")
    def fig4(self):
        # errors measured only up to 64 ranks to keep the suite fast;
        # the bench runs the full 4096
        return figure4(max_error_ranks=64)

    def test_all_gpu_counts(self, fig4):
        rows, _ = fig4
        assert [r.point.p for r in rows][-1] == 4096

    def test_speedup_declines(self, fig4):
        rows, _ = fig4
        assert rows[0].point.speedup > rows[-1].point.speedup > 1.0

    def test_measured_errors_small(self, fig4):
        rows, _ = fig4
        for r in rows:
            if r.measured_error is not None:
                assert r.measured_error < 1e-6  # paper: stays under 1e-6

    def test_error_grows_with_scale(self):
        e8 = measured_scaling_error(8)
        e1024 = measured_scaling_error(1024)
        assert e1024 > e8
