"""Tests for the Pareto-front analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matvec import FFTMatvec
from repro.core.pareto import (
    ParetoPoint,
    optimal_config,
    pareto_front,
    pareto_table,
    sweep_configs,
)
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import MI300X
from repro.perf.phase_model import modeled_timing
from repro.util.validation import ReproError


def _pt(cfg, time, error):
    return ParetoPoint(
        config=PrecisionConfig.parse(cfg), time=time, error=error, speedup=1.0
    )


class TestParetoFront:
    def test_dominated_points_removed(self):
        pts = [
            _pt("ddddd", 2.0, 0.0),
            _pt("dssdd", 1.0, 1e-8),
            _pt("dsddd", 1.5, 1e-7),  # dominated by dssdd (slower AND worse)
        ]
        front = pareto_front(pts)
        assert {str(p.config) for p in front} == {"ddddd", "dssdd"}

    def test_front_sorted_by_time(self):
        pts = [_pt("ddddd", 3.0, 0.0), _pt("sssss", 1.0, 1e-6), _pt("dssdd", 2.0, 1e-8)]
        front = pareto_front(pts)
        times = [p.time for p in front]
        assert times == sorted(times)

    def test_error_decreases_along_front(self):
        pts = [_pt("ddddd", 3.0, 0.0), _pt("sssss", 1.0, 1e-6), _pt("dssdd", 2.0, 1e-8)]
        front = pareto_front(pts)
        errors = [p.error for p in front]
        assert errors == sorted(errors, reverse=True)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 10), st.floats(0, 1)),
                    min_size=1, max_size=32))
    def test_property_non_domination(self, vals):
        cfgs = list(PrecisionConfig.all_configs())
        pts = [_pt(str(cfgs[i % 32]), t, e) for i, (t, e) in enumerate(vals)]
        front = pareto_front(pts)
        for f in front:
            for p in pts:
                # nothing strictly dominates a front member
                assert not (p.time < f.time and p.error < f.error)


class TestOptimalConfig:
    def test_tolerance_respected(self):
        pts = [_pt("ddddd", 2.0, 0.0), _pt("sssss", 1.0, 1e-3)]
        best = optimal_config(pts, tolerance=1e-7)
        assert str(best.config) == "ddddd"

    def test_fastest_eligible_wins(self):
        pts = [_pt("ddddd", 2.0, 0.0), _pt("dssdd", 1.0, 1e-8)]
        assert str(optimal_config(pts, 1e-7).config) == "dssdd"

    def test_negligible_speedup_prefers_fewer_single_phases(self):
        # Section 4.2.1: lowering cheap phases' precision buys ~nothing
        # but adds error -> dssdd preferred over sssdd at ~equal time
        pts = [
            _pt("ddddd", 2.00, 0.0),
            _pt("sssdd", 1.00, 9e-8),
            _pt("dssdd", 1.01, 8e-8),
        ]
        assert str(optimal_config(pts, 1e-7).config) == "dssdd"

    def test_real_speedup_beats_accuracy(self):
        # outside the negligible margin, the faster config wins
        pts = [_pt("dssdd", 2.0, 1e-10), _pt("sssss", 1.0, 9e-8)]
        assert str(optimal_config(pts, 1e-7).config) == "sssss"

    def test_no_eligible_raises(self):
        pts = [_pt("sssss", 1.0, 1e-2)]
        with pytest.raises(ReproError, match="tolerance"):
            optimal_config(pts, 1e-7)


class TestSweep:
    @pytest.fixture(scope="class")
    def engine(self):
        rng = np.random.default_rng(0)
        matrix = BlockTriangularToeplitz.random(48, 6, 64, rng=rng, decay=0.05)
        return FFTMatvec(matrix, device=SimulatedDevice(MI300X))

    def test_sweeps_all_32(self, engine):
        points = sweep_configs(engine)
        assert len(points) == 32
        assert len({str(p.config) for p in points}) == 32

    def test_baseline_has_zero_error(self, engine):
        points = sweep_configs(engine)
        base = next(p for p in points if p.config.is_all_double)
        assert base.error == 0.0
        assert base.speedup == pytest.approx(1.0, rel=0.02)

    def test_paper_optimum_selected_with_paper_scale_times(self, engine):
        points = sweep_configs(
            engine,
            time_model=lambda c: modeled_timing(5000, 100, 1000, c, MI300X).total,
        )
        best = optimal_config(points, 1e-7)
        assert str(best.config) == "dssdd"  # the published F optimum

    def test_adjoint_paper_optimum(self, engine):
        points = sweep_configs(
            engine,
            adjoint=True,
            time_model=lambda c: modeled_timing(
                5000, 100, 1000, c, MI300X, adjoint=True
            ).total,
        )
        best = optimal_config(points, 1e-7)
        assert str(best.config) == "ddssd"  # the published F* optimum

    def test_needs_device_or_model(self):
        rng = np.random.default_rng(1)
        eng = FFTMatvec(BlockTriangularToeplitz.random(8, 2, 4, rng=rng))
        with pytest.raises(ReproError):
            sweep_configs(eng)
        # but fine with a time model
        pts = sweep_configs(eng, time_model=lambda c: 1.0)
        assert len(pts) == 32

    def test_table_renders(self, engine):
        points = sweep_configs(engine)
        text = pareto_table(points, tolerance=1e-7)
        assert "dssdd" in text and "config" in text
