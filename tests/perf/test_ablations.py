"""Unit tests for the design-choice ablation models."""

import pytest

from repro.gpu.specs import MI250X_GCD, MI300X
from repro.perf.ablations import cast_boundaries, fused_vs_unfused, unfused_cast_penalty


class TestCastBoundaries:
    def test_all_double_has_none(self):
        assert cast_boundaries("ddddd") == []

    def test_dssdd(self):
        # double->single entering fft, single->double entering ifft
        assert cast_boundaries("dssdd") == [("pad", "fft"), ("sbgemv", "ifft")]

    def test_all_single_casts_at_io(self):
        # inputs/outputs are double (Section 3.2), so sssss casts twice
        bounds = cast_boundaries("sssss")
        assert ("input", "pad") in bounds
        assert ("unpad", "output") in bounds
        assert len(bounds) == 2

    def test_alternating(self):
        assert len(cast_boundaries("dsdsd")) == 4


class TestPenalty:
    def test_zero_for_all_double(self):
        assert unfused_cast_penalty(5000, 100, 1000, "ddddd", MI250X_GCD) == 0.0

    def test_positive_when_casting(self):
        assert unfused_cast_penalty(5000, 100, 1000, "dssdd", MI250X_GCD) > 0.0

    def test_more_boundaries_more_penalty(self):
        few = unfused_cast_penalty(5000, 100, 1000, "dssdd", MI250X_GCD)
        many = unfused_cast_penalty(5000, 100, 1000, "dsdsd", MI250X_GCD)
        assert many > few


class TestFusedVsUnfused:
    def test_fusion_always_wins(self):
        for cfg in ("dssdd", "sssss", "dsdsd", "ddssd"):
            fused, unfused, ncasts = fused_vs_unfused(
                5000, 100, 1000, cfg, MI300X
            )
            assert unfused > fused
            assert ncasts == len(cast_boundaries(cfg))

    def test_all_double_identical(self):
        fused, unfused, ncasts = fused_vs_unfused(5000, 100, 1000, "ddddd", MI300X)
        assert fused == unfused
        assert ncasts == 0

    def test_penalty_is_small_fraction(self):
        # casts are memory ops over vectors; they must not rival the
        # SBGEMV-dominated total (sanity of the model's magnitudes)
        fused, unfused, _ = fused_vs_unfused(5000, 100, 1000, "dssdd", MI250X_GCD)
        assert (unfused - fused) / fused < 0.15
