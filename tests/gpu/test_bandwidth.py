"""Tests for the achieved-bandwidth models."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.gpu.bandwidth import (
    STREAM_FRACTION,
    achieved_bandwidth,
    grid_efficiency,
    kernel_time,
    memcpy_time,
    stream_efficiency,
)
from repro.gpu.specs import MI250X_GCD, MI300X, MI355X
from repro.util.dtypes import Precision


@pytest.mark.parametrize("spec", [MI250X_GCD, MI300X, MI355X])
def test_every_fftmatvec_phase_is_memory_bound(spec):
    # Sec. 4.1.2: "the entire application is memory-bound", which is why
    # kernels are priced by bandwidth alone.  The phases' arithmetic
    # intensity (FLOPs per HBM byte) sits below the machine balance (peak
    # FLOP/s over peak B/s) at both precisions.
    sbgemv = 8.0 / 16  # complex double GEMV: 8 FLOPs per 16-byte element read once
    n = 2000  # the 2 Nt-point FFT at the paper's Nt = 1000
    passes = max(2, math.ceil(math.log2(n) / 4))
    fft = 5.0 * n * math.log2(n) / (passes * n * 16)
    for prec in (Precision.DOUBLE, Precision.SINGLE):
        balance = spec.peak_flops[prec] / spec.peak_bandwidth
        assert balance > 1.0
        assert sbgemv < balance and fft < balance


class TestStreamEfficiency:
    def test_bounded_by_stream_fraction(self):
        for b in (1e3, 1e6, 1e9, 1e12):
            assert 0 < stream_efficiency(b, MI300X) <= STREAM_FRACTION

    def test_monotone_in_bytes(self):
        effs = [stream_efficiency(b, MI300X) for b in (1e4, 1e6, 1e8, 1e10)]
        assert effs == sorted(effs)

    def test_large_transfers_approach_saturation(self):
        assert stream_efficiency(1e11, MI300X) > 0.99 * STREAM_FRACTION

    def test_small_transfers_inefficient(self):
        assert stream_efficiency(1e4, MI300X) < 0.01

    @given(st.floats(min_value=1.0, max_value=1e13))
    def test_property_bounds(self, b):
        e = stream_efficiency(b, MI300X)
        assert 0.0 < e <= STREAM_FRACTION

    @pytest.mark.parametrize("spec", [MI250X_GCD, MI300X, MI355X])
    def test_zero_byte_kernel_costs_only_the_launch(self, spec):
        # An empty panel (a rank with no columns) still launches: its
        # efficiency is defined, and its time is the launch overhead.
        eff = stream_efficiency(0, spec)
        assert eff == STREAM_FRACTION
        assert kernel_time(0, spec, eff) == spec.launch_overhead


class TestGridEfficiency:
    def test_tiny_blocks_penalized(self):
        total = 1e9
        small = grid_efficiency(total, blocks=100000, bytes_per_block=512, spec=MI300X)
        big = grid_efficiency(total, blocks=100, bytes_per_block=512000, spec=MI300X)
        assert small < big

    def test_monotone_in_block_work(self):
        effs = [
            grid_efficiency(1e9, 1000, w, MI300X) for w in (256, 1024, 4096, 65536)
        ]
        assert effs == sorted(effs)

    def test_floor_efficiency(self):
        # even degenerate geometry retains some throughput
        e = grid_efficiency(1e9, 10**6, 1.0, MI300X)
        assert e >= 0.08 * stream_efficiency(1e9, MI300X) * 0.99

    def test_never_exceeds_stream(self):
        assert grid_efficiency(1e9, 10, 1e8, MI300X) <= stream_efficiency(1e9, MI300X)

    @pytest.mark.parametrize("blocks", [0, -1])
    def test_no_grid_is_plain_streaming(self, blocks):
        # Without a launch geometry there is no per-block penalty to apply.
        assert grid_efficiency(1e6, blocks, 1.0, MI300X) == stream_efficiency(1e6, MI300X)


class TestKernelTime:
    def test_includes_launch_overhead(self):
        t = kernel_time(0.0, MI300X, 0.5)
        assert t == pytest.approx(MI300X.launch_overhead)

    def test_scales_with_bytes(self):
        t1 = kernel_time(1e9, MI300X, 0.8)
        t2 = kernel_time(2e9, MI300X, 0.8)
        assert t2 > t1
        assert (t2 - MI300X.launch_overhead) == pytest.approx(
            2 * (t1 - MI300X.launch_overhead)
        )

    def test_faster_gpu_is_faster(self):
        assert kernel_time(1e9, MI300X, 0.7) < kernel_time(1e9, MI250X_GCD, 0.7)

    def test_efficiency_clamped(self):
        # absurd efficiencies are clamped rather than extrapolated
        assert kernel_time(1e9, MI300X, 5.0) >= 1e9 / MI300X.peak_bandwidth


class TestAchievedBandwidth:
    def test_fraction_of_peak(self):
        assert achieved_bandwidth(1e9, MI300X, 0.5) == pytest.approx(
            0.5 * MI300X.peak_bandwidth
        )


def test_memcpy_counts_read_and_write():
    # d2d copies move 2x the payload; time exceeds one-way streaming
    one_way = 1e9 / (STREAM_FRACTION * MI300X.peak_bandwidth)
    assert memcpy_time(1e9, MI300X) > one_way
