"""Tests for collective numerics and cost formulas."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.collectives import (
    log2_steps,
    ring_allreduce_time,
    tree_collective_time,
    tree_reduce_arrays,
)
from repro.comm.netmodel import FRONTIER_NETWORK, SIMPLE_NETWORK
from repro.util.dtypes import Precision
from repro.util.validation import ReproError


class TestLog2Steps:
    @pytest.mark.parametrize("k,expect", [(1, 0), (2, 1), (5, 3), (8, 3), (4096, 12)])
    def test_values(self, k, expect):
        assert log2_steps(k) == expect

    def test_invalid(self):
        with pytest.raises(ReproError):
            log2_steps(0)


class TestTreeReduceNumerics:
    def test_exact_in_double_small(self, rng):
        arrays = [rng.standard_normal(100) for _ in range(8)]
        out = tree_reduce_arrays(arrays)
        np.testing.assert_allclose(out, np.sum(arrays, axis=0), rtol=1e-13, atol=1e-13)

    def test_single_rank(self, rng):
        a = rng.standard_normal(5)
        np.testing.assert_array_equal(tree_reduce_arrays([a]), a)

    def test_odd_counts(self, rng):
        arrays = [rng.standard_normal(10) for _ in range(7)]
        np.testing.assert_allclose(
            tree_reduce_arrays(arrays), np.sum(arrays, axis=0), rtol=1e-13, atol=1e-13
        )

    def test_precision_controls_accumulation(self, rng):
        arrays = [rng.standard_normal(1000) for _ in range(32)]
        exact = np.sum(arrays, axis=0)
        single = tree_reduce_arrays(arrays, precision=Precision.SINGLE)
        assert single.dtype == np.float32
        err = np.linalg.norm(single - exact) / np.linalg.norm(exact)
        assert 1e-9 < err < 1e-5

    def test_reduction_error_grows_with_ranks(self, rng):
        # the eps * log2(p) term of Eq. (6)
        errs = []
        for p in (4, 64, 1024):
            arrays = [rng.standard_normal(500) for _ in range(p)]
            exact = np.sum(np.asarray(arrays, dtype=np.float64), axis=0)
            approx = tree_reduce_arrays(arrays, precision=Precision.SINGLE)
            errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert errs[0] < errs[-1]

    def test_shape_mismatch(self, rng):
        with pytest.raises(ReproError):
            tree_reduce_arrays([np.zeros(3), np.zeros(4)])

    def test_empty(self):
        with pytest.raises(ReproError):
            tree_reduce_arrays([])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 10**6))
    def test_property_matches_sum(self, p, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(17) for _ in range(p)]
        np.testing.assert_allclose(
            tree_reduce_arrays(arrays), np.sum(arrays, axis=0), rtol=1e-12, atol=1e-12
        )


class TestTreeCollectiveTime:
    def test_single_rank_free(self):
        assert tree_collective_time(1, 1e9, FRONTIER_NETWORK) == 0.0

    def test_monotone_in_ranks(self):
        ts = [tree_collective_time(k, 1e6, FRONTIER_NETWORK) for k in (2, 8, 64, 1024)]
        assert ts == sorted(ts)

    def test_monotone_in_bytes(self):
        t1 = tree_collective_time(16, 1e6, FRONTIER_NETWORK)
        t2 = tree_collective_time(16, 1e9, FRONTIER_NETWORK)
        assert t2 > t1

    def test_intra_group_is_cheap(self):
        # 512 contiguous ranks stay within a group on the Frontier model
        t_intra = tree_collective_time(512, 8e5, FRONTIER_NETWORK, span=512)
        t_inter = tree_collective_time(1024, 8e5, FRONTIER_NETWORK, span=1024)
        assert t_inter > 10 * t_intra

    def test_span_matters(self):
        # the same 16 ranks cost more when strided across the machine
        t_packed = tree_collective_time(16, 1e6, FRONTIER_NETWORK, span=16)
        t_spread = tree_collective_time(16, 1e6, FRONTIER_NETWORK, span=4096)
        assert t_spread > t_packed

    def test_congestion_grows_with_participants(self):
        # global trees over more ranks pay more per inter-group step
        t1k = tree_collective_time(1024, 8e5, FRONTIER_NETWORK)
        t4k = tree_collective_time(4096, 8e5, FRONTIER_NETWORK)
        assert t4k > 2 * t1k

    def test_invalid_args(self):
        with pytest.raises(ReproError):
            tree_collective_time(0, 1.0, SIMPLE_NETWORK)
        with pytest.raises(ReproError):
            tree_collective_time(2, -1.0, SIMPLE_NETWORK)

    def test_latency_bound_regime(self):
        # paper: 0.8 MB at 100 GB/s is latency-bound at scale
        t = tree_collective_time(4096, 8e5, FRONTIER_NETWORK)
        volume_time = 8e5 * FRONTIER_NETWORK.beta_inter
        assert t > 10 * volume_time


class TestRingAllreduce:
    def test_single_rank_free(self):
        assert ring_allreduce_time(1, 1e9, SIMPLE_NETWORK) == 0.0

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_no_ranks(self, k):
        with pytest.raises(ReproError, match="k must be >= 1"):
            ring_allreduce_time(k, 1.0, SIMPLE_NETWORK)

    def test_latency_scales_linearly(self):
        t8 = ring_allreduce_time(8, 0.0, SIMPLE_NETWORK)
        t16 = ring_allreduce_time(16, 0.0, SIMPLE_NETWORK)
        assert t16 == pytest.approx(t8 * 30 / 14)

    def test_tree_beats_ring_for_small_messages_large_p(self):
        # why FFTMatvec's latency-bound reductions use trees
        tree = tree_collective_time(1024, 1e5, FRONTIER_NETWORK)
        ring = ring_allreduce_time(1024, 1e5, FRONTIER_NETWORK)
        assert tree < ring
