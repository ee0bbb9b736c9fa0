"""Tests for the hierarchical network model."""

import pytest

from repro.comm.collectives import tree_collective_time
from repro.comm.netmodel import FRONTIER_NETWORK, SIMPLE_NETWORK
from repro.util.validation import ReproError


class TestGroupsSpanned:
    def test_within_group(self):
        assert FRONTIER_NETWORK.groups_spanned(1) == 1
        assert FRONTIER_NETWORK.groups_spanned(512) == 1

    def test_across_groups(self):
        assert FRONTIER_NETWORK.groups_spanned(513) == 2
        assert FRONTIER_NETWORK.groups_spanned(4096) == 8

    def test_invalid(self):
        with pytest.raises(ReproError):
            FRONTIER_NETWORK.groups_spanned(0)

    def test_simple_network_is_flat(self):
        assert SIMPLE_NETWORK.groups_spanned(10**6) == 1


class TestStepTimes:
    def test_congestion_scales_with_participants(self):
        small = FRONTIER_NETWORK.inter_step_latency(16)
        large = FRONTIER_NETWORK.inter_step_latency(4096)
        assert large > 10 * small

    def test_intra_step_includes_volume(self):
        # One in-group tree level: latency plus the volume at beta_intra.
        t0 = tree_collective_time(2, 0, FRONTIER_NETWORK)
        t1 = tree_collective_time(2, 1e9, FRONTIER_NETWORK)
        assert t0 == pytest.approx(FRONTIER_NETWORK.alpha_intra)
        assert t1 - t0 == pytest.approx(1e9 * FRONTIER_NETWORK.beta_intra)

    def test_inter_slower_than_intra(self):
        assert FRONTIER_NETWORK.inter_step_latency(2) > FRONTIER_NETWORK.alpha_intra
        assert FRONTIER_NETWORK.beta_inter > FRONTIER_NETWORK.beta_intra

    def test_paper_nic_bandwidth(self):
        # Section 4.2.2: "the network bandwidth is 100 GB/s"
        assert 1.0 / FRONTIER_NETWORK.beta_inter == pytest.approx(100e9)
