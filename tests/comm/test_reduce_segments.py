"""Partition-invariant segment reduce (collective + communicator)."""

import numpy as np
import pytest

from repro.comm.collectives import fixed_tree_reduce_segments, tree_reduce_arrays
from repro.comm.simcomm import SimCommunicator
from repro.util.pairwise import canonical_segments
from repro.util.timing import SimClock, Timeline
from repro.util.validation import ReproError

from tests.conftest import fold_pairwise


def _segments_for(leaves, bounds, n):
    """Per-part canonical-segment dicts for a partition of [0, n)."""
    tables = []
    for lo, hi in zip(bounds, bounds[1:]):
        table = {}
        for s, e in canonical_segments(lo, hi, n):
            table[(s, e)] = fold_pairwise(leaves[s:min(e, n)], axis=0)
        tables.append(table)
    return tables


class TestFixedTreeReduceSegments:
    def test_bitwise_across_partitions(self):
        n = 13
        rng = np.random.default_rng(13)
        leaves = rng.standard_normal((n, 4))
        ref = fold_pairwise(leaves, axis=0)
        for bounds in ([0, n], [0, 1, n], [0, 6, 7, n], list(range(n + 1))):
            merged = {}
            for table in _segments_for(leaves, bounds, n):
                merged.update(table)
            out = fixed_tree_reduce_segments(merged, n)
            assert np.array_equal(out, ref)

    def test_differs_from_rank_indexed_tree(self):
        # The point of the fixed tree: rank-indexed reduction regroups
        # when the partition changes; the segment reduce does not.
        n = 6
        rng = np.random.default_rng(99)
        leaves = rng.standard_normal(n) * 1e8 + rng.standard_normal(n)
        a = tree_reduce_arrays([leaves[:1].sum(), leaves[1:].sum()])
        b = tree_reduce_arrays([leaves[:5].sum(), leaves[5:].sum()])
        # (Not asserting a != b — it can collide — just that the segment
        # reduce is identical while the naive per-part sums need not be.)
        m1 = {}
        for t in _segments_for(leaves, [0, 1, n], n):
            m1.update(t)
        m2 = {}
        for t in _segments_for(leaves, [0, 5, n], n):
            m2.update(t)
        assert fixed_tree_reduce_segments(m1, n) == fixed_tree_reduce_segments(m2, n)
        del a, b

    def test_rejects_zero_segments(self):
        with pytest.raises(ReproError, match="zero segments"):
            fixed_tree_reduce_segments({}, 8)


class TestCommReduceSegments:
    def _run(self, bounds, n, leaves):
        comm = SimCommunicator(len(bounds) - 1)
        return comm, comm.reduce_segments(
            _segments_for(leaves, bounds, n), n
        )

    def test_matches_single_rank(self):
        n = 10
        leaves = np.random.default_rng(5).standard_normal((n, 3))
        _, ref = self._run([0, n], n, leaves)
        for bounds in ([0, 1, n], [0, 4, 5, n], [0, 2, 3, 7, n]):
            _, out = self._run(bounds, n, leaves)
            assert np.array_equal(out, ref)

    def test_charges_max_per_rank_bytes(self):
        n = 8
        leaves = np.ones((n, 2))
        stream = Timeline(SimClock()).stream("comm")
        comm = SimCommunicator(2)
        with comm.on_stream(stream):
            comm.reduce_segments(_segments_for(leaves, [0, 1, n], n), n)
        assert comm.op_counts["reduce"] == 1
        # Rank 1 holds [1, 8) = (1,2) + (2,4) + (4,8): three 16-byte
        # panels against rank 0's one; the larger total crosses one link.
        assert comm.op_bytes["reduce"] == pytest.approx(3 * 16.0)
        assert stream.cursor > 0

    @pytest.mark.parametrize("root", [-1, 2])
    def test_rejects_bad_root(self, root):
        comm = SimCommunicator(2)
        with pytest.raises(ReproError, match=f"root {root} out of range"):
            comm.reduce_segments([{(0, 4): np.zeros(2)}, {(4, 8): np.zeros(2)}], 8, root=root)

    def test_rejects_wrong_rank_count(self):
        comm = SimCommunicator(3)
        with pytest.raises(ReproError):
            comm.reduce_segments([{(0, 8): np.zeros(2)}], 8)

    def test_rejects_duplicate_segment(self):
        comm = SimCommunicator(2)
        seg = {(0, 8): np.zeros(2)}
        with pytest.raises(ReproError):
            comm.reduce_segments([seg, dict(seg)], 8)

    def test_rejects_empty_contribution(self):
        comm = SimCommunicator(2)
        with pytest.raises(ReproError):
            comm.reduce_segments([{(0, 8): np.zeros(2)}, {}], 8)
