"""Fixed virtual-tree reduction primitives (repro.util.pairwise)."""

import gc
import weakref

import numpy as np
import pytest

from repro.util.pairwise import (
    canonical_segments,
    fixed_tree_merge,
    fold_in_place,
    validate_segments,
    virtual_span,
)
from repro.util.validation import ReproError

from tests.conftest import fold_pairwise


class TestVirtualSpan:
    def test_powers_and_gaps(self):
        assert virtual_span(1) == 1
        assert virtual_span(2) == 2
        assert virtual_span(3) == 4
        assert virtual_span(8) == 8
        assert virtual_span(9) == 16

    def test_rejects_non_positive(self):
        with pytest.raises(ReproError):
            virtual_span(0)


class TestCanonicalSegments:
    def test_full_range_is_root(self):
        # A full range folds to the single virtual root node.
        assert canonical_segments(0, 8, 8) == ((0, 8),)
        assert canonical_segments(0, 5, 5) == ((0, 8),)

    def test_segments_are_tree_nodes(self):
        # Every segment is a genuine node: power-of-two size, aligned start.
        for n in (5, 8, 13, 16, 31):
            for start in range(n):
                for stop in range(start + 1, n + 1):
                    segs = canonical_segments(start, stop, n)
                    for s, e in segs:
                        size = e - s
                        assert size & (size - 1) == 0
                        assert s % size == 0
                    # Contiguous tiling of [start, stop) (virtual tail
                    # allowed when stop == n).
                    cur = start
                    for s, e in segs:
                        assert s == cur
                        cur = e
                    if stop < n:
                        assert cur == stop
                    else:
                        assert cur >= n

    def test_no_sibling_pairs(self):
        # Adjacent segments are never siblings (they would have merged).
        for n in (8, 13, 21):
            for start in range(n):
                segs = canonical_segments(start, n, n)
                for (s1, e1), (s2, e2) in zip(segs, segs[1:]):
                    same_size = (e1 - s1) == (e2 - s2)
                    parent_aligned = s1 % (2 * (e1 - s1)) == 0
                    assert not (same_size and e1 == s2 and parent_aligned)

    def test_count_bound(self):
        import math

        for n in (5, 16, 100, 1000):
            for start in range(0, n, max(1, n // 7)):
                segs = canonical_segments(start, n, n)
                assert len(segs) <= 2 * max(1, math.ceil(math.log2(n)))

    def test_rejects_bad_range(self):
        with pytest.raises(ReproError):
            canonical_segments(3, 3, 8)
        with pytest.raises(ReproError):
            canonical_segments(0, 9, 8)


class TestFoldPairwise:
    def test_matches_sum_exactly_for_integers(self):
        rng = np.random.default_rng(7)
        x = rng.integers(-100, 100, size=(13, 4)).astype(np.float64)
        assert np.array_equal(fold_pairwise(x, axis=0), x.sum(axis=0))

    def test_grouping_is_the_complete_tree(self):
        # 5 leaves over span 8: ((0+1)+(2+3)) + 4 — verify against the
        # hand-built grouping, bitwise.
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        expected = ((x[0] + x[1]) + (x[2] + x[3])) + x[4]
        assert fold_pairwise(x, axis=0) == expected

    @pytest.mark.parametrize("count", list(range(1, 41)) + [192, 200, 255, 257])
    def test_matches_recursive_virtual_tree(self, count):
        # Independent oracle: the virtual tree written as a recursion —
        # split at the midpoint, an absent right child passes through.
        rng = np.random.default_rng(count)
        x = rng.standard_normal((count, 3)) * 10.0 ** rng.uniform(-8, 8, (count, 3))

        def node(s, e):
            if e - s == 1:
                return x[s]
            mid = (s + e) // 2
            return node(s, mid) if mid >= count else node(s, mid) + node(mid, e)

        want = node(0, virtual_span(count))
        before = x.copy()
        assert np.array_equal(fold_pairwise(x, axis=0), want)
        assert np.array_equal(x, before)  # non-mutating
        buf = np.concatenate([x, np.full((2, 3), np.nan)])  # rows past count ignored
        assert np.array_equal(fold_in_place(buf, count), want)
        out = np.empty(3)
        assert fold_in_place(x.copy(), count, out=out) is out
        assert np.array_equal(out, want)

    def test_in_place_rejects_empty(self):
        with pytest.raises(ReproError):
            fold_in_place(np.zeros((0, 2)), 0)

    def test_inner_axis(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 6, 2))
        out = fold_pairwise(x, axis=1)
        ref = np.stack(
            [fold_pairwise(x[i], axis=0) for i in range(3)], axis=0
        )
        assert np.array_equal(out, ref)


class TestFixedTreeMerge:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 32, 100])
    def test_any_partition_is_bitwise_equal(self, n):
        rng = np.random.default_rng(n)
        leaves = rng.standard_normal(n)
        ref = fold_pairwise(leaves, axis=0)
        boundary_rng = np.random.default_rng(1000 + n)
        for _ in range(8):
            parts = int(boundary_rng.integers(1, min(n, 5) + 1))
            cuts = sorted(
                boundary_rng.choice(np.arange(1, n), size=parts - 1, replace=False)
            ) if parts > 1 else []
            bounds = [0] + [int(c) for c in cuts] + [n]
            segments = {}
            for lo, hi in zip(bounds, bounds[1:]):
                for s, e in canonical_segments(lo, hi, n):
                    segments[(s, e)] = fold_pairwise(
                        leaves[s:min(e, n)], axis=0
                    )
            validate_segments(segments, n)
            assert fixed_tree_merge(segments, n) == ref

    def test_width_one_parts(self):
        n = 11
        leaves = np.random.default_rng(3).standard_normal(n)
        ref = fold_pairwise(leaves, axis=0)
        segments = {}
        for i in range(n):
            for s, e in canonical_segments(i, i + 1, n):
                segments[(s, e)] = leaves[s:min(e, n)].sum()
        assert fixed_tree_merge(segments, n) == ref

    def test_merge_leaves_no_cycle_holding_the_segments(self):
        # The segment panels are megabytes each on a grid apply; they
        # must die with the last reference, not wait for the cycle
        # collector (a self-recursive closure did exactly that, and the
        # process's peak memory grew with the number of applies).
        segments = {(0, 2): np.ones(4), (2, 4): np.ones(4), (4, 8): np.ones(4)}
        probe = weakref.ref(segments[(2, 4)])
        gc.collect()
        gc.disable()
        try:
            root = fixed_tree_merge(segments, 6)
            del segments
            assert probe() is None
        finally:
            gc.enable()
        assert np.array_equal(root, np.full(4, 3.0))

    def test_validate_rejects_gap(self):
        n = 8
        segs = {(0, 4): np.zeros(1)}
        with pytest.raises(ReproError):
            validate_segments(segs, n)

    @pytest.mark.parametrize(
        "keys, match",
        [
            ([], "no segments"),
            ([(0, 3), (3, 6)], "not a node"),  # length 3 is not a power of two
            ([(0, 2), (2, 6)], "not a node"),  # length 4 starting at 2
            ([(0, 8), (8, 16)], "not a node"),  # past n = 6's virtual span [0, 8)
            ([(0, 2), (4, 8)], "contiguously"),  # [2, 4) missing
            ([(0, 4), (2, 4)], "contiguously"),  # [2, 4) twice
        ],
        ids=["empty", "odd-length", "misaligned", "past-span", "gap", "overlap"],
    )
    def test_validate_rejects_non_tilings(self, keys, match):
        with pytest.raises(ReproError, match=match):
            validate_segments({k: np.zeros(1) for k in keys}, 6)
