"""Tests for communication-aware partitioning (Section 3.7 / 4.2.2)."""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.comm.partition import (
    candidate_rows,
    check_extents,
    communication_aware_partition,
    matvec_comm_cost,
    published_frontier_rows,
    skewed_extents,
)
from repro.util.validation import ReproError


class TestPublishedSchedule:
    @pytest.mark.parametrize("p,rows", [
        (8, 1), (64, 1), (256, 1), (512, 1),
        (1024, 8), (2048, 8), (4096, 16),
    ])
    def test_paper_values(self, p, rows):
        # Section 4.2.2: "One processor row was used when computing on 512
        # or fewer GPUs, eight processor rows ... for 1,024 and 2,048
        # GPUs, and 16 processor rows ... for 4,096 GPUs."
        assert published_frontier_rows(p) == rows

    def test_indivisible_falls_back(self):
        assert published_frontier_rows(1025) == 1


class TestCandidateRows:
    def test_powers_of_two_dividing(self):
        assert candidate_rows(8) == (1, 2, 4, 8)
        assert candidate_rows(12) == (1, 2, 4)

    def test_one(self):
        assert candidate_rows(1) == (1,)


class TestCommCost:
    def _cost(self, p, pr):
        return matvec_comm_cost(5000 * p, 100, 1000, pr, p // pr, net=FRONTIER_NETWORK)

    def test_one_row_cheap_at_small_scale(self):
        # within one network group the single-row reduce is nearly free
        assert self._cost(64, 1) < 1e-3

    def test_one_row_explodes_past_group_size(self):
        assert self._cost(4096, 1) > 10 * self._cost(512, 1)

    def test_multi_row_wins_at_4096(self):
        # the paper reports >3x from communication-aware partitioning
        naive = self._cost(4096, 1)
        for pr in (8, 16):
            assert naive > 3 * self._cost(4096, pr)

    def test_one_row_optimal_at_512(self):
        assert self._cost(512, 1) < self._cost(512, 2)

    def test_invalid_dims(self):
        with pytest.raises(ReproError):
            matvec_comm_cost(100, 10, 10, 0, 4)


class TestPartitionSearch:
    def test_small_scale_picks_one_row(self):
        for p in (8, 64, 512):
            pr, pc = communication_aware_partition(5000 * p, 100, 1000, p)
            assert pr == 1 and pc == p

    def test_large_scale_picks_multiple_rows(self):
        for p in (1024, 2048, 4096):
            pr, pc = communication_aware_partition(5000 * p, 100, 1000, p)
            assert pr > 1
            assert pr * pc == p

    def test_respects_rows_to_try(self):
        pr, pc = communication_aware_partition(
            5000 * 4096, 100, 1000, 4096, rows_to_try=[1, 16]
        )
        assert pr == 16

    def test_bad_rows_to_try(self):
        with pytest.raises(ReproError):
            communication_aware_partition(1000, 10, 10, 8, rows_to_try=[3])

    def test_optimum_not_worse_than_published(self):
        # the model's argmin must be at least as good as the published
        # schedule under the model's own cost
        for p in (512, 1024, 2048, 4096):
            pr_model, pc_model = communication_aware_partition(5000 * p, 100, 1000, p)
            cost_model = matvec_comm_cost(5000 * p, 100, 1000, pr_model, pc_model)
            pr_pub = published_frontier_rows(p)
            cost_pub = matvec_comm_cost(5000 * p, 100, 1000, pr_pub, p // pr_pub)
            assert cost_model <= cost_pub * 1.0001


class TestCheckExtents:
    def test_normalizes_to_int_tuples(self):
        out = check_extents(np.array([[0, 3], [3, 8]]), 8, 2)
        assert out == [(0, 3), (3, 8)]
        assert all(type(v) is int for part in out for v in part)

    @pytest.mark.parametrize(
        "extents,match",
        [
            ([(0, 8)], "expected 2 ranges, got 1"),
            ([(0, 3), (3, 5), (5, 8)], "expected 2 ranges, got 3"),
            ([(1, 3), (3, 8)], "range 0 starts at 1, expected 0"),
            ([(0, 3), (4, 8)], "range 1 starts at 4, expected 3"),
            ([(0, 5), (3, 8)], "range 1 starts at 3, expected 5"),
            ([(0, 0), (0, 8)], r"range 0 is empty \(0, 0\)"),
            ([(0, 5), (5, 3)], r"range 1 is empty \(5, 3\)"),
            ([(0, 3), (3, 7)], r"cover \[0, 7\), expected \[0, 8\)"),
            ([(0, 3), (3, 9)], r"cover \[0, 9\), expected \[0, 8\)"),
        ],
        ids=["too-few", "too-many", "late-start", "gap", "overlap",
             "empty", "reversed", "short", "overshoot"],
    )
    def test_rejects_malformed(self, extents, match):
        with pytest.raises(ReproError, match=match):
            check_extents(extents, 8, 2)

    def test_error_names_the_argument(self):
        with pytest.raises(ReproError, match="^col_ranges: "):
            check_extents([(0, 8)], 8, 2, what="col_ranges")

    @pytest.mark.parametrize("n,parts", [(0, 1), (8, 0), (-4, 2)])
    def test_rejects_bad_sizes(self, n, parts):
        with pytest.raises(ReproError):
            check_extents([(0, 1)], n, parts)


_SHAPES = [(8, 2), (23, 3), (100, 7), (257, 16), (16, 16), (9, 1)]


class TestSkewedExtentsShape:
    """``skewed_extents`` enlarges part 0 and splits the rest evenly."""

    @pytest.mark.parametrize("n,parts", _SHAPES)
    def test_zero_skew_is_the_even_split(self, n, parts):
        even = ProcessGrid.split_extent(n, parts)
        # The grid's default split meets the contract caller partitions must.
        assert check_extents(even, n, parts) == even
        assert skewed_extents(n, parts, skew=0.0) == even

    @pytest.mark.parametrize("skew", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("n,parts", [(23, 3), (100, 7), (257, 16)])
    def test_only_part_zero_is_enlarged(self, n, parts, skew):
        widths = [stop - start for start, stop in skewed_extents(n, parts, skew)]
        target = n / parts * (1.0 + skew)
        cap = n - (parts - 1)
        # Part 0 owns (1 + skew) times the even share, rounded up, unless
        # that would leave another part empty.
        assert widths[0] == cap or target <= widths[0] < target + 1
        assert widths[0] >= max(widths[1:])
        # The remainder is the even split of what is left, extras first.
        rest = widths[1:]
        assert max(rest) - min(rest) <= 1
        assert rest == sorted(rest, reverse=True)

    def test_part_zero_grows_with_skew_until_capped(self):
        n, parts = 100, 4
        firsts = [skewed_extents(n, parts, s)[0][1] for s in (0.0, 0.25, 0.5, 1.0, 2.0, 50.0)]
        assert firsts == sorted(firsts)
        assert firsts[:4] == [25, 32, 38, 50]
        assert firsts[-1] == n - (parts - 1)
