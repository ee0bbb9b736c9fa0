"""Tests for the 2D process grid."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.comm.grid import ProcessGrid
from repro.util.timing import Timeline
from repro.util.validation import ReproError


class TestRankArithmetic:
    def test_row_major_layout(self):
        g = ProcessGrid(2, 3)
        # row-major: a grid row occupies contiguous ranks
        assert g.rank_of(0, 0) == 0
        assert g.rank_of(0, 2) == 2
        assert g.rank_of(1, 0) == 3

    def test_roundtrip(self):
        g = ProcessGrid(4, 8)
        ranks = [g.rank_of(r, c) for r in range(g.pr) for c in range(g.pc)]
        assert ranks == list(range(g.size))

    def test_out_of_range(self):
        g = ProcessGrid(2, 2)
        with pytest.raises(ReproError):
            g.rank_of(2, 0)
        with pytest.raises(ReproError):
            g.rank_of(0, 2)


class TestSubcommunicators:
    def test_row_comm_contiguous(self):
        g = ProcessGrid(4, 16)
        rc = g.row_comm(1)
        assert rc.size == 16
        assert rc.span == 16  # contiguous

    def test_col_comm_spans_machine(self):
        g = ProcessGrid(4, 16)
        cc = g.col_comm(0)
        assert cc.size == 4
        assert cc.span == 3 * 16 + 1  # strided by pc

    def test_bounds(self):
        g = ProcessGrid(2, 2)
        with pytest.raises(ReproError):
            g.row_comm(2)
        with pytest.raises(ReproError):
            g.col_comm(5)

    def test_shared_clock(self):
        # The communicators own no clock: rows and columns alike charge
        # the grid clock through a stream on its timeline.
        g = ProcessGrid(2, 2)
        tl = Timeline(g.clock)
        s = tl.stream("comm")
        with g.row_comm(0).on_stream(s):
            g.row_comm(0).bcast(np.zeros(64), phase="pad")
        with g.col_comm(1).on_stream(s):
            g.col_comm(1).reduce([np.zeros(64)] * 2, phase="unpad")
        assert g.clock.phase_total("pad") > 0 and g.clock.phase_total("unpad") > 0
        tl.sync()
        assert g.clock.now == s.cursor > 0


class TestSplitExtent:
    def test_even(self):
        assert ProcessGrid.split_extent(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_front_loaded(self):
        # ceil-based ownership: early ranks get the extra elements
        assert ProcessGrid.split_extent(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_items(self):
        parts = ProcessGrid.split_extent(2, 4)
        sizes = [b - a for a, b in parts]
        assert sizes == [1, 1, 0, 0]

    @given(st.integers(1, 1000), st.integers(1, 64))
    def test_property_partition(self, n, parts):
        ext = ProcessGrid.split_extent(n, parts)
        assert ext[0][0] == 0 and ext[-1][1] == n
        # contiguous, non-overlapping, sizes differ by at most 1
        for (a0, b0), (a1, b1) in zip(ext, ext[1:]):
            assert b0 == a1
        sizes = [b - a for a, b in ext]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n

    def test_local_rows_cols(self):
        # What a 2x4 grid's row 0 / column 3 own: the engines slice
        # split_extent(nd, pr) and split_extent(nm, pc) directly.
        g = ProcessGrid(2, 4)
        assert g.split_extent(100, g.pr)[0] == (0, 50)
        assert g.split_extent(100, g.pc)[3] == (75, 100)
