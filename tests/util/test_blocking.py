"""Tests for the shared multi-RHS chunking helpers."""

import numpy as np
import pytest

from repro.util.blocking import (
    check_out_buffer,
    chunk_ranges,
    n_chunks,
    validate_max_block_k,
)
from repro.util.validation import ReproError


class TestChunkRanges:
    def test_unbounded_is_one_chunk(self):
        assert chunk_ranges(7) == [(0, 7)]
        assert n_chunks(7) == 1

    def test_exact_multiple(self):
        assert chunk_ranges(8, 4) == [(0, 4), (4, 8)]

    def test_ragged_tail(self):
        assert chunk_ranges(7, 3) == [(0, 3), (3, 6), (6, 7)]
        assert n_chunks(7, 3) == 3

    def test_chunk_larger_than_k(self):
        assert chunk_ranges(3, 16) == [(0, 3)]

    def test_single_column_chunks(self):
        assert chunk_ranges(3, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_cover_exactly_once(self):
        for k, b in [(1, 1), (5, 2), (16, 5), (10, 10)]:
            ranges = chunk_ranges(k, b)
            seen = [j for j0, j1 in ranges for j in range(j0, j1)]
            assert seen == list(range(k))

    def test_invalid_k(self):
        with pytest.raises(ReproError):
            chunk_ranges(0, 2)

    def test_invalid_chunk(self):
        with pytest.raises(ReproError):
            chunk_ranges(4, 0)


class TestValidateMaxBlockK:
    def test_none_passthrough(self):
        assert validate_max_block_k(None) is None

    def test_positive_int(self):
        assert validate_max_block_k(5) == 5

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_rejected(self, bad):
        with pytest.raises(ReproError):
            validate_max_block_k(bad)


def _read_only(a):
    a.flags.writeable = False
    return a


class TestCheckOutBuffer:
    def test_none_passthrough(self):
        assert check_out_buffer(None, (2, 3)) is None

    def test_valid_buffer_is_returned_as_is(self):
        out = np.empty((2, 3))
        assert check_out_buffer(out, (2, 3)) is out

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: np.empty((3, 2)), "must be \\(2, 3\\) float64"),
            (lambda: np.empty((2, 3), np.float32), "float64, got .* float32"),
            (lambda: np.empty((3, 2)).T, "C-contiguous"),
            (lambda: _read_only(np.empty((2, 3))), "writeable"),
        ],
        ids=["shape", "dtype", "transposed", "read-only"],
    )
    def test_rejected(self, make, match):
        with pytest.raises(ReproError, match=match):
            check_out_buffer(make(), (2, 3), what="d")
