"""Tests for validation helpers."""

import numpy as np
import pytest

from repro.util.validation import (
    ReproError,
    UnsupportedError,
    check_array,
    check_positive_int,
)


class TestCheckPositiveInt:
    def test_accepts_ints(self):
        assert check_positive_int(5, "x") == 5
        assert check_positive_int(np.int64(7), "x") == 7

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", None, True])
    def test_rejects(self, bad):
        with pytest.raises(ReproError):
            check_positive_int(bad, "x")

    def test_error_names_argument(self):
        with pytest.raises(ReproError, match="nt"):
            check_positive_int(-2, "nt")


class TestCheckArray:
    def test_ndim(self):
        check_array(np.zeros((2, 3)), "x", ndim=2)
        with pytest.raises(ReproError):
            check_array(np.zeros(3), "x", ndim=2)

    def test_shape_wildcards(self):
        check_array(np.zeros((2, 5)), "x", shape=(2, None))
        with pytest.raises(ReproError):
            check_array(np.zeros((3, 5)), "x", shape=(2, None))

    def test_shape_rank_mismatch(self):
        with pytest.raises(ReproError):
            check_array(np.zeros(4), "x", shape=(2, 2))

    def test_dtypes(self):
        check_array(np.zeros(2, dtype=np.float32), "x", dtypes=[np.float32])
        with pytest.raises(ReproError):
            check_array(np.zeros(2, dtype=np.float64), "x", dtypes=[np.float32])

    def test_returns_asarray(self):
        out = check_array([1.0, 2.0], "x", ndim=1)
        assert isinstance(out, np.ndarray)


def test_unsupported_is_repro_error():
    assert issubclass(UnsupportedError, ReproError)
