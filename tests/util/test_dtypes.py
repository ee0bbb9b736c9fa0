"""Tests for the precision lattice and dtype utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.dtypes import (
    Precision,
    complex_dtype,
    fill_low_mantissa,
    lowest,
    machine_eps,
    real_dtype,
)


class TestPrecisionParse:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("s", Precision.SINGLE),
            ("d", Precision.DOUBLE),
            ("single", Precision.SINGLE),
            ("double", Precision.DOUBLE),
            ("FP32", Precision.SINGLE),
            ("FP64", Precision.DOUBLE),
            ("float32", Precision.SINGLE),
            ("float64", Precision.DOUBLE),
            ("  S ", Precision.SINGLE),
        ],
    )
    def test_tokens(self, token, expected):
        assert Precision.parse(token) is expected

    def test_parse_precision_passthrough(self):
        assert Precision.parse(Precision.SINGLE) is Precision.SINGLE

    @pytest.mark.parametrize("bad", ["", "x", "half", "fp16", "128", None])
    def test_bad_tokens_raise(self, bad):
        with pytest.raises(ValueError):
            Precision.parse(bad)

    def test_char(self):
        assert Precision.SINGLE.char == "s"
        assert Precision.DOUBLE.char == "d"


class TestLattice:
    def test_ordering(self):
        assert Precision.SINGLE < Precision.DOUBLE
        assert not (Precision.DOUBLE < Precision.SINGLE)
        assert Precision.SINGLE <= Precision.SINGLE

    def test_lowest(self):
        s, d = Precision.SINGLE, Precision.DOUBLE
        assert lowest(s, d) is s
        assert lowest(d, s) is s
        assert lowest(d, d) is d
        assert lowest(s, s) is s

    def test_lowest_accepts_strings(self):
        assert lowest("d", "s") is Precision.SINGLE


class TestDtypes:
    def test_real_dtypes(self):
        assert real_dtype(Precision.SINGLE) == np.float32
        assert real_dtype(Precision.DOUBLE) == np.float64

    def test_complex_dtypes(self):
        assert complex_dtype(Precision.SINGLE) == np.complex64
        assert complex_dtype(Precision.DOUBLE) == np.complex128

    def test_machine_eps_values(self):
        assert machine_eps(Precision.SINGLE) == pytest.approx(1.19e-7, rel=1e-2)
        assert machine_eps(Precision.DOUBLE) == pytest.approx(2.22e-16, rel=1e-2)


class TestFillLowMantissa:
    def test_not_representable_in_single(self, seed=0):
        rng = np.random.default_rng(seed)
        a = fill_low_mantissa(rng.standard_normal(100))
        roundtrip = a.astype(np.float32).astype(np.float64)
        # every filled value must change when squeezed through float32
        assert np.all(roundtrip != a)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        y = fill_low_mantissa(x)
        # the filled bits perturb at most the low 29 mantissa bits: 2^-23 rel
        assert np.allclose(x, y, rtol=2.0**-23)

    def test_zero_inf_nan_untouched(self):
        x = np.array([0.0, np.inf, -np.inf, np.nan])
        y = fill_low_mantissa(x)
        assert y[0] == 0.0
        assert np.isposinf(y[1]) and np.isneginf(y[2]) and np.isnan(y[3])

    def test_returns_copy(self):
        x = np.ones(3)
        y = fill_low_mantissa(x)
        assert y is not x
        assert x[0] == 1.0  # input unchanged

    def test_sign_preserved(self):
        x = np.array([-2.0, 3.0])
        y = fill_low_mantissa(x)
        assert y[0] < 0 < y[1]

    @given(st.lists(st.floats(min_value=-1e10, max_value=1e10,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    def test_property_relative_perturbation_small(self, values):
        x = np.array(values, dtype=np.float64)
        y = fill_low_mantissa(x)
        nz = x != 0
        if nz.any():
            assert np.all(np.abs(y[nz] - x[nz]) <= 1e-6 * np.abs(x[nz]))
