"""Tests for the from-scratch radix-2 / Bluestein FFTs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fft.radix import (
    bit_reverse_permutation,
    fft_auto,
    fft_bluestein,
    fft_radix2,
    ifft_radix2,
)
from repro.util.validation import ReproError


class TestBitReversal:
    def test_n8(self):
        np.testing.assert_array_equal(
            bit_reverse_permutation(8), [0, 4, 2, 6, 1, 5, 3, 7]
        )

    def test_n1(self):
        np.testing.assert_array_equal(bit_reverse_permutation(1), [0])

    def test_is_involution(self):
        perm = bit_reverse_permutation(64)
        np.testing.assert_array_equal(perm[perm], np.arange(64))

    def test_non_pow2_raises(self):
        with pytest.raises(ReproError):
            bit_reverse_permutation(12)


class TestRadix2:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
    def test_matches_numpy(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft_radix2(x), np.fft.fft(x), rtol=1e-10, atol=1e-10)

    def test_batched(self, rng):
        x = rng.standard_normal((7, 32)) + 1j * rng.standard_normal((7, 32))
        np.testing.assert_allclose(
            fft_radix2(x), np.fft.fft(x, axis=1), rtol=1e-10, atol=1e-10
        )

    def test_inverse_unnormalized(self, rng):
        x = rng.standard_normal(16) + 0j
        back = ifft_radix2(fft_radix2(x))
        np.testing.assert_allclose(back, 16 * x, rtol=1e-10, atol=1e-10)

    def test_non_pow2_raises(self):
        with pytest.raises(ReproError):
            fft_radix2(np.ones(12, dtype=complex))

    def test_linearity(self, rng):
        x = rng.standard_normal(64) + 0j
        y = rng.standard_normal(64) + 0j
        np.testing.assert_allclose(
            fft_radix2(x + 2 * y),
            fft_radix2(x) + 2 * fft_radix2(y),
            rtol=1e-10,
            atol=1e-9,
        )

    def test_3d_input_rejected(self):
        with pytest.raises(ReproError):
            fft_radix2(np.zeros((2, 2, 8), dtype=complex))


class TestBluestein:
    @pytest.mark.parametrize("n", [1, 3, 5, 12, 100, 257])
    def test_arbitrary_lengths(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(
            fft_bluestein(x), np.fft.fft(x), rtol=1e-9, atol=1e-9
        )

    def test_batched(self, rng):
        x = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        np.testing.assert_allclose(
            fft_bluestein(x), np.fft.fft(x, axis=1), rtol=1e-9, atol=1e-9
        )

    def test_pow2_agrees_with_radix2(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(
            fft_bluestein(x), fft_radix2(x), rtol=1e-9, atol=1e-9
        )


class TestAuto:
    def test_dispatch(self, rng):
        for n in (8, 12):
            x = rng.standard_normal(n) + 0j
            np.testing.assert_allclose(fft_auto(x), np.fft.fft(x), rtol=1e-9, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers(0, 2**31 - 1))
    def test_property_parseval(self, n, seed):
        # Parseval: ||FFT(x)||^2 == n * ||x||^2
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        X = fft_auto(x)
        assert np.linalg.norm(X) ** 2 == pytest.approx(
            n * np.linalg.norm(x) ** 2, rel=1e-8
        )
