"""Tests for the block lower-triangular Toeplitz matrix object."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.toeplitz import BlockTriangularToeplitz
from repro.util.validation import ReproError


@pytest.fixture
def small(rng):
    return BlockTriangularToeplitz.random(nt=6, nd=2, nm=3, rng=rng)


class TestConstruction:
    def test_shapes(self, small):
        assert (small.nt, small.nd, small.nm) == (6, 2, 3)
        assert small.shape == (12, 18)

    def test_rejects_complex(self, rng):
        with pytest.raises(ReproError):
            BlockTriangularToeplitz(np.zeros((2, 2, 2), dtype=complex))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ReproError):
            BlockTriangularToeplitz(np.zeros((2, 2)))

    def test_decay(self, rng):
        m = BlockTriangularToeplitz.random(nt=20, nd=2, nm=2, rng=rng, decay=0.5)
        norms = [np.linalg.norm(m.blocks[t]) for t in range(20)]
        assert norms[-1] < norms[0]

    def test_storage_vs_dense(self, small):
        assert small.storage_bytes < small.dense_bytes
        assert small.dense_bytes == 12 * 18 * 8


class TestDense:
    def test_block_toeplitz_structure(self, small):
        D = small.dense()
        nt, nd, nm = small.nt, small.nd, small.nm
        for i in range(nt):
            for j in range(nt):
                blk = D[i * nd : (i + 1) * nd, j * nm : (j + 1) * nm]
                if j > i:
                    assert np.all(blk == 0)
                else:
                    np.testing.assert_array_equal(blk, small.blocks[i - j])

    def test_diagonal_blocks_equal(self, small):
        D = small.dense()
        nd, nm = small.nd, small.nm
        first = D[:nd, :nm]
        for k in range(1, small.nt):
            np.testing.assert_array_equal(
                D[k * nd : (k + 1) * nd, k * nm : (k + 1) * nm], first
            )


class TestReferenceOps:
    def test_matvec_matches_dense(self, small, rng):
        m = rng.standard_normal((6, 3))
        d1 = small.matvec_reference(m)
        d2 = (small.dense() @ m.ravel()).reshape(6, 2)
        np.testing.assert_allclose(d1, d2, rtol=1e-12, atol=1e-12)

    def test_rmatvec_matches_dense(self, small, rng):
        d = rng.standard_normal((6, 2))
        m1 = small.rmatvec_reference(d)
        m2 = (small.dense().T @ d.ravel()).reshape(6, 3)
        np.testing.assert_allclose(m1, m2, rtol=1e-12, atol=1e-12)

    def test_flat_vectors_accepted(self, small, rng):
        m = rng.standard_normal(18)
        np.testing.assert_array_equal(
            small.matvec_reference(m), small.matvec_reference(m.reshape(6, 3))
        )

    def test_flat_data_vectors_accepted(self, small, rng):
        d = rng.standard_normal(12)
        np.testing.assert_array_equal(
            small.rmatvec_reference(d), small.rmatvec_reference(d.reshape(6, 2))
        )

    def test_shape_errors(self, small):
        with pytest.raises(ReproError):
            small.check_input(np.zeros(17))
        with pytest.raises(ReproError):
            small.check_output(np.zeros((6, 3)))

    def test_causality(self, small):
        # input at time k cannot affect output before time k
        m = np.zeros((6, 3))
        m[3] = 1.0
        d = small.matvec_reference(m)
        assert np.all(d[:3] == 0)
        assert np.any(d[3:] != 0)


class TestCirculantEmbedding:
    def test_spectrum_shape(self, small):
        assert small.spectrum().shape == (7, 2, 3)  # Nt+1 frequencies

    def test_spectrum_is_dft_of_kernel(self, small):
        # The circulant embedding's first block column: lags 6..11 zero.
        padded = np.concatenate([small.blocks, np.zeros_like(small.blocks)])
        assert np.array_equal(small.spectrum(), np.fft.rfft(padded, axis=0))

    def test_condition_number_at_least_one(self, small):
        assert small.condition_number_hat() >= 1.0

    def test_identity_kernel_condition_one(self):
        # F_0 = I, F_t = 0: perfectly conditioned spectrum
        blocks = np.zeros((4, 3, 3))
        blocks[0] = np.eye(3)
        m = BlockTriangularToeplitz(blocks)
        assert m.condition_number_hat() == pytest.approx(1.0)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 8), st.integers(1, 4), st.integers(1, 5), st.integers(0, 10**6)
)
def test_property_reference_matches_dense(nt, nd, nm, seed):
    rng = np.random.default_rng(seed)
    M = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng)
    m = rng.standard_normal((nt, nm))
    np.testing.assert_allclose(
        M.matvec_reference(m),
        (M.dense() @ m.ravel()).reshape(nt, nd),
        rtol=1e-11,
        atol=1e-11,
    )
