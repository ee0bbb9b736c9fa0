"""The single-precision tier's contract, at every layer that lowers.

* The numpy backend's FFTs compute at their input's precision: bitwise
  ``scipy.fft`` at float32 / complex64 and bitwise ``np.fft`` at float64
  / complex128 — rfft, irfft, fft and ifft, even and odd ``n``, row
  slabs through ``out=`` and a strided axis (how M transforms).
  ``scipy.fft`` is the oracle here only.
* The adjoint's complex64 conjugated spectrum is laid out for an NN
  GEMM and gives the bits of a fresh conjugation on the fast, pairwise
  and segment kernels and through whole engines.
* A ``dssdd`` F* under ``validate="abft"`` raises no false positive.
* M is single precision end to end.
* Without numpy's pocketfft ufuncs the numpy backend refuses to import.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest
import scipy.fft

from repro.backend import NumpyBackend
from repro.blas.gemm_kernels import (
    gemm_strided_batched_reference,
    pairwise_gemm_strided_batched_reference,
    pairwise_segment_values,
)
from repro.blas.types import Operation
from repro.core.matvec import FFTMatvec
from repro.util.dtypes import Precision
from repro.util.validation import ReproError
from tests.inverse.test_residual_replacement import _system

FFT = NumpyBackend().fft
TIERS = [  # (real, complex, oracle)
    (np.float32, np.complex64, scipy.fft),
    (np.float64, np.complex128, np.fft),
]


def _transforms(lib, x, z, n, axis):
    """The four transforms of ``lib`` (and the inverses at both norms)
    along ``axis``, keyed by name; ``x`` real, ``z`` complex, length ``n``."""
    X = lib.rfft(x, axis=axis)
    return {
        "rfft": X,
        "irfft": lib.irfft(X, n=n, axis=axis),
        "irfft_unnormalized": lib.irfft(X, n=n, axis=axis, norm="forward"),
        "fft": lib.fft(z, axis=axis),
        "ifft": lib.ifft(z, axis=axis),
        "ifft_unnormalized": lib.ifft(z, axis=axis, norm="forward"),
    }


class TestTypedTransforms:
    @pytest.mark.parametrize("rows", [1, 7, 384])
    @pytest.mark.parametrize("n", [2, 6, 48, 96, 128, 200, 512, 1000, 1024])
    def test_bitwise_the_oracle_of_each_tier(self, n, rows):
        rng = np.random.default_rng(n * 1000 + rows)
        x = rng.standard_normal((rows, n))
        z = x + 1j * rng.standard_normal((rows, n))
        for real, cplx, oracle in TIERS:
            xr, zc = x.astype(real), z.astype(cplx)
            want = _transforms(oracle, xr, zc, n, axis=1)
            got = _transforms(FFT, xr, zc, n, axis=1)
            # A strided axis: the transform runs down columns, as M's does.
            down = _transforms(FFT, np.ascontiguousarray(xr.T), np.ascontiguousarray(zc.T), n, axis=0)
            for name, w in want.items():
                assert w.dtype in (real, cplx), name
                assert got[name].dtype == w.dtype and np.array_equal(got[name], w), name
                assert np.array_equal(down[name].T, w), name

    @pytest.mark.parametrize("n", [6, 200, 1024])
    def test_row_slabs_through_out_are_the_whole_call(self, n):
        rows = 7
        rng = np.random.default_rng(n)
        x = rng.standard_normal((rows, n))
        for real, cplx, oracle in TIERS:
            xr = x.astype(real)
            X = oracle.rfft(xr, axis=1)
            got_f = np.empty_like(X)
            got_i = np.empty_like(xr)
            for r0, r1 in ((0, 3), (3, 6), (6, 7)):
                dst = got_f[r0:r1]
                assert FFT.rfft(xr[r0:r1], axis=1, out=dst) is dst
                dst = got_i[r0:r1]
                assert FFT.irfft(X[r0:r1], n=n, axis=1, norm="forward", out=dst) is dst
            assert np.array_equal(got_f, X)
            assert np.array_equal(got_i, oracle.irfft(X, n=n, axis=1, norm="forward"))

    def test_single_is_computed_in_single(self, rng):
        # np.fft.rfft rounds a double transform of float32 input; the
        # typed transform does not, and is faster for it.
        x = rng.standard_normal((4, 1024)).astype(np.float32)
        via_double = np.fft.rfft(x.astype(np.float64), axis=1).astype(np.complex64)
        assert not np.array_equal(FFT.rfft(x, axis=1), via_double)

    def test_an_unknown_norm_is_refused(self, rng):
        with pytest.raises(ReproError, match="norm"):
            FFT.ifft(np.ones(8, np.complex64), norm="ortho")


def _engines(reduction):
    """An engine and its twin holding the complex64 conjugate in the
    layout of a fresh ``np.conj`` (the reference)."""
    blocks = np.random.default_rng(5).standard_normal((16, 6, 20))
    eng, ref = FFTMatvec(blocks, reduction=reduction), FFTMatvec(blocks, reduction=reduction)
    ref._fhat_conj[Precision.SINGLE] = np.conj(ref.spectrum("s"))
    return eng, ref


class TestAdjointSpectrumLayout:
    def test_complex64_is_an_nn_view_and_complex128_is_stored_as_is(self):
        eng, _ = _engines("fast")
        single, double = eng.spectrum_conj("s"), eng.spectrum_conj("d")
        assert single.shape == double.shape == (eng.n_freq, eng.nd, eng.nm)
        assert single.transpose(0, 2, 1).flags.c_contiguous
        assert double.flags.c_contiguous
        assert np.array_equal(single, np.conj(eng.spectrum("s")))
        assert np.array_equal(double, np.conj(eng.spectrum("d")))
        assert eng.spectrum_conj("s") is single  # cached

    def test_kernels_are_bitwise_a_fresh_conjugation(self):
        eng, _ = _engines("fast")
        fhat, a_conj = eng.spectrum("s"), eng.spectrum_conj("s")
        rng = np.random.default_rng(6)
        for k in (1, 2, 5, 16):
            B = (rng.standard_normal((eng.n_freq, eng.nd, k))
                 + 1j * rng.standard_normal((eng.n_freq, eng.nd, k))).astype(np.complex64)
            if k > 1:  # a lone fast column is the GEMV, which takes no a_conj
                assert np.array_equal(
                    gemm_strided_batched_reference(fhat, B, Operation.C, a_conj=a_conj),
                    gemm_strided_batched_reference(fhat, B, Operation.C),
                )
            assert np.array_equal(
                pairwise_gemm_strided_batched_reference(fhat, B, Operation.C, a_conj=a_conj),
                pairwise_gemm_strided_batched_reference(fhat, B, Operation.C),
            )
            lo = 2  # a rank's row block [2, 5) of a 9-row global contraction
            part = slice(lo, lo + 3)
            got = pairwise_segment_values(
                fhat[:, part], B[:, part], Operation.C, lo, 9, a_conj=a_conj[:, part]
            )
            want = pairwise_segment_values(fhat[:, part], B[:, part], Operation.C, lo, 9)
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[s], want[s]) for s in want)

    @pytest.mark.parametrize("reduction", ["fast", "pairwise"])
    def test_engines_are_bitwise_the_fresh_conjugate_layout(self, reduction):
        eng, ref = _engines(reduction)
        rng = np.random.default_rng(7)
        D = rng.standard_normal((eng.nt, eng.nd, 4))
        for config in ("dssdd", "sssss", "ddsdd"):
            for det in (False, True):
                for cols in (D, D[:, :, :1]):  # a lone column included
                    got = eng.rmatmat(cols, config, deterministic=det)
                    assert np.array_equal(got, ref.rmatmat(cols, config, deterministic=det))
            assert np.array_equal(eng.rmatvec(D[:, :, 0], config), ref.rmatvec(D[:, :, 0], config))


@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
def test_dssdd_adjoint_under_abft_has_no_false_positive(reduction):
    blocks = np.random.default_rng(8).standard_normal((32, 24, 96))
    checked = FFTMatvec(blocks, reduction=reduction, validate="abft")
    plain = FFTMatvec(blocks, reduction=reduction)
    rng = np.random.default_rng(9)
    for k in (1, 2, 8):
        for _ in range(3):
            D = rng.standard_normal((32, 24, k))
            before = checked.sdc_checks
            assert np.array_equal(checked.rmatmat(D, "dssdd"), plain.rmatmat(D, "dssdd"))
            assert checked.sdc_checks > before


def test_m_is_single_precision_end_to_end():
    eng, hess, rhs = _system((32, 24, 96))
    M = hess.preconditioner
    z = M.apply(rhs)
    Z = M.apply_block(np.stack([rhs, 2 * rhs], axis=2))
    assert z.dtype == Z.dtype == np.float64
    for k in (1, 2):
        pad, vhat, t, w = M._bufs[k]
        assert pad.dtype == np.float32
        assert vhat.dtype == t.dtype == w.dtype == np.complex64
        assert not np.shares_memory(pad, w)
        assert not pad[eng.nt:].any()  # the padding is re-zeroed for the next apply


def test_the_numpy_backend_refuses_to_import_without_a_pocketfft_ufunc(monkeypatch):
    import numpy.fft._pocketfft_umath as pfu

    import repro.backend.numpy_backend as nb

    monkeypatch.delattr(pfu, "irfft")
    spec = importlib.util.spec_from_file_location("_numpy_backend_without_irfft", nb.__file__)
    with pytest.raises(ReproError, match=r"numpy >= 2\.0"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
