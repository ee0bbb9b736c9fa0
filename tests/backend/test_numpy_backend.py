"""NumpyBackend op parity: every method is the exact legacy numpy call
(single-precision FFTs excepted — they compute in single, see below).

The refactor's core invariant — routing the hot path through
:class:`NumpyBackend` is *bitwise* identical to the direct ``np.*``
spelling it replaced — checked op by op.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend, host_empty
from repro.util.dtypes import Precision, complex_dtype, real_dtype

BE = NumpyBackend()


@pytest.fixture
def carr(rng) -> np.ndarray:
    a = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    return a.astype(np.complex128)


def test_identity_and_probe():
    ok, reason = NumpyBackend.probe()
    assert ok and "numpy" in reason
    assert BE.name == "numpy"
    assert not BE.is_device


def test_fft_namespace_computes_at_the_input_precision(rng):
    # One provider, numpy's pocketfft ufuncs with a typed scale.  Double
    # input: the legacy np.fft call, bit for bit.  Single input: the
    # single loop (np.fft.rfft/fft would round a double transform), so
    # ``BE.fft is np.fft`` does not hold, by design.  Both honour out=.
    x = rng.standard_normal((3, 64))
    X = np.fft.rfft(x, axis=1)
    z = (x[:, :32] + 1j * x[:, 32:]).astype(np.complex128)
    assert np.array_equal(BE.fft.rfft(x, axis=1), X)
    assert np.array_equal(BE.fft.irfft(X, n=64, axis=1), np.fft.irfft(X, n=64, axis=1))
    assert np.array_equal(BE.fft.fft(z, axis=1), np.fft.fft(z, axis=1))
    assert np.array_equal(BE.fft.ifft(z, axis=1), np.fft.ifft(z, axis=1))
    x32, X64, z64 = x.astype(np.float32), X.astype(np.complex64), z.astype(np.complex64)
    for got, in_double in (
        (BE.fft.rfft(x32, axis=1), np.fft.rfft(x32.astype(float), axis=1)),
        (BE.fft.irfft(X64, n=64, axis=1), np.fft.irfft(X64.astype(complex), n=64, axis=1)),
        (BE.fft.fft(z64, axis=1), np.fft.fft(z64.astype(complex), axis=1)),
        (BE.fft.ifft(z64, axis=1), np.fft.ifft(z64.astype(complex), axis=1)),
    ):
        assert got.dtype.char in "fF"
        assert not np.array_equal(got, in_double.astype(got.dtype))
    for a, fn in ((x, BE.fft.rfft), (x32, BE.fft.rfft), (z, BE.fft.fft), (z64, BE.fft.fft)):
        want = fn(a, axis=1)
        out = np.empty_like(want)
        assert fn(a, axis=1, out=out) is out and np.array_equal(out, want)


def test_allocation_shapes_and_dtypes():
    e = BE.empty((4, 5), np.complex64)
    z = BE.zeros((4, 5), np.float32)
    assert e.shape == (4, 5) and e.dtype == np.complex64
    assert z.dtype == np.float32 and not z.any()
    h = host_empty((2, 3), np.float64)
    assert isinstance(h, np.ndarray) and h.dtype == np.float64


def test_movement_is_identity_or_aliasing(rng):
    a = rng.standard_normal((4, 4))
    assert BE.asarray(a) is a  # np.asarray of an ndarray aliases
    assert BE.from_device(a) is a
    c = BE.copy(a)
    assert c is not a and np.array_equal(c, a)
    dst = np.empty_like(a)
    BE.copyto(dst, a)
    assert np.array_equal(dst, a)


def test_matmul_matches_numpy(rng, carr):
    b = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
    expect = np.matmul(carr, b)
    assert np.array_equal(BE.matmul(carr, b), expect)
    out = np.empty_like(expect)
    BE.matmul(carr, b, out=out)
    assert np.array_equal(out, expect)


def test_matmul_into_a_transposed_view_matches_numpy(rng):
    # The GEMV kernels and Phase 3 hand matmul strided views of their outputs.
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((3, 5, 2))
    out = np.empty((3, 2, 4))
    BE.matmul(a, b, out=BE.transpose(out, (0, 2, 1)))
    assert np.array_equal(BE.transpose(out, (0, 2, 1)), np.matmul(a, b))


def test_conjugate_matches_numpy(carr):
    assert np.array_equal(BE.conjugate(carr), np.conj(carr))
    out = np.empty_like(carr)
    BE.conjugate(carr, out=out)
    assert np.array_equal(out, np.conj(carr))


def test_add_multiply_match_numpy(rng):
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    assert np.array_equal(BE.add(a, b), a + b)
    assert np.array_equal(BE.multiply(a, b), a * b)
    out = np.empty_like(a)
    BE.add(a, b, out=out)
    assert np.array_equal(out, a + b)
    BE.multiply(a, b, out=out)
    assert np.array_equal(out, a * b)


def test_transpose_is_a_view(rng):
    a = rng.standard_normal((2, 3, 4))
    assert np.array_equal(BE.transpose(a), a.T)
    assert np.array_equal(BE.transpose(a, (0, 2, 1)), a.transpose(0, 2, 1))
    assert np.shares_memory(BE.transpose(a, (0, 2, 1)), a)


def test_astype_and_ascontiguous(rng):
    a = rng.standard_normal((4, 4))
    assert BE.astype(a, np.float64, copy=False) is a
    f32 = BE.astype(a, np.float32, copy=False)
    assert f32.dtype == np.float32
    strided = a.T
    cont = BE.ascontiguous(strided)
    assert cont.flags["C_CONTIGUOUS"]
    assert np.array_equal(cont, np.ascontiguousarray(strided))


def test_cast_matches_astype(rng, carr):
    a = rng.standard_normal((4, 4))
    for prec in (Precision.DOUBLE, Precision.SINGLE):
        for arr, dt in ((a, real_dtype(prec)), (carr, complex_dtype(prec))):
            got = BE.cast(arr, prec)
            assert got.dtype == dt and np.array_equal(got, arr.astype(dt))
    assert BE.cast(a, Precision.DOUBLE) is a  # no-op cast aliases
    assert BE.cast(np.array([1.0 + 2.0**-40]), Precision.SINGLE)[0] == np.float32(1.0)


def test_introspection(rng, carr):
    a = rng.standard_normal((4, 4))
    assert BE.dtype_of(a) == np.float64
    assert BE.nbytes(a) == a.nbytes
    assert BE.size(a) == a.size
    assert BE.is_contiguous(a) and not BE.is_contiguous(a.T)
    assert BE.iscomplex(carr) and not BE.iscomplex(a)


def test_fft_roundtrip_matches_numpy(rng):
    x = rng.standard_normal((3, 16))
    assert np.array_equal(BE.fft.rfft(x, axis=1), np.fft.rfft(x, axis=1))
    spec = np.fft.rfft(x, axis=1)
    assert np.array_equal(
        BE.fft.irfft(spec, n=16, axis=1), np.fft.irfft(spec, n=16, axis=1)
    )


def test_synchronize_is_noop():
    BE.synchronize()  # must not raise
