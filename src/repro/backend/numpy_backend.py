"""NumPy backend: the reference implementation, bitwise-stable.

Every method but one is the *exact* numpy call the hot-path modules made
before the backend layer existed (``np.empty``, ``np.matmul(..., out=)``,
``np.conj``, ``np.copyto(..., casting="same_kind")``, ...), so routing
through this backend changes nothing — not allocation behaviour, not
rounding, not a single bit of any result.  The parity tests assert
exactly that.

The exception is :attr:`NumpyBackend.fft` for float32/complex64 input.
``np.fft.rfft``/``np.fft.fft`` hand pocketfft a Python-int scale, which
numpy (2.4) resolves to the *double* loop through buffered casts: the
result is bit-for-bit ``rfft(x.astype(float64)).astype(complex64)`` —
double-precision error at 2.5x the cost of the float64 transform.  A
single-precision tier computed that way is neither single nor fast, so
single-precision transforms go to ``scipy.fft`` (typed pocketfft, SIMD)
and double-precision ones stay on ``np.fft``, where the two libraries
agree bit for bit.  See :class:`_TieredFFT`.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.backend.base import Backend

__all__ = ["NumpyBackend"]


class _TieredFFT:
    """numpy-style ``rfft/irfft/fft/ifft``, each computed at the
    precision of its input.

    The provider is picked from the input dtype alone: float32/complex64
    run on ``scipy.fft``, everything else on ``np.fft`` exactly as before.
    ``scipy.fft`` is imported by the first single-precision transform,
    not with this module: importing it costs 5-29 MB of resident memory,
    which an all-double process (most of them) should not pay.

    ``out=`` reaches ``np.fft`` only (numpy >= 2.0 writes the result
    there instead of allocating it); ``scipy.fft`` has no such argument,
    so the single-precision tier returns a temporary of the result's
    size — a slab's worth when the engine transforms slab by slab.
    """

    @staticmethod
    def _provider(a, out=None) -> Tuple[Any, dict]:
        """The library for ``a``'s dtype and the keywords it takes."""
        if a.dtype.char not in "fF":
            return np.fft, ({} if out is None else {"out": out})
        import scipy.fft

        return scipy.fft, {}

    def rfft(self, a, axis: int = -1, out=None):
        lib, kw = self._provider(a, out)
        return lib.rfft(a, axis=axis, **kw)

    def irfft(self, a, n=None, axis: int = -1, out=None):
        lib, kw = self._provider(a, out)
        return lib.irfft(a, n=n, axis=axis, **kw)

    def fft(self, a, axis: int = -1, out=None):
        lib, kw = self._provider(a, out)
        return lib.fft(a, axis=axis, **kw)

    def ifft(self, a, axis: int = -1, out=None):
        lib, kw = self._provider(a, out)
        return lib.ifft(a, axis=axis, **kw)


_FFT = _TieredFFT()


class NumpyBackend(Backend):
    """Host numpy execution (always available)."""

    name = "numpy"
    is_device = False

    @property
    def fft(self) -> Any:
        return _FFT

    @classmethod
    def probe(cls) -> Tuple[bool, str]:
        return True, "numpy is always available"

    # -- allocation ----------------------------------------------------------
    def empty(self, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    # -- movement ------------------------------------------------------------
    def asarray(self, a) -> np.ndarray:
        return np.asarray(a)

    def from_device(self, a) -> np.ndarray:
        return a

    def copy(self, a) -> np.ndarray:
        return a.copy()

    def copyto(self, dst, src) -> None:
        np.copyto(dst, src, casting="same_kind")

    def astype(self, a, dtype, copy: bool = True) -> np.ndarray:
        return a.astype(dtype, copy=copy)

    def ascontiguous(self, a, dtype=None) -> np.ndarray:
        if dtype is None:
            return np.ascontiguousarray(a)
        return np.ascontiguousarray(a, dtype=dtype)

    # -- compute -------------------------------------------------------------
    def matmul(self, a, b, out=None) -> np.ndarray:
        if out is None:
            return np.matmul(a, b)
        return np.matmul(a, b, out=out)

    def conjugate(self, a, out=None) -> np.ndarray:
        if out is None:
            return np.conj(a)
        return np.conjugate(a, out=out)

    def add(self, a, b, out=None) -> np.ndarray:
        if out is None:
            return a + b
        return np.add(a, b, out=out)

    def multiply(self, a, b, out=None) -> np.ndarray:
        if out is None:
            return a * b
        return np.multiply(a, b, out=out)

    def transpose(self, a, axes=None) -> np.ndarray:
        if axes is None:
            return a.T
        return a.transpose(axes)

    # -- introspection -------------------------------------------------------
    def dtype_of(self, a) -> np.dtype:
        return a.dtype if a.__class__ is np.ndarray else np.asarray(a).dtype

    def nbytes(self, a) -> int:
        return int(a.nbytes)

    def size(self, a) -> int:
        return int(a.size)

    def is_contiguous(self, a) -> bool:
        return bool(a.flags["C_CONTIGUOUS"])

    def iscomplex(self, a) -> bool:
        if a.__class__ is np.ndarray:
            return a.dtype.kind == "c"
        return bool(np.iscomplexobj(a))
