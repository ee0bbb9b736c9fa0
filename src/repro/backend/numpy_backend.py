"""NumPy backend: the reference implementation, bitwise-stable.

Every method is the *exact* numpy call the hot-path modules made before
the backend layer existed (``np.empty``, ``np.matmul(..., out=)``,
``np.conj``, ``np.copyto(..., casting="same_kind")``, ...), so routing
through this backend changes nothing — not allocation behaviour, not
rounding, not a single bit of any result.  The parity tests assert
exactly that.

The FFTs are numpy's own pocketfft ufuncs, called as ``np.fft`` calls
them but with a scale of the input's dtype.  ``np.fft.rfft``/``fft``
hand the ufunc a Python-int scale, which numpy (2.4) resolves to the
*double* loop: a float32 result is bit-for-bit
``rfft(x.astype(float64)).astype(complex64)``, double-precision error at
2.5x the cost of the float64 transform.  Typed, a single-precision
transform is computed in single (bitwise ``scipy.fft``) and a double
one is bitwise ``np.fft``'s, both honouring ``out=``.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.backend.base import Backend
from repro.util.validation import ReproError

__all__ = ["NumpyBackend"]

try:  # a private numpy module: without it the backend refuses, never falls back
    from numpy.fft import _pocketfft_umath as _pfu

    _RFFT_EVEN, _RFFT_ODD, _IRFFT, _CFFT, _ICFFT = (
        getattr(_pfu, name) for name in ("rfft_n_even", "rfft_n_odd", "irfft", "fft", "ifft")
    )
except (ImportError, AttributeError) as exc:
    raise ReproError(f"the numpy backend needs numpy >= 2.0's pocketfft ufuncs: {exc}") from exc


class _TieredFFT:
    """numpy-style ``rfft/irfft/fft/ifft``, each computed at the
    precision of its input: one pocketfft ufunc call whose scale — 1, or
    ``1/n`` on an inverse under ``norm=None`` / ``"backward"`` — has the
    input's real dtype.  ``out=`` (the result's shape and dtype) receives
    the result at both tiers; without it a fresh array is returned."""

    @staticmethod
    def _run(ufunc, a, axis: int, n_out: int, out, real_out: bool = False, norm="forward"):
        if norm not in (None, "backward", "forward"):
            raise ReproError(f"norm must be None, 'backward' or 'forward', got {norm!r}")
        a = np.asarray(a)
        real = np.result_type(a.real.dtype, 1.0)
        scale = real.type(1) if norm == "forward" else np.reciprocal(n_out, dtype=real)
        if out is None:
            shape = list(a.shape)
            shape[axis] = n_out
            out = np.empty(shape, real if real_out else np.result_type(real, 1j))
        return ufunc(a, scale, axes=[(axis,), (), (axis,)], out=out)

    def rfft(self, a, axis: int = -1, out=None):
        n = np.shape(a)[axis]
        return self._run(_RFFT_EVEN if n % 2 == 0 else _RFFT_ODD, a, axis, n // 2 + 1, out)

    def irfft(self, a, n=None, axis: int = -1, norm=None, out=None):
        n = 2 * (np.shape(a)[axis] - 1) if n is None else n
        return self._run(_IRFFT, a, axis, n, out, real_out=True, norm=norm)

    def fft(self, a, axis: int = -1, out=None):
        return self._run(_CFFT, a, axis, np.shape(a)[axis], out)

    def ifft(self, a, axis: int = -1, norm=None, out=None):
        return self._run(_ICFFT, a, axis, np.shape(a)[axis], out, norm=norm)


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
