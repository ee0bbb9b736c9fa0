"""CuPy backend: CUDA execution through a numpy-mirroring namespace.

CuPy tracks numpy's API closely enough that nearly every method is the
``cp.*`` spelling of the numpy call — including ``matmul(..., out=)``,
``conjugate(..., out=)``, ``copyto`` and ``ascontiguousarray`` — and
CuPy array dtypes *are* numpy dtypes, so :meth:`dtype_of` needs no
translation table.  The probe requires both an importable ``cupy`` and
at least one visible CUDA device: an installed wheel on a GPU-less host
must not win ``auto`` resolution over numpy.
"""

from __future__ import annotations

import importlib
from typing import Any, Tuple

import numpy as np

from repro.backend.base import Backend

__all__ = ["CupyBackend"]


class CupyBackend(Backend):
    """CUDA execution via CuPy (requires a visible CUDA device)."""

    name = "cupy"
    is_device = True

    def __init__(self) -> None:
        self._cp = importlib.import_module("cupy")

    @property
    def fft(self) -> Any:
        return self._cp.fft

    @classmethod
    def probe(cls) -> Tuple[bool, str]:
        try:
            cp = importlib.import_module("cupy")
        except Exception as exc:
            return False, f"cupy import failed: {exc}"
        try:
            count = int(cp.cuda.runtime.getDeviceCount())
        except Exception as exc:
            return False, f"CUDA runtime unavailable: {exc}"
        if count < 1:
            return False, "cupy importable but no CUDA device visible"
        return True, f"cupy with {count} CUDA device(s)"

    # -- allocation ----------------------------------------------------------
    def empty(self, shape, dtype) -> Any:
        return self._cp.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype) -> Any:
        return self._cp.zeros(shape, dtype=dtype)

    # -- movement ------------------------------------------------------------
    def asarray(self, a) -> Any:
        return self._cp.asarray(a)

    def from_device(self, a) -> np.ndarray:
        if isinstance(a, np.ndarray):
            return a
        return self._cp.asnumpy(a)

    def copy(self, a) -> Any:
        return a.copy()

    def copyto(self, dst, src) -> None:
        self._cp.copyto(dst, self.asarray(src), casting="same_kind")

    def astype(self, a, dtype, copy: bool = True) -> Any:
        return a.astype(dtype, copy=copy)

    def ascontiguous(self, a, dtype=None) -> Any:
        if dtype is None:
            return self._cp.ascontiguousarray(a)
        return self._cp.ascontiguousarray(a, dtype=dtype)

    # -- compute -------------------------------------------------------------
    def matmul(self, a, b, out=None) -> Any:
        if out is None:
            return self._cp.matmul(a, b)
        return self._cp.matmul(a, b, out=out)

    def conjugate(self, a, out=None) -> Any:
        if out is None:
            return self._cp.conj(a)
        return self._cp.conjugate(a, out=out)

    def add(self, a, b, out=None) -> Any:
        if out is None:
            return a + b
        return self._cp.add(a, b, out=out)

    def multiply(self, a, b, out=None) -> Any:
        if out is None:
            return a * b
        return self._cp.multiply(a, b, out=out)

    def transpose(self, a, axes=None) -> Any:
        if axes is None:
            return a.T
        return a.transpose(axes)

    # -- introspection -------------------------------------------------------
    def dtype_of(self, a) -> np.dtype:
        if isinstance(a, np.ndarray):
            return a.dtype
        return np.dtype(a.dtype)

    def nbytes(self, a) -> int:
        return int(a.nbytes)

    def size(self, a) -> int:
        return int(a.size)

    def is_contiguous(self, a) -> bool:
        return bool(a.flags["C_CONTIGUOUS"])

    def iscomplex(self, a) -> bool:
        return bool(self._cp.iscomplexobj(a)) if not isinstance(a, np.ndarray) else bool(
            np.iscomplexobj(a)
        )

    # -- sync ----------------------------------------------------------------
    def synchronize(self) -> None:
        self._cp.cuda.get_current_stream().synchronize()
