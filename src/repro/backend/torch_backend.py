"""PyTorch backend: CPU or CUDA execution behind the Backend protocol.

Torch's API differs from numpy's in exactly the places the adapter
papers over:

* ``torch.fft.*`` takes ``dim=`` where numpy takes ``axis=`` (and
  ``irfft`` takes ``n=`` like numpy — only the axis keyword differs);
* ``torch.conj`` returns a lazy *view* with a conjugate bit set;
  kernels that hand the result to ``matmul``/slice-assignment need the
  materialized bytes, so the backend uses ``conj_physical``;
* ``torch.matmul(out=)`` refuses some non-contiguous ``out`` views that
  numpy accepts (the GEMV kernels write through ``out[:, :, None]``
  style views), so ``matmul`` falls back to compute-then-``copy_``;
* permutations use ``Tensor.permute``, not ``transpose(axes)``.

Dtypes cross the boundary as numpy dtypes (:meth:`dtype_of` maps
``torch.float32`` and friends back), so the precision lattice and
workspace keys never see a torch dtype.  CPU tensors share memory with
numpy arrays in both directions (``as_tensor`` / ``Tensor.numpy``).
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Tuple

import numpy as np

from repro.backend.base import Backend

__all__ = ["TorchBackend"]

_NP_DTYPES = ("float32", "float64", "complex64", "complex128", "int64", "bool")


class _TorchFFT:
    """numpy-style FFT signatures over ``torch.fft`` (axis -> dim)."""

    def __init__(self, torch_mod) -> None:
        self._fft = torch_mod.fft

    def rfft(self, a, axis: int = -1):
        return self._fft.rfft(a, dim=axis)

    def irfft(self, a, n=None, axis: int = -1, norm=None):
        return self._fft.irfft(a, n=n, dim=axis, norm=norm)

    def fft(self, a, axis: int = -1):
        return self._fft.fft(a, dim=axis)

    def ifft(self, a, axis: int = -1, norm=None):
        return self._fft.ifft(a, dim=axis, norm=norm)


class TorchBackend(Backend):
    """PyTorch execution; device picked at construction.

    ``device=None`` selects CUDA when torch sees a GPU, else CPU; the
    ``REPRO_TORCH_DEVICE`` environment variable overrides (e.g. ``cpu``
    to force host execution on a CUDA box, as the CI parity leg does).
    """

    name = "torch"

    def __init__(self, device: Any = None) -> None:
        torch = importlib.import_module("torch")
        self._torch = torch
        if device is None:
            device = os.environ.get("REPRO_TORCH_DEVICE", "").strip() or (
                "cuda" if torch.cuda.is_available() else "cpu"
            )
        self.device = torch.device(device)
        self.is_device = self.device.type != "cpu"
        self._fft_adapter = _TorchFFT(torch)
        self._np2torch = {
            np.dtype(n): getattr(torch, n) for n in _NP_DTYPES if hasattr(torch, n)
        }
        self._torch2np = {t: n for n, t in self._np2torch.items()}

    @property
    def fft(self) -> Any:
        return self._fft_adapter

    @classmethod
    def probe(cls) -> Tuple[bool, str]:
        try:
            importlib.import_module("torch")
        except Exception as exc:  # ImportError or a broken install
            return False, f"torch import failed: {exc}"
        return True, "torch importable"

    # -- dtype plumbing ------------------------------------------------------
    def _map_dtype(self, dtype):
        dt = np.dtype(dtype)
        try:
            return self._np2torch[dt]
        except KeyError:
            raise ValueError(f"dtype {dt} has no torch equivalent") from None

    def dtype_of(self, a) -> np.dtype:
        if isinstance(a, np.ndarray):
            return a.dtype
        if self._torch.is_tensor(a):
            return self._torch2np[a.dtype]
        return np.asarray(a).dtype

    # -- allocation ----------------------------------------------------------
    def empty(self, shape, dtype) -> Any:
        return self._torch.empty(
            tuple(int(s) for s in shape), dtype=self._map_dtype(dtype), device=self.device
        )

    def zeros(self, shape, dtype) -> Any:
        return self._torch.zeros(
            tuple(int(s) for s in shape), dtype=self._map_dtype(dtype), device=self.device
        )

    # -- movement ------------------------------------------------------------
    def asarray(self, a) -> Any:
        if self._torch.is_tensor(a):
            return a if a.device == self.device else a.to(self.device)
        return self._torch.as_tensor(np.asarray(a), device=self.device)

    def from_device(self, a) -> np.ndarray:
        if isinstance(a, np.ndarray):
            return a
        return a.detach().cpu().numpy()

    def copy(self, a) -> Any:
        return a.clone()

    def copyto(self, dst, src) -> None:
        dst.copy_(self.asarray(src))

    def astype(self, a, dtype, copy: bool = True) -> Any:
        td = self._map_dtype(dtype)
        if a.dtype == td:
            return a.clone() if copy else a
        return a.to(td)

    def ascontiguous(self, a, dtype=None) -> Any:
        t = self.asarray(a)
        if dtype is not None:
            t = self.astype(t, dtype, copy=False)
        return t.contiguous()

    # -- compute -------------------------------------------------------------
    def matmul(self, a, b, out=None) -> Any:
        if out is None:
            return self._torch.matmul(a, b)
        try:
            return self._torch.matmul(a, b, out=out)
        except RuntimeError:
            # torch rejects some non-contiguous out views numpy accepts.
            out.copy_(self._torch.matmul(a, b))
            return out

    def conjugate(self, a, out=None) -> Any:
        if out is None:
            return self._torch.conj_physical(a)
        return self._torch.conj_physical(a, out=out)

    def add(self, a, b, out=None) -> Any:
        if out is None:
            return self._torch.add(a, b)
        return self._torch.add(a, b, out=out)

    def multiply(self, a, b, out=None) -> Any:
        if not self._torch.is_tensor(b):
            b = self._torch.as_tensor(np.asarray(b), device=self.device)
        if out is None:
            return self._torch.mul(a, b)
        return self._torch.mul(a, b, out=out)

    def transpose(self, a, axes=None) -> Any:
        if axes is None:
            axes = tuple(range(a.ndim))[::-1]
        return a.permute(*axes)

    # -- introspection -------------------------------------------------------
    def nbytes(self, a) -> int:
        if isinstance(a, np.ndarray):
            return int(a.nbytes)
        return int(a.element_size() * a.nelement())

    def size(self, a) -> int:
        if isinstance(a, np.ndarray):
            return int(a.size)
        return int(a.nelement())

    def is_contiguous(self, a) -> bool:
        if isinstance(a, np.ndarray):
            return bool(a.flags["C_CONTIGUOUS"])
        return bool(a.is_contiguous())

    def iscomplex(self, a) -> bool:
        if self._torch.is_tensor(a):
            return bool(a.dtype.is_complex)
        return bool(np.iscomplexobj(a))

    # -- sync ----------------------------------------------------------------
    def synchronize(self) -> None:
        if self.device.type == "cuda":
            self._torch.cuda.synchronize(self.device)
