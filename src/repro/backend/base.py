"""The array-backend protocol: one seam between the engines and numpy.

Every hot-path layer of the five-phase pipeline — the workspace arena,
pad/reorder/unpad kernels, the FFT planner, both BLAS kernel families
and the comm payload staging — performs its array work through a
:class:`Backend` instance instead of calling ``np.*`` directly.  The
backend exposes:

* an FFT adapter (``fft``) with numpy-style
  ``rfft/irfft/fft/ifft(a, axis=...)`` signatures, the inverses taking
  numpy's ``norm=`` too;
* allocation (``empty``/``zeros``) and movement (``asarray``,
  ``from_device``, ``copy``/``copyto``);
* compute entry points (``matmul`` with ``out=``, ``conjugate``,
  ``add``, ``multiply``, ``transpose``);
* dtype plumbing keyed by **numpy dtypes** (``dtype_of`` maps any
  backend array's dtype back to ``np.dtype``), so the
  :class:`~repro.util.dtypes.Precision` machinery, workspace keys and
  BLAS datatype enums never change;
* a ``synchronize`` hook (device backends flush queued work before
  wall-clock timestamps are read).

The numpy backend implements every operation with the *exact* numpy
call the engines used before this layer existed — single-precision FFTs
excepted, which call numpy's pocketfft with a single-precision scale
because ``np.fft`` computes them in double (see
:mod:`repro.backend.numpy_backend`).  Simulated timing is
unaffected by backend choice: kernels charge modeled time from problem
*sizes*, never from array contents.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.util.dtypes import Precision, complex_dtype, real_dtype
from repro.util.validation import ReproError

__all__ = ["Backend", "BackendUnavailableError", "BackendFallbackWarning", "host_empty"]


class BackendUnavailableError(ReproError):
    """An explicitly requested backend cannot run on this host."""


class BackendFallbackWarning(UserWarning):
    """``auto`` resolution skipped unavailable device backends."""


def host_empty(shape, dtype) -> np.ndarray:
    """Uninitialized **host** (numpy) allocation.

    For results handed to callers: engine outputs are always host
    float64 regardless of the compute backend.  Linted hot-path modules
    use this instead of a bare ``np.empty`` so the backend-lint test can
    ban direct numpy allocations there while host-side result buffers
    remain possible.
    """
    return np.empty(shape, dtype=dtype)


class Backend:
    """Abstract array backend.

    Concrete backends (:class:`~repro.backend.numpy_backend.NumpyBackend`,
    :class:`~repro.backend.torch_backend.TorchBackend`) fill in ``fft``
    and the per-operation methods.  All dtype *parameters* and
    the :meth:`dtype_of` return value are numpy dtypes — backends
    translate internally, so precision configs, workspace keys and BLAS
    datatypes stay backend-agnostic.
    """

    #: Registry name (``"numpy"``, ``"torch"``).
    name: str = "abstract"
    #: True when arrays live in device memory (host transfers are real).
    is_device: bool = False

    # -- namespaces ----------------------------------------------------------
    @property
    def fft(self) -> Any:
        """FFT module with numpy-style ``rfft/irfft/fft/ifft(a, axis=)``
        (``irfft``/``ifft`` also take ``norm=``), each computed at the
        precision of its input."""
        raise NotImplementedError

    # -- availability --------------------------------------------------------
    @classmethod
    def probe(cls) -> Tuple[bool, str]:
        """``(available, reason)`` — importable and usable on this host."""
        raise NotImplementedError

    # -- allocation ----------------------------------------------------------
    def empty(self, shape, dtype) -> Any:
        """Uninitialized backend array of ``shape`` and numpy ``dtype``."""
        raise NotImplementedError

    def zeros(self, shape, dtype) -> Any:
        """Zero-filled backend array of ``shape`` and numpy ``dtype``."""
        raise NotImplementedError

    # -- movement ------------------------------------------------------------
    def asarray(self, a) -> Any:
        """Present ``a`` as a backend array (share memory when possible)."""
        raise NotImplementedError

    def from_device(self, a) -> np.ndarray:
        """Backend array -> host numpy array (identity for numpy)."""
        raise NotImplementedError

    def copy(self, a) -> Any:
        """A new backend array with the same contents as ``a``."""
        raise NotImplementedError

    def copyto(self, dst, src) -> None:
        """``dst[...] = src`` with same-kind casting (numpy ``copyto``)."""
        raise NotImplementedError

    def astype(self, a, dtype, copy: bool = True) -> Any:
        """Cast; ``copy=False`` returns ``a`` unchanged when dtypes match."""
        raise NotImplementedError

    def ascontiguous(self, a, dtype=None) -> Any:
        """C-contiguous view/copy, optionally casting (ascontiguousarray)."""
        raise NotImplementedError

    # -- compute -------------------------------------------------------------
    def matmul(self, a, b, out=None) -> Any:
        """Batched matrix product ``a @ b`` (optionally into ``out``)."""
        raise NotImplementedError

    def conjugate(self, a, out=None) -> Any:
        """Elementwise complex conjugate (materialized, not lazy)."""
        raise NotImplementedError

    def add(self, a, b, out=None) -> Any:
        """Elementwise ``a + b`` (optionally into ``out``)."""
        raise NotImplementedError

    def multiply(self, a, b, out=None) -> Any:
        """Elementwise ``a * b`` (optionally into ``out``)."""
        raise NotImplementedError

    def transpose(self, a, axes=None) -> Any:
        """Transpose (reverse axes, or permute by ``axes``)."""
        raise NotImplementedError

    # -- introspection -------------------------------------------------------
    def dtype_of(self, a) -> np.dtype:
        """The numpy dtype equivalent of a backend array's dtype."""
        raise NotImplementedError

    def nbytes(self, a) -> int:
        """Total bytes of the array's data buffer."""
        raise NotImplementedError

    def size(self, a) -> int:
        """Number of elements."""
        raise NotImplementedError

    def is_contiguous(self, a) -> bool:
        """True when ``a`` is C-contiguous."""
        raise NotImplementedError

    def iscomplex(self, a) -> bool:
        """True when ``a`` has a complex dtype."""
        raise NotImplementedError

    # -- sync ----------------------------------------------------------------
    def synchronize(self) -> None:
        """Block until queued device work completes (no-op on host)."""

    # -- derived helpers -----------------------------------------------------
    def cast(self, a, precision: Precision) -> Any:
        """Precision cast preserving real/complexness.

        Returns the input unchanged when already at the target
        precision, else a copy rounded once to it (the engine's held
        spectrum tiers are built by
        :meth:`repro.core.matvec.FFTMatvec.spectrum` instead, a column
        panel at a time).
        """
        prec = Precision.parse(precision)
        target = complex_dtype(prec) if self.iscomplex(a) else real_dtype(prec)
        if self.dtype_of(a) == target:
            return a
        return self.astype(a, target, copy=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"
