"""Plan-based batched FFT API mirroring cufftPlanMany / hipfftPlanMany.

A plan fixes the transform length, batch count, type (D2Z/Z2D/Z2Z and the
single-precision variants R2C/C2R/C2C) and precision.  Executing a plan:

* computes the transform through the backend's ``fft`` namespace **at
  the plan's precision**.  On the numpy backend that means two
  libraries: double-precision plans (D2Z/Z2D/Z2Z) run on ``np.fft``,
  single-precision plans (R2C/C2R/C2C) on ``scipy.fft`` — because
  ``np.fft.rfft``/``np.fft.fft`` compute float32/complex64 input in
  *double* and round the result (slower than the float64 transform, and
  not single-precision error), whereas ``scipy.fft`` is typed: complex64
  in, single-precision butterflies, complex64 out.  So the numerical
  error of a single-precision FFT phase is measured, not modeled, and
  lowering the tier makes the transform faster.  The two libraries
  agree bit for bit on float64 transforms; details and measurements in
  :mod:`repro.backend.numpy_backend`;
* optionally charges simulated time on an attached
  :class:`~repro.gpu.device.SimulatedDevice`.  FFT cost model: a radix
  FFT of length n moves ~``2 * ceil(log2 n) / unroll`` passes over the
  data; modern GPU FFTs fuse multiple radix stages per pass, so we charge
  ``passes = max(2, ceil(log2(n) / stages_per_pass))`` sweeps of
  read+write traffic.

FFTMatvec uses D2Z forward (real input, half-spectrum output) and Z2D
inverse, exactly like the original code's cuFFT calls.

Input staging is allocation-aware: when the input already has the
plan's dtype and is contiguous, staging is an explicit no-op (counted
in ``stage_noops``); otherwise the plan copies into a persistent
workspace buffer when a :class:`~repro.util.workspace.Workspace` is
supplied (counted in ``stage_copies``) instead of allocating a fresh
``ascontiguousarray`` per execution.  The inverse transform is asked
of the backend unnormalized (``norm="forward"``), so no scaling pass
follows it.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Optional

import numpy as np

from repro.backend import Backend, NumpyBackend
from repro.gpu.bandwidth import stream_efficiency
from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3, KernelLaunch
from repro.gpu.specs import GPUSpec
from repro.util import checksum as _chk
from repro.util.dtypes import Precision, complex_dtype, real_dtype
from repro.util.validation import ReproError, check_positive_int
from repro.util.workspace import Workspace

__all__ = ["FFTType", "FFTPlan", "fft_traffic_bytes"]

_NUMPY = NumpyBackend()


class FFTType(enum.Enum):
    """Transform kinds, named after the cuFFT enums."""

    D2Z = "D2Z"  # double real -> double complex (forward)
    Z2D = "Z2D"  # double complex -> double real (inverse)
    Z2Z = "Z2Z"  # double complex <-> double complex
    R2C = "R2C"  # single real -> single complex (forward)
    C2R = "C2R"  # single complex -> single real (inverse)
    C2C = "C2C"  # single complex <-> single complex

    @property
    def precision(self) -> Precision:
        return Precision.DOUBLE if self.value in ("D2Z", "Z2D", "Z2Z") else Precision.SINGLE

    @property
    def is_real_forward(self) -> bool:
        return self.value in ("D2Z", "R2C")

    @property
    def is_real_inverse(self) -> bool:
        return self.value in ("Z2D", "C2R")

    @classmethod
    def real_forward(cls, prec: Precision) -> "FFTType":
        return cls.D2Z if Precision.parse(prec) is Precision.DOUBLE else cls.R2C

    @classmethod
    def real_inverse(cls, prec: Precision) -> "FFTType":
        return cls.Z2D if Precision.parse(prec) is Precision.DOUBLE else cls.C2R


# GPU FFT kernels fuse ~4 radix stages per global-memory pass.
_STAGES_PER_PASS = 4


def fft_traffic_bytes(
    n: int, batch: int, precision: Precision, forward: bool, real: bool = True
) -> float:
    """Read+write HBM traffic of one batched FFT execution: a real
    transform (half spectrum on the complex side) in the given
    direction, or with ``real=False`` a complex-to-complex one."""
    r = real_dtype(precision).itemsize
    c = complex_dtype(precision).itemsize
    half = n // 2 + 1
    if not real:
        in_b = out_b = n * c
    elif forward:
        in_b, out_b = n * r, half * c
    else:
        in_b, out_b = half * c, n * r
    passes = max(2, math.ceil(math.log2(max(n, 2)) / _STAGES_PER_PASS))
    return float(batch) * (in_b + out_b) * passes / 2.0


class FFTPlan:
    """A batched 1-D FFT plan.

    Parameters
    ----------
    n:
        Transform length (the padded block length ``2*Nt`` in FFTMatvec).
    batch:
        Number of independent transforms.
    fft_type:
        One of :class:`FFTType`.
    device:
        Optional simulated device to charge execution time on.

    Notes
    -----
    Layout is contiguous batched (stride 1, distance n), the layout
    FFTMatvec uses after its reorder phase; the plan validates input
    shapes accordingly.
    """

    def __init__(
        self,
        n: int,
        batch: int,
        fft_type: FFTType,
        device: Optional[SimulatedDevice] = None,
        backend: Optional[Backend] = None,
    ) -> None:
        self.n = check_positive_int(n, "n")
        self.batch = check_positive_int(batch, "batch")
        self.fft_type = fft_type
        self.device = device
        self.backend = backend if backend is not None else _NUMPY
        self.precision = fft_type.precision
        self._rdt = real_dtype(self.precision)
        self._cdt = complex_dtype(self.precision)
        self._real_fwd, self._real_inv = fft_type.is_real_forward, fft_type.is_real_inverse
        if isinstance(self.backend, NumpyBackend):
            # Import the plan's library on the thread that builds it: an
            # engine's slabs may execute the plan first on pool threads,
            # and a first import of scipy.fft racing there moved the
            # process's peak memory by 33 MB from one run to the next.
            self.backend.fft.load(self._rdt)
        self.executions = 0
        # Of the executions (not a further slab's call): inputs that
        # needed no staging copy, inputs staged into a workspace buffer.
        self.stage_noops = 0
        self.stage_copies = 0

    # -- cost model ----------------------------------------------------------
    @property
    def half_len(self) -> int:
        """Half-spectrum length for real transforms (n//2 + 1)."""
        return self.n // 2 + 1

    def _book(self, phase: Optional[str]) -> None:
        """Count and charge one whole-batch execution (not a further slab's)."""
        if phase is None:
            return
        self.executions += 1
        if self.device is not None:
            self.device.launch(self.launch(self.device.spec), phase)

    def launch(self, spec: GPUSpec) -> KernelLaunch:
        """The kernel launch of one whole-batch execution on ``spec`` —
        what an attached device books, and what the perf model prices."""
        traffic = fft_traffic_bytes(
            self.n, self.batch, self.precision, self._real_fwd,
            real=self._real_fwd or self._real_inv,
        )
        return KernelLaunch(
            name=f"fft_{self.fft_type.value.lower()}_n{self.n}",
            grid=Dim3(x=max(1, self.batch)),
            block=Dim3(x=256),
            bytes_read=traffic / 2,
            bytes_written=traffic / 2,
            flops=5.0 * self.n * math.log2(max(self.n, 2)) * self.batch,
            efficiency_hint=stream_efficiency(traffic, spec),
        )

    # -- execution -------------------------------------------------------------
    def _check_batch_shape(self, a: Any, length: int, what: str, out: Any) -> Any:
        arr = self.backend.asarray(a)
        if arr.ndim == 1:
            if self.batch != 1:
                raise ReproError(
                    f"{what}: 1-D input but plan batch={self.batch}"
                )
            arr = arr[None, :]
        # A row slab of the batch rides with the out= it lands in.
        rows = self.batch if out is None else min(self.batch, out.shape[0])
        if arr.ndim != 2 or tuple(arr.shape) != (rows, length):
            raise ReproError(
                f"{what}: expected shape ({rows}, {length}), got {tuple(arr.shape)}"
            )
        return arr

    def _stage(
        self, x: Any, length: int, dtype: np.dtype, what: str, out: Any,
        workspace: Optional[Workspace], tag: str, counted: bool,
    ) -> Any:
        """Present the input validated, contiguous and at the plan dtype.

        Matching dtype + layout is an explicit (counted) no-op — decided
        from attribute reads alone for a host array that already is what
        the plan wants, as every engine apply's is; with a workspace a
        mismatch is a copy-into the persistent staging buffer, not a
        fresh allocation.  Only a ``counted`` call (one that names a
        phase) advances the staging counters, so the engine's further
        slabs, which may run on other threads, touch no counter.
        """
        be = self.backend
        if (
            x.__class__ is np.ndarray
            and x.dtype == dtype
            and x.shape == (self.batch if out is None else out.shape[0], length)
            and x.shape[0] <= self.batch
            and x.flags.c_contiguous
        ):
            self.stage_noops += counted
            return x
        arr = self._check_batch_shape(x, length, what, out)
        if be.dtype_of(arr) == dtype and be.is_contiguous(arr):
            self.stage_noops += counted
            return arr
        if workspace is None:
            return be.ascontiguous(arr, dtype=dtype)
        buf = workspace.checkout(tag, tuple(arr.shape), dtype)
        be.copyto(buf, arr)
        self.stage_copies += counted
        return buf

    def execute(
        self,
        x: np.ndarray,
        phase: Optional[str] = "fft",
        workspace: Optional[Workspace] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Forward transform (D2Z/R2C real-to-complex, or Z2Z/C2C forward).

        Real transforms return the half spectrum (``n//2+1`` bins), like
        cufftExecD2Z.

        ``out`` (result shape and dtype, contiguous) receives the result
        on the numpy double path; the other providers (``scipy.fft``,
        cupy, torch) have no ``out=`` and return a temporary of that
        size — use the returned array.  With ``out``, ``x`` may be a
        **row slab** of the batch (``out``'s row count): rows are
        independent, so slab by slab gives the bits of one call.  The
        call that names a ``phase`` counts and charges the execution,
        for the whole batch; its other slabs pass ``phase=None`` and
        count nothing.
        """
        if self._real_inv:
            raise ReproError(
                f"plan type {self.fft_type.value} is inverse-only; use inverse()"
            )
        be = self.backend
        kw = {"out": out} if out is not None and be.name == "numpy" else {}
        dt = self._rdt if self._real_fwd else self._cdt
        arr = self._stage(x, self.n, dt, "execute", out, workspace, "fft_stage_fwd", phase is not None)
        if self._real_fwd:
            res = be.fft.rfft(arr, axis=1, **kw)
        else:
            res = be.fft.fft(arr, axis=1, **kw)
        self._book(phase)
        return res if res.dtype == self._cdt else be.astype(res, self._cdt, copy=False)

    def inverse(
        self,
        x: np.ndarray,
        phase: Optional[str] = "ifft",
        workspace: Optional[Workspace] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Inverse transform.

        Follows the cuFFT convention of **unnormalized** transforms: like
        cufftExecZ2D, the result is ``n`` times the mathematical inverse,
        and callers scale by ``1/n`` themselves (FFTMatvec folds the scale
        into the precomputed ``F_hat``).  The backend computes it so
        (``norm="forward"`` puts the ``1/n`` on the forward transform):
        bitwise ``n`` times the normalized inverse at power-of-two ``n``,
        one rounding fewer elsewhere.  ``out``, row slabs and
        ``phase=None`` as in :meth:`execute`.
        """
        if self._real_fwd:
            raise ReproError(
                f"plan type {self.fft_type.value} is forward-only; use execute()"
            )
        be = self.backend
        kw = {"out": out} if out is not None and be.name == "numpy" else {}
        length = self.half_len if self._real_inv else self.n
        arr = self._stage(
            x, length, self._cdt, "inverse", out, workspace, "fft_stage_inv", phase is not None
        )
        if self._real_inv:
            res, dt = be.fft.irfft(arr, n=self.n, axis=1, norm="forward", **kw), self._rdt
        else:
            res, dt = be.fft.ifft(arr, axis=1, norm="forward", **kw), self._cdt
        if res.dtype != dt:
            res = be.astype(res, dt, copy=False)
        self._book(phase)
        return res

    # -- energy verification ---------------------------------------------------
    def verify_forward_energy(
        self,
        x: Any,
        X: Any,
        phase: str = "fft",
        rank: Optional[int] = None,
    ) -> None:
        """Parseval check of a real forward transform this plan computed.

        ``sum(x^2)`` must equal the Hermitian-weighted half-spectrum
        power over ``n``; raises
        :class:`~repro.util.checksum.SilentCorruption` on mismatch.
        Called *after* the engines' corruption-injection sites so an
        injected flip in either buffer is detected, not masked.
        """
        _chk.verify_forward_energy(
            self.backend.from_device(x),
            self.backend.from_device(X),
            self.n,
            phase=phase,
            rank=rank,
        )

    def verify_inverse_energy(
        self,
        X: Any,
        out: Any,
        phase: str = "ifft",
        rank: Optional[int] = None,
    ) -> None:
        """Parseval check of an *unnormalized* real inverse transform.

        This plan returns ``n`` times the mathematical inverse, so the
        identity is ``sum(out^2) == n * weighted(|X|^2)``.
        """
        _chk.verify_inverse_energy(
            self.backend.from_device(X),
            self.backend.from_device(out),
            self.n,
            phase=phase,
            rank=rank,
        )
