"""Zero-pad and unpad phase kernels (Phases 1 and 5 minus communication).

Phase 1 takes the time-outer input vector, converts it to the
space-outer (SOTI) layout the batched FFT wants, and appends ``Nt``
zeros to every time series (the circulant embedding).  Phase 5 drops the
padding of the inverse transform's output and converts back to
time-outer layout.  Both are pure memory operations executed in the
phase's configured precision, with any cast fused into the same kernel
(the write side simply uses the target dtype).

Both kernels take an optional :class:`~repro.util.workspace.Workspace`:
with an arena the output is written into a persistent checked-out
buffer instead of a fresh allocation (the pad only re-zeros the padding
half; the data half is fully overwritten), and ``unpad_from_soti`` can
additionally write straight into a caller-supplied ``out`` buffer.  The
values produced are bitwise-identical with the arena on or off — a
direct cast-on-assignment rounds exactly like ``astype``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.backend import Backend, NumpyBackend
from repro.core.reorder import transpose_into
from repro.gpu.bandwidth import stream_efficiency
from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3, KernelLaunch
from repro.util import checksum as _chk
from repro.util.dtypes import Precision, real_dtype
from repro.util.validation import ReproError
from repro.util.workspace import Workspace

__all__ = ["pad_to_soti", "unpad_from_soti"]

_NUMPY = NumpyBackend()


def _charge(
    device: Optional[SimulatedDevice],
    name: str,
    bytes_read: float,
    bytes_written: float,
    out_elems: int,
    phase: str,
) -> None:
    if device is None:
        return

    def kernel() -> KernelLaunch:
        traffic = bytes_read + bytes_written
        return KernelLaunch(
            name=name,
            grid=Dim3(x=max(1, (out_elems + 255) // 256)),
            block=Dim3(x=256),
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            efficiency_hint=stream_efficiency(traffic, device.spec) * 0.9,
        )

    device.launch_memo((name, bytes_read, bytes_written, out_elems), kernel, phase)


def pad_to_soti(
    v: Any,
    precision: Precision,
    device: Optional[SimulatedDevice] = None,
    phase: str = "pad",
    workspace: Optional[Workspace] = None,
    backend: Optional[Backend] = None,
    validate: bool = False,
    rank: Optional[int] = None,
    out_precision: Optional[Precision] = None,
) -> Any:
    """Phase-1 kernel: (Nt, nx) time-outer -> (nx, 2*Nt) padded SOTI.

    The output dtype is the phase's precision — the cast (if any) is
    fused into the pad kernel's writes.  ``out_precision`` names a
    different tier for the written buffer when the consumer (the FFT)
    wants one: the writes then round the input once to that tier, and
    the modeled kernel is still charged at ``precision``.  The caller
    owns the equivalence with "pad at ``precision``, then cast" — it
    holds whenever ``precision`` is the input's own tier, not when the
    pad itself rounds (single pad feeding a double FFT).

    With a ``workspace`` the output is a checked-out arena buffer: the
    data half is fully overwritten and only the padding half is
    re-zeroed, no allocation at steady state.
    ``validate=True`` runs the numerical-health guard on the
    produced buffer and raises
    :class:`~repro.util.checksum.NumericalHealthError` naming this
    phase (and ``rank`` when supplied) if anything non-finite crossed
    the boundary.
    """
    be = backend if backend is not None else _NUMPY
    a = be.asarray(v)
    if a.ndim != 2:
        raise ReproError(f"pad expects a 2-D (Nt, nx) block vector, got {a.shape}")
    if be.iscomplex(a):
        raise ReproError("pad operates on real time-domain vectors")
    nt, nx = a.shape
    dt = real_dtype(precision if out_precision is None else out_precision)
    if workspace is None:
        out = be.zeros((nx, 2 * nt), dt)
    else:
        # The pad kernel is this buffer's only writer, so the zero
        # padding half written on first use survives every reuse — only
        # a fresh buffer needs the memset.
        out, fresh = workspace.checkout_fresh(phase, (nx, 2 * nt), dt)
        if fresh:
            out[:, nt:] = 0.0
    # Transpose+cast in one logical kernel: each output row is one
    # spatial point's time series followed by Nt zeros (the tiled copy
    # casts on the write side — no staging temporary).
    transpose_into(out[:, :nt], a, be)
    if validate:
        _chk.ensure_finite(be.from_device(out), phase=phase, rank=rank, what="pad output")
    _charge(
        device,
        "pad_zero",
        bytes_read=float(be.nbytes(a)),
        bytes_written=float(be.size(out) * real_dtype(precision).itemsize),
        out_elems=be.size(out),
        phase=phase,
    )
    return out


def unpad_from_soti(
    v: Any,
    nt: int,
    precision: Precision,
    device: Optional[SimulatedDevice] = None,
    phase: str = "unpad",
    workspace: Optional[Workspace] = None,
    out: Optional[Any] = None,
    backend: Optional[Backend] = None,
    validate: bool = False,
    rank: Optional[int] = None,
) -> Any:
    """Phase-5 kernel: (nx, 2*Nt) padded SOTI -> (Nt, nx) time-outer.

    ``out`` (shape ``(nt, nx)``, dtype of the phase precision) writes the
    result into a caller-owned buffer; ``workspace`` writes into a
    checked-out arena buffer.  Both produce the bytes of the default
    allocate-per-call path.  ``validate=True`` guards the output against
    NaN/Inf exactly like :func:`pad_to_soti`.
    """
    be = backend if backend is not None else _NUMPY
    a = be.asarray(v)
    if a.ndim != 2:
        raise ReproError(f"unpad expects a 2-D (nx, 2*Nt) vector, got {a.shape}")
    if a.shape[1] != 2 * nt:
        raise ReproError(
            f"unpad expects padded length {2 * nt}, got {a.shape[1]}"
        )
    dt = real_dtype(precision)
    if out is not None:
        if tuple(out.shape) != (nt, a.shape[0]) or be.dtype_of(out) != dt:
            raise ReproError(
                f"unpad out buffer must be {(nt, a.shape[0])} {dt}, "
                f"got {tuple(out.shape)} {be.dtype_of(out)}"
            )
        transpose_into(out, a[:, :nt], be)
    elif workspace is not None:
        out = workspace.checkout(phase, (nt, a.shape[0]), dt)
        transpose_into(out, a[:, :nt], be)
    else:
        out = be.astype(be.ascontiguous(be.transpose(a[:, :nt])), dt, copy=False)
    if validate:
        _chk.ensure_finite(
            be.from_device(out), phase=phase, rank=rank, what="unpad output"
        )
    _charge(
        device,
        "unpad",
        bytes_read=float(be.nbytes(a)) / 2.0,  # only the first half is read
        bytes_written=float(be.nbytes(out)),
        out_elems=be.size(out),
        phase=phase,
    )
    return out
