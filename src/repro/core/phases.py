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
half; the data half is fully overwritten), and both can write straight
into a caller-supplied ``out`` buffer.  The values produced are
bitwise-identical with the arena on or off — a direct
cast-on-assignment rounds exactly like ``astype``.

``out=`` is also how :class:`~repro.core.matvec.FFTMatvec` runs wide
blocks **slab by slab**: a slab is a run of columns of the fused
``nx * k`` space axis whose ``(w, 2*Nt)`` padded buffer stays in L2
until the FFT reads it back.  Each slab is padded into one reused
:func:`padded_buffer` and unpadded into its columns of the result, so
no full-width padded buffer exists; the modeled device kernel is still
one full-width launch (:func:`pad_launch` / :func:`unpad_launch`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.backend import Backend, NumpyBackend
from repro.core.reorder import copy_launch, transpose_into
from repro.gpu.device import SimulatedDevice
from repro.util import checksum as _chk
from repro.util.dtypes import Precision, real_dtype
from repro.util.validation import ReproError
from repro.util.workspace import Workspace

__all__ = [
    "pad_to_soti", "unpad_from_soti", "padded_buffer", "pad_launch", "unpad_launch",
]

_NUMPY = NumpyBackend()


def pad_launch(spec, nt: int, nx: int, in_itemsize: int, precision: Precision):
    """The pad kernel of an ``(nt, nx)`` input: written at ``precision``,
    whatever the buffer's tier."""
    elems = 2 * nt * nx
    written = float(elems * real_dtype(precision).itemsize)
    return copy_launch(spec, "pad_zero", float(nt * nx * in_itemsize), written, elems, 0.9)


def unpad_launch(spec, nt: int, nx: int, in_itemsize: int, out_itemsize: int):
    """The unpad kernel producing an ``(nt, nx)`` result; only the first
    half of each padded series is read."""
    elems = nt * nx
    read, written = float(elems * in_itemsize), float(elems * out_itemsize)
    return copy_launch(spec, "unpad", read, written, elems, 0.9)


def padded_buffer(nx: int, nt: int, dtype, workspace=None, backend=None, tag: str = "pad"):
    """An ``(nx, 2*nt)`` buffer whose padding half is zero: from the
    arena, the per-apply ``tag`` slot.  The pad kernel is that buffer's
    only writer and touches the data half alone, so the zeros of first
    use survive every reuse — only a fresh buffer needs the memset."""
    if workspace is None:
        be = backend if backend is not None else _NUMPY
        return be.zeros((nx, 2 * nt), dtype)
    out, fresh = workspace.checkout_fresh(tag, (nx, 2 * nt), dtype)
    if fresh:
        out[:, nt:] = 0.0
    return out


def pad_to_soti(
    v: Any,
    precision: Precision,
    device: Optional[SimulatedDevice] = None,
    phase: str = "pad",
    workspace: Optional[Workspace] = None,
    backend: Optional[Backend] = None,
    validate: bool = False,
    rank: Optional[int] = None,
    out: Optional[Any] = None,
) -> Any:
    """Phase-1 kernel: (Nt, nx) time-outer -> (nx, 2*Nt) padded SOTI.

    The output dtype is the phase's precision — the cast (if any) is
    fused into the pad kernel's writes.  ``out`` (shape ``(nx, 2*Nt)``,
    from :func:`padded_buffer`: the caller owns the zero half) receives
    the data half instead, at its own dtype — a different tier when the
    consumer (the FFT) wants one: the writes then round the input once
    to that tier, and the modeled kernel is still charged at
    ``precision``.  The caller owns the equivalence with "pad at
    ``precision``, then cast" — it holds whenever ``precision`` is the
    input's own tier, not when the pad itself rounds (single pad feeding
    a double FFT).

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
    # A prepared ``out`` and an input of its kind (the engine's call):
    # validation is attribute reads from here on, no conversion.
    a = v if out is not None and v.__class__ is out.__class__ else be.asarray(v)
    if a.ndim != 2:
        raise ReproError(f"pad expects a 2-D (Nt, nx) block vector, got {a.shape}")
    if be.iscomplex(a):
        raise ReproError("pad operates on real time-domain vectors")
    nt, nx = a.shape
    if out is None:
        out = padded_buffer(nx, nt, real_dtype(precision), workspace, be, tag=phase)
    elif out.shape != (nx, 2 * nt):
        raise ReproError(
            f"pad out buffer must be {(nx, 2 * nt)}, got {tuple(out.shape)}"
        )
    # Transpose+cast in one logical kernel: each output row is one
    # spatial point's time series followed by Nt zeros (the tiled copy
    # casts on the write side — no staging temporary).
    transpose_into(out[:, :nt], a, be)
    if validate:
        _chk.ensure_finite(be.from_device(out), phase=phase, rank=rank, what="pad output")
    if device is not None:
        device.launch(
            pad_launch(device.spec, nt, nx, be.dtype_of(a).itemsize, precision), phase
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
    a = v if out is not None and v.__class__ is out.__class__ else be.asarray(v)
    if a.ndim != 2:
        raise ReproError(f"unpad expects a 2-D (nx, 2*Nt) vector, got {a.shape}")
    if a.shape[1] != 2 * nt:
        raise ReproError(
            f"unpad expects padded length {2 * nt}, got {a.shape[1]}"
        )
    dt = real_dtype(precision)
    if out is not None:
        if out.shape != (nt, a.shape[0]) or be.dtype_of(out) != dt:
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
    if device is not None:
        device.launch(
            unpad_launch(
                device.spec, nt, a.shape[0], be.dtype_of(a).itemsize,
                be.dtype_of(out).itemsize,
            ),
            phase,
        )
    return out
