"""SOTI/TOSI vector layout conversions.

FFTMatvec keeps block vectors in two layouts:

* **TOSI** — time-outer, space-inner: shape ``(time_or_freq, space)``;
  the layout of the user-facing vectors and of the SBGEMV inputs (one
  contiguous space vector per frequency).
* **SOTI** — space-outer, time-inner: shape ``(space, time)``; the
  layout the batched FFT wants (one contiguous time series per spatial
  point).

The conversions are pure memory operations (transposes).  Per paper
footnote 8 they execute in the lowest precision of the adjacent compute
phases and fuse any required cast into the same kernel — the cast is a
dtype change on the transpose's write side, not an extra pass.  That
holds in both directions: ``precision`` names the tier of the buffer the
consumer reads, so a down-cast rounds once on the write and an up-cast
is exact, and either way the value is what "reorder at the lower tier,
then cast" would produce.  The modeled kernel is charged at the lower
of the source and destination tiers (the up-cast is the consumer's
read), whichever tier the host buffer carries.

With a :class:`~repro.util.workspace.Workspace` the transposed (and
cast) output is written into a checked-out arena buffer — the fused
write of the real kernel — instead of a fresh
``ascontiguousarray``/``astype`` pair; ``out=`` writes into a buffer
the caller owns instead (its dtype is the tier) — how the engine's slab
loop lands a column slab in its place of the full-width array.  The
values are bitwise-identical every way.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.backend import Backend, NumpyBackend
from repro.gpu.bandwidth import stream_efficiency
from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3, KernelLaunch
from repro.util.dtypes import Precision, complex_dtype, real_dtype
from repro.util.validation import ReproError
from repro.util.workspace import Workspace

__all__ = [
    "tosi_to_soti", "soti_to_tosi", "transpose_into", "copy_launch", "reorder_launch",
]

_NUMPY = NumpyBackend()

# Tiles of the cache-blocked transposes.  numpy copies a transposed view
# with the destination's contiguous axis innermost: each destination row
# gathers one element per source row, and source rows a large power of
# two apart share cache sets — at the 98 304 B stride of a k = 16 panel
# one L1 set and four L2 sets hold a whole column, so a gather down 257
# rows missed on every element (10.3 ms for the 50 MB backward reorder).
# A tile spans the source rows such a stride leaves room for, 2**20 B
# over its power-of-two factor: 64 rows at 16 KB multiples (that pass
# 6.2 -> 4.8 ms, pad 3.0 -> 2.1 inside the slab loop), 256 at 4096 B
# (unpad: 3.6 ms, 14.7 at 1024), up to the 1024 an odd stride allows
# (forward reorder 3.0 ms untiled, 3.9 at 64).  docs/ARCHITECTURE.md.
_TILE_ROWS = 64
_TILE_COLS = 1024
_ALIAS_SPAN = 1 << 20


def transpose_into(out: Any, a: Any, backend: Optional[Backend] = None) -> Any:
    """``out[...] = a.T`` as a cache-tiled copy (bitwise the same bytes).

    ``a`` is 2-D ``(r, c)``; ``out`` is ``(c, r)`` and may carry a
    different dtype — the cast happens on the write side of each tile,
    exactly as the untiled assignment would round it.  Both axes are
    tiled (see ``_TILE_ROWS``); a small operand is one assignment.
    """
    be = backend if backend is not None else _NUMPY
    rows, cols = a.shape[0], a.shape[1]
    if rows * cols <= 16 * _TILE_COLS:  # every k = 1 apply: skip the stride lookup
        out[...] = be.transpose(a)
        return out
    stride = getattr(a, "strides", (_ALIAS_SPAN,))[0]
    tile_rows = min(_TILE_COLS, max(_TILE_ROWS, _ALIAS_SPAN // ((stride & -stride) or 1)))
    for i0 in range(0, rows, tile_rows):
        i1 = i0 + tile_rows
        for j0 in range(0, cols, _TILE_COLS):
            j1 = j0 + _TILE_COLS
            out[j0:j1, i0:i1] = be.transpose(a[i0:i1, j0:j1])
    return out


def copy_launch(
    spec, name: str, bytes_read, bytes_written, out_elems: int, derate: float
) -> KernelLaunch:
    """One streaming copy kernel (pad, unpad, reorder) on ``spec``, at
    ``derate`` times the stream efficiency of its traffic — the launch
    the engine books and the perf model prices."""
    return KernelLaunch(
        name=name,
        grid=Dim3(x=max(1, (out_elems + 255) // 256)),
        block=Dim3(x=256),
        bytes_read=float(bytes_read),
        bytes_written=float(bytes_written),
        efficiency_hint=stream_efficiency(float(bytes_read + bytes_written), spec) * derate,
    )


def reorder_launch(spec, name: str, elems: int, in_itemsize: int, out_itemsize: int):
    """The reorder kernel over ``elems`` elements: read at the source
    tier, written at the lower of the two (see the module docstring).
    Transposes are less cache-friendly than pure streams; apply the
    classic ~0.75 factor of a tiled transpose kernel."""
    written = elems * min(in_itemsize, out_itemsize)
    return copy_launch(spec, name, elems * in_itemsize, written, elems, 0.75)


def _reorder(
    v: Any,
    precision: Optional[Precision],
    device: Optional[SimulatedDevice],
    phase: str,
    workspace: Optional[Workspace],
    tag: str,
    kernel_name: str,
    backend: Optional[Backend],
    out: Optional[Any],
) -> Any:
    be = backend if backend is not None else _NUMPY
    # The engine hands a prepared ``out`` and an array of its kind:
    # everything below is then attribute reads, no conversion.
    a = v if out is not None and v.__class__ is out.__class__ else be.asarray(v)
    if a.ndim != 2:
        raise ReproError(f"reorder expects a 2-D block vector, got ndim={a.ndim}")
    if out is not None:
        if out.shape != a.shape[::-1]:
            raise ReproError(
                f"reorder out buffer must be {a.shape[::-1]}, got {tuple(out.shape)}"
            )
        transpose_into(out, a, be)
    elif workspace is not None:
        if precision is None:
            dt = be.dtype_of(a)
        else:
            dt = (
                complex_dtype(precision)
                if be.iscomplex(a)
                else real_dtype(precision)
            )
        out = workspace.checkout(tag, (a.shape[1], a.shape[0]), dt)
        transpose_into(out, a, be)  # fused transpose + cast on the write side
    else:
        out = be.ascontiguous(be.transpose(a))
        if precision is not None:
            out = be.cast(out, precision)
    if device is not None:
        device.launch(
            reorder_launch(
                device.spec, kernel_name, be.size(out),
                be.dtype_of(a).itemsize, be.dtype_of(out).itemsize,
            ),
            phase,
        )
    return out


def tosi_to_soti(
    v: Any,
    precision: Optional[Precision] = None,
    device: Optional[SimulatedDevice] = None,
    phase: str = "reorder",
    workspace: Optional[Workspace] = None,
    tag: str = "tosi_to_soti",
    backend: Optional[Backend] = None,
    out: Optional[Any] = None,
) -> Any:
    """(time, space) -> (space, time), optionally casting (fused)."""
    return _reorder(
        v, precision, device, phase, workspace, tag, "reorder_tosi_to_soti", backend, out
    )


def soti_to_tosi(
    v: Any,
    precision: Optional[Precision] = None,
    device: Optional[SimulatedDevice] = None,
    phase: str = "reorder",
    workspace: Optional[Workspace] = None,
    tag: str = "soti_to_tosi",
    backend: Optional[Backend] = None,
    out: Optional[Any] = None,
) -> Any:
    """(space, time) -> (time, space), optionally casting (fused)."""
    return _reorder(
        v, precision, device, phase, workspace, tag, "reorder_soti_to_tosi", backend, out
    )
