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
``ascontiguousarray``/``astype`` pair; the values are bitwise-identical
either way.
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

__all__ = ["tosi_to_soti", "soti_to_tosi", "reorder_bytes", "transpose_into"]

_NUMPY = NumpyBackend()

# Column-block width for tiled transposes.  Wide blocked vectors (the
# matmat/rmatmat paths fold k request columns into the space axis) make
# a single strided transpose assignment walk far outside the cache; a
# tiled copy of ~block columns at a time keeps the working set resident
# and is several times faster, moving exactly the same bytes.
_TRANSPOSE_BLOCK = 256


def transpose_into(out: Any, a: Any, backend: Optional[Backend] = None) -> Any:
    """``out[...] = a.T`` as a cache-tiled copy (bitwise the same bytes).

    ``a`` is 2-D ``(r, c)``; ``out`` is ``(c, r)`` and may carry a
    different dtype — the cast happens on the write side of each tile,
    exactly as the untiled assignment would round it.  Small operands
    take the single-assignment path; the tiling only matters once the
    operand spills the cache.
    """
    be = backend if backend is not None else _NUMPY
    rows, cols = a.shape[0], a.shape[1]
    if rows <= 4 * _TRANSPOSE_BLOCK and cols <= 4 * _TRANSPOSE_BLOCK:
        out[...] = be.transpose(a)
    elif rows >= cols:
        for i0 in range(0, rows, _TRANSPOSE_BLOCK):
            hi = i0 + _TRANSPOSE_BLOCK
            out[:, i0:hi] = be.transpose(a[i0:hi])
    else:
        for i0 in range(0, cols, _TRANSPOSE_BLOCK):
            hi = i0 + _TRANSPOSE_BLOCK
            out[i0:hi] = be.transpose(a[:, i0:hi])
    return out


def reorder_bytes(arr_shape, in_itemsize: int, out_itemsize: int) -> float:
    """HBM traffic of a fused reorder+cast: read at in-dtype, write at out."""
    n = 1
    for s in arr_shape:
        n *= int(s)
    return float(n) * (in_itemsize + out_itemsize)


def _charge_reorder(
    device: SimulatedDevice,
    name: str,
    in_bytes: int,
    out_bytes: int,
    out_elems: int,
    phase: str,
) -> None:
    def kernel() -> KernelLaunch:
        traffic = float(in_bytes + out_bytes)
        # Transposes are less cache-friendly than pure streams; apply the
        # classic ~0.75 factor of a tiled transpose kernel.
        return KernelLaunch(
            name=name,
            grid=Dim3(x=max(1, (out_elems + 255) // 256)),
            block=Dim3(x=256),
            bytes_read=float(in_bytes),
            bytes_written=float(out_bytes),
            efficiency_hint=stream_efficiency(traffic, device.spec) * 0.75,
        )

    device.launch_memo((name, in_bytes, out_bytes, out_elems), kernel, phase)


def _reorder(
    v: Any,
    precision: Optional[Precision],
    device: Optional[SimulatedDevice],
    phase: str,
    workspace: Optional[Workspace],
    tag: str,
    kernel_name: str,
    backend: Optional[Backend],
) -> Any:
    be = backend if backend is not None else _NUMPY
    a = be.asarray(v)
    if a.ndim != 2:
        raise ReproError(f"reorder expects a 2-D block vector, got ndim={a.ndim}")
    if workspace is not None:
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
        # Written at the lower tier of the two even when ``out`` was
        # up-cast for its consumer (see the module docstring).
        itemsize = min(be.dtype_of(a).itemsize, be.dtype_of(out).itemsize)
        _charge_reorder(
            device, kernel_name, be.nbytes(a), be.size(out) * itemsize,
            be.size(out), phase,
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
) -> Any:
    """(time, space) -> (space, time), optionally casting (fused)."""
    return _reorder(
        v, precision, device, phase, workspace, tag, "reorder_tosi_to_soti", backend
    )


def soti_to_tosi(
    v: Any,
    precision: Optional[Precision] = None,
    device: Optional[SimulatedDevice] = None,
    phase: str = "reorder",
    workspace: Optional[Workspace] = None,
    tag: str = "soti_to_tosi",
    backend: Optional[Backend] = None,
) -> Any:
    """(space, time) -> (time, space), optionally casting (fused)."""
    return _reorder(
        v, precision, device, phase, workspace, tag, "reorder_soti_to_tosi", backend
    )
