"""SBGEMV kernel implementations: original rocBLAS vs the paper's kernel.

Both kernels compute the *same numbers* (a strided-batched GEMV evaluated
with vectorized NumPy in the problem's precision); they differ in launch
geometry and in the achieved-bandwidth model, which is what Figure 1
measures:

* **RocblasSBGEMV** (original): in (conjugate) transpose mode it launches
  grid ``(n, 1, batch)`` — one gridblock per output element — and each
  block computes a single dot product of length ``m``.  For short-wide
  matrices (``m << n``) the per-block work ``m * itemsize`` is tiny, so
  launch overhead dominates and achieved bandwidth collapses; in
  non-transpose mode the grid is ``(ceil(m/64), 1, batch)`` and each
  block performs several length-``n`` dot products, which is efficient.
* **OptimizedSBGEMV** (the paper's contribution): gridblocks *tile the
  columns*; each block is a 2-D set of threads computing a chunk of the
  output with vectorized loads (up to 16 B per instruction: ``float4``,
  ``double2``), read/compute/write pipelining, and wavefront shuffles for
  the dot-product reductions.

Efficiency model: a physically-motivated work-per-block curve
(:func:`repro.gpu.bandwidth.grid_efficiency`), *anchored* to the
%-of-peak annotations of Figure 1 via per-datatype calibration tables
(measured on MI300X; other architectures rescale by their
``sbgemv_peak_fraction`` relative to MI300X's).  DESIGN.md documents this
substitution.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.backend import Backend, NumpyBackend
from repro.blas.types import BlasDatatype, GemvProblem, Operation
from repro.gpu.bandwidth import grid_efficiency, stream_efficiency
from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3, KernelLaunch
from repro.gpu.specs import GPUSpec, MI300X
from repro.util.dtypes import Precision
from repro.util.validation import ReproError

__all__ = [
    "SBGEMVKernel",
    "RocblasSBGEMV",
    "OptimizedSBGEMV",
    "gemv_strided_batched_reference",
]

_NUMPY = NumpyBackend()


def gemv_strided_batched_reference(
    A: Any,
    x: Any,
    operation: Operation,
    out: Optional[Any] = None,
    x_conj: Optional[Any] = None,
    backend: Optional[Backend] = None,
) -> Any:
    """Numerical strided-batched GEMV: ``y_i = op(A_i) @ x_i``.

    ``A`` has shape (batch, m, n); ``x`` has shape (batch, in_len).
    Computation stays in the input dtype (complex64 math is single
    precision), so mixed-precision SBGEMV error is measured, not modeled.
    ``out`` (shape ``(batch, out_len)``, the problem dtype) receives the
    result without a fresh allocation — ``np.matmul`` writes it
    directly, producing the same bits as the allocating path.
    ``x_conj`` supplies a precomputed ``np.conj(x)`` for op C callers
    (the engine conjugates into an arena buffer); it must hold exactly
    the bytes ``np.conj(x)`` would produce.
    """
    be = backend if backend is not None else _NUMPY
    if out is None or not (A.__class__ is x.__class__ is out.__class__):
        A, x = be.asarray(A), be.asarray(x)  # else: the engine's own arrays
    if A.ndim != 3:
        raise ReproError(f"A must be (batch, m, n), got shape {tuple(A.shape)}")
    op = operation if operation.__class__ is Operation else Operation.parse(operation)
    out_len = A.shape[1] if op is Operation.N else A.shape[2]
    if out is not None and (out.shape != (A.shape[0], out_len) or out.dtype != A.dtype):
        raise ReproError(
            f"out must be {(A.shape[0], out_len)} {be.dtype_of(A)}, "
            f"got {tuple(out.shape)} {be.dtype_of(out)}"
        )
    if op is Operation.N:
        if x.shape != (A.shape[0], A.shape[2]):
            raise ReproError(
                f"x must be {(A.shape[0], A.shape[2])}, got {tuple(x.shape)}"
            )
        if out is None:
            return be.matmul(A, x[:, :, None])[:, :, 0]
        be.matmul(A, x[:, :, None], out=out[:, :, None])
        return out
    if x.shape != (A.shape[0], A.shape[1]):
        raise ReproError(f"x must be {(A.shape[0], A.shape[1])}, got {tuple(x.shape)}")
    if op is Operation.C:
        # y[n] = sum_m conj(A[m,n]) x[m] = conj( (conj(x)^T A)[n] )
        if x_conj is None:
            x_conj = be.conjugate(x)
        elif x_conj.shape != x.shape or x_conj.dtype != x.dtype:
            raise ReproError(
                f"x_conj must be {tuple(x.shape)} {be.dtype_of(x)}, "
                f"got {tuple(x_conj.shape)} {be.dtype_of(x_conj)}"
            )
        if out is None:
            return be.conjugate(be.matmul(x_conj[:, None, :], A))[:, 0, :]
        be.matmul(x_conj[:, None, :], A, out=out[:, None, :])
        be.conjugate(out, out=out)
        return out
    if out is None:
        return be.matmul(x[:, None, :], A)[:, 0, :]
    be.matmul(x[:, None, :], A, out=out[:, None, :])
    return out


# ---------------------------------------------------------------------------
# Calibration: Figure 1 %-of-peak annotations (MI300X, batch 100,
# (conjugate) transpose, short-and-wide and square shapes).
# Entries: datatype -> list of (m, n, efficiency). Values are the bar
# annotations divided by 100.
# ---------------------------------------------------------------------------
_FIG1_ROCBLAS_T: Dict[BlasDatatype, List[Tuple[int, int, float]]] = {
    BlasDatatype.S: [
        (128, 4096, 0.150),
        (256, 256, 0.217),
        (256, 8192, 0.248),
        (512, 512, 0.448),
        (1024, 1024, 0.584),
        (2048, 2048, 0.633),
    ],
    BlasDatatype.D: [
        (128, 4096, 0.255),
        (256, 256, 0.417),
        (256, 8192, 0.425),
        (512, 512, 0.764),
    ],
    BlasDatatype.C: [
        (128, 4096, 0.250),
        (256, 256, 0.407),
        (256, 8192, 0.404),
        (512, 512, 0.758),
    ],
    BlasDatatype.Z: [
        (128, 4096, 0.420),
        (256, 256, 0.662),
        (256, 8192, 0.619),
    ],
}

_FIG1_OPTIMIZED_T: Dict[BlasDatatype, List[Tuple[int, int, float]]] = {
    BlasDatatype.S: [
        (128, 4096, 0.835),
        (256, 256, 0.586),
        (256, 8192, 0.727),
        (512, 512, 0.767),
        (1024, 1024, 0.647),
        (2048, 2048, 0.678),
    ],
    BlasDatatype.D: [
        (128, 4096, 0.732),
        (256, 256, 0.627),
        (256, 8192, 0.708),
        (512, 512, 0.764),
    ],
    BlasDatatype.C: [
        (128, 4096, 0.711),
        (256, 256, 0.576),
        (256, 8192, 0.703),
        (512, 512, 0.762),
    ],
    BlasDatatype.Z: [
        (128, 4096, 0.727),
        (256, 256, 0.712),
        (256, 8192, 0.695),
    ],
}

# Architecture rescaling is relative to MI300X (the GPU Figure 1 was
# measured on), per precision.
_MI300X_REFERENCE_FRACTION = {
    Precision.DOUBLE: MI300X.peak_fraction(Precision.DOUBLE),
    Precision.SINGLE: MI300X.peak_fraction(Precision.SINGLE),
}


def _interp_calibration(
    points: List[Tuple[int, int, float]], m: int, n: int
) -> Optional[float]:
    """Interpolate an efficiency from calibration points.

    Points are split into "skewed" (n > 2m) and "square-ish" classes; we
    interpolate log-linearly in ``m`` within the class that matches the
    query, falling back to the other class when one is empty.  Returns
    None when the table has no points at all.
    """
    if not points:
        return None
    want_skewed = n > 2 * m
    cls = [(pm, pe) for pm, pn, pe in points if (pn > 2 * pm) == want_skewed]
    if not cls:
        cls = [(pm, pe) for pm, pn, pe in points]
    cls.sort()
    ms = [p[0] for p in cls]
    es = [p[1] for p in cls]
    if m <= ms[0]:
        return es[0]
    if m >= ms[-1]:
        return es[-1]
    x = math.log2(m)
    xs = [math.log2(v) for v in ms]
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            t = (x - xs[i]) / (xs[i + 1] - xs[i])
            return es[i] * (1 - t) + es[i + 1] * t
    return es[-1]  # pragma: no cover - unreachable


def _arch_scale(spec: GPUSpec, prec: Precision) -> float:
    """Rescale MI300X-calibrated efficiencies to another architecture."""
    return spec.peak_fraction(prec) / _MI300X_REFERENCE_FRACTION[prec]


class SBGEMVKernel:
    """Base class: numerics + launch accounting shared by both kernels."""

    name = "sbgemv_base"

    def launch_geometry(self, problem: GemvProblem, spec: GPUSpec) -> Tuple[Dim3, Dim3]:
        """(grid, block) dimensions this kernel launches with."""
        raise NotImplementedError

    def efficiency(self, problem: GemvProblem, spec: GPUSpec) -> float:
        """Achieved fraction of peak bandwidth for this problem."""
        raise NotImplementedError

    def supports(self, problem: GemvProblem) -> bool:
        """Whether this kernel handles the problem at all."""
        return True

    # -- execution ----------------------------------------------------------
    def run(
        self,
        A: Any,
        x: Any,
        problem: GemvProblem,
        device: Optional[SimulatedDevice] = None,
        phase: str = "sbgemv",
        out: Optional[Any] = None,
        x_conj: Optional[Any] = None,
        backend: Optional[Backend] = None,
    ) -> Any:
        """Compute the batched GEMV and charge simulated time.

        ``A``/``x`` dtypes must match the problem datatype; this is where a
        precision-config bug would silently change the numerics, so it is
        checked strictly.  ``out`` / ``x_conj`` forward to the reference
        kernel so a workspace-backed caller pays no output (or op-C
        conjugate staging) allocation.
        """
        be = backend if backend is not None else _NUMPY
        if be.dtype_of(A) != problem.datatype.dtype:
            raise ReproError(
                f"A dtype {be.dtype_of(A)} != problem datatype {problem.datatype.dtype}"
            )
        if be.dtype_of(x) != problem.datatype.dtype:
            raise ReproError(
                f"x dtype {be.dtype_of(x)} != problem datatype {problem.datatype.dtype}"
            )
        if not self.supports(problem):
            raise ReproError(f"{self.name} does not support {problem.describe()}")
        y = gemv_strided_batched_reference(
            A, x, problem.operation, out=out, x_conj=x_conj, backend=be
        )
        if device is not None:
            device.launch(self.launch(problem, device.spec), phase)
        return y

    def launch(self, problem: GemvProblem, spec: GPUSpec) -> KernelLaunch:
        """The kernel launch of one execution on ``spec`` — what a device
        books (:meth:`run`) and what the perf model prices."""
        grid, block = self.launch_geometry(problem, spec)
        return KernelLaunch(
            name=f"{self.name}_{problem.datatype.value}{problem.operation.value.lower()}",
            grid=grid,
            block=block,
            bytes_read=float(problem.matrix_bytes + problem.vector_bytes / 2),
            bytes_written=float(problem.vector_bytes / 2),
            flops=2.0 * problem.m * problem.n * problem.batch,
            efficiency_hint=self.efficiency(problem, spec),
        )

    # -- modeled performance ---------------------------------------------------
    def modeled_time(self, problem: GemvProblem, spec: GPUSpec) -> float:
        """Simulated seconds for one execution (no numerics).

        The calibrated efficiencies are *end-to-end* fractions of peak
        (they come from rocblas-bench's achieved-bandwidth metric, which
        folds launch overhead in), so no separate overhead is added.
        """
        eff = self.efficiency(problem, spec)
        bw = eff * spec.peak_bandwidth
        return problem.total_bytes / bw

    def modeled_bandwidth(self, problem: GemvProblem, spec: GPUSpec) -> float:
        """rocblas-bench's metric: problem bytes / measured time (B/s)."""
        return problem.total_bytes / self.modeled_time(problem, spec)


class RocblasSBGEMV(SBGEMVKernel):
    """The original rocBLAS strided-batched GEMV kernel (pre-optimization)."""

    name = "rocblas_sbgemv"

    _BLOCK = 64  # rows per block in non-transpose mode

    def launch_geometry(self, problem: GemvProblem, spec: GPUSpec) -> Tuple[Dim3, Dim3]:
        if problem.operation.is_transposed:
            # One gridblock per matrix column; batching in grid.z
            # (Section 3.1.1: "grid dimensions of Nm x 1 x (Nt+1)").
            return Dim3(x=problem.n, y=1, z=problem.batch), Dim3(x=256)
        return (
            Dim3(x=max(1, math.ceil(problem.m / self._BLOCK)), y=1, z=problem.batch),
            Dim3(x=256),
        )

    def efficiency(self, problem: GemvProblem, spec: GPUSpec) -> float:
        scale = _arch_scale(spec, problem.datatype.precision)
        if problem.operation.is_transposed:
            cal = _interp_calibration(
                _FIG1_ROCBLAS_T[problem.datatype], problem.m, problem.n
            )
            if cal is not None:
                return min(0.95, cal * scale)
            # fall back to the physical model (never reached for the four
            # standard datatypes, kept for robustness)
            grid, _ = self.launch_geometry(problem, spec)
            per_block = problem.m * problem.datatype.itemsize
            return grid_efficiency(problem.total_bytes, grid.total, per_block, spec) * scale
        # Non-transpose: blocks stream whole rows — efficient; saturates
        # at the architecture's tuned non-transpose fraction (~70% on
        # CDNA2, ~77% on CDNA3 where this kernel is exceptionally tuned).
        from repro.gpu.bandwidth import STREAM_FRACTION

        saturation = stream_efficiency(problem.total_bytes, spec) / STREAM_FRACTION
        return min(0.95, spec.gemv_n_fraction(problem.datatype.precision) * saturation)


class OptimizedSBGEMV(SBGEMVKernel):
    """The paper's tiled, vectorized, pipelined (conjugate) transpose kernel.

    Only dispatched for transpose/conjugate-transpose problems with
    ``m < n`` shapes in the real library; our ``supports`` mirrors the
    kernel's applicability (any transposed problem).
    """

    name = "optimized_sbgemv"

    _TILE_COLS = 64  # columns tiled per gridblock
    _THREADS = (64, 4)  # 2-D threadblock

    def supports(self, problem: GemvProblem) -> bool:
        return problem.operation.is_transposed

    def vector_width(self, datatype: BlasDatatype) -> int:
        """Elements fetched per 16-byte vectorized load (float4/double2...)."""
        return max(1, 16 // datatype.itemsize)

    def launch_geometry(self, problem: GemvProblem, spec: GPUSpec) -> Tuple[Dim3, Dim3]:
        blocks_x = max(1, math.ceil(problem.n / self._TILE_COLS))
        tx, ty = self._THREADS
        return Dim3(x=blocks_x, y=1, z=problem.batch), Dim3(x=tx, y=ty)

    def efficiency(self, problem: GemvProblem, spec: GPUSpec) -> float:
        if not problem.operation.is_transposed:
            raise ReproError(f"{self.name} only implements transposed SBGEMV")
        scale = _arch_scale(spec, problem.datatype.precision)
        cal = _interp_calibration(
            _FIG1_OPTIMIZED_T[problem.datatype], problem.m, problem.n
        )
        if cal is not None:
            return min(0.95, cal * scale)
        grid, _ = self.launch_geometry(problem, spec)  # pragma: no cover
        per_block = problem.m * self._TILE_COLS * problem.datatype.itemsize
        return grid_efficiency(problem.total_bytes, grid.total, per_block, spec) * scale
