"""SBGEMM kernel implementations for the blocked multi-RHS matvec path.

Both kernels compute the *same numbers* (a strided-batched multi-RHS GEMM
evaluated with vectorized NumPy in the problem's precision); they differ
in launch geometry and in the achieved-bandwidth model, mirroring the
SBGEMV pair in :mod:`repro.blas.gemv_kernels`:

* **RocblasSBGEMM** (vendor GEMM): macro-tiles the output panel ``C``
  with a fixed 32x32 tile.  Excellent when both ``C`` dimensions fill the
  tile, but FFTMatvec's blocked Phase 3 produces *skinny* panels —
  ``out_rows x k`` with small ``k`` — so most tile lanes idle and the
  achieved fraction of peak drops with the tile fill.
* **OptimizedSBGEMM** (the paper's SBGEMV design, extended to multiple
  right-hand sides): gridblocks tile the *columns of op(A)* exactly like
  the optimized SBGEMV; the ``k`` RHS vectors live in a register panel so
  the streamed A-panel is reused ``k`` times per load, keeping the
  vectorized-load / pipelined / wavefront-shuffle structure intact.
  Register pressure bounds the panel, so reuse saturates at
  ``_RHS_PANEL`` columns and very wide blocks lose a little efficiency.

Unlike the SBGEMV pair there is no Figure-1 calibration table for GEMM;
both models are the physically-motivated work-per-block curve
(:func:`repro.gpu.bandwidth.grid_efficiency`) rescaled per architecture,
which is all the dispatcher needs to place transition points.

The headline saving of the blocked path is independent of these details:
a GEMM moves ``matrix + k * vectors`` bytes where ``k`` looped GEMVs move
``k * (matrix + vectors)`` — the matrix, the dominant traffic, is read
once instead of ``k`` times.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.backend import Backend, NumpyBackend
from repro.blas.types import BlasDatatype, GemmProblem, Operation
from repro.gpu.bandwidth import grid_efficiency, stream_efficiency
from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3, KernelLaunch
from repro.gpu.specs import GPUSpec, MI300X
from repro.util import checksum as _checksum
from repro.util.dtypes import Precision
from repro.util.pairwise import canonical_segments, fold_in_place, virtual_span
from repro.util.validation import ReproError
from repro.util.workspace import Workspace

__all__ = [
    "SBGEMMKernel",
    "RocblasSBGEMM",
    "OptimizedSBGEMM",
    "PairwiseSBGEMM",
    "gemm_strided_batched_reference",
    "pairwise_gemm_strided_batched_reference",
    "pairwise_segment_values",
    "gemm_checksum_rows",
    "gemm_checksum_verify",
]

_NUMPY = NumpyBackend()


def _gemm_operands(
    A: Any, B: Any, operation: Operation, out: Optional[Any], be: Backend
) -> Tuple[Any, Any, Operation, Tuple[int, int, int]]:
    """Validate a strided-batched GEMM call; returns the backend arrays,
    the parsed operation and the ``(batch, out_rows, k)`` panel shape."""
    A = be.asarray(A)
    B = be.asarray(B)
    if A.ndim != 3:
        raise ReproError(f"A must be (batch, m, n), got shape {tuple(A.shape)}")
    if B.ndim != 3:
        raise ReproError(f"B must be (batch, in_rows, k), got shape {tuple(B.shape)}")
    op = Operation.parse(operation)
    in_rows = A.shape[2] if op is Operation.N else A.shape[1]
    if tuple(B.shape[:2]) != (A.shape[0], in_rows):
        raise ReproError(
            f"B must be ({A.shape[0]}, {in_rows}, k), got {tuple(B.shape)}"
        )
    out_rows = A.shape[1] if op is Operation.N else A.shape[2]
    shape = (int(A.shape[0]), int(out_rows), int(B.shape[2]))
    if out is not None and (
        tuple(out.shape) != shape or be.dtype_of(out) != be.dtype_of(A)
    ):
        raise ReproError(
            f"out must be {shape} {be.dtype_of(A)}, "
            f"got {tuple(out.shape)} {be.dtype_of(out)}"
        )
    return A, B, op, shape


def _conjugated(A: Any, a_conj: Optional[Any], be: Backend) -> Any:
    """``conj(A)`` for op C: the caller's cached copy, or a fresh one."""
    if a_conj is None:
        return be.conjugate(A)
    if tuple(a_conj.shape) != tuple(A.shape) or be.dtype_of(a_conj) != be.dtype_of(A):
        raise ReproError(
            f"a_conj must be {tuple(A.shape)} {be.dtype_of(A)}, "
            f"got {tuple(a_conj.shape)} {be.dtype_of(a_conj)}"
        )
    return a_conj


def gemm_strided_batched_reference(
    A: Any,
    B: Any,
    operation: Operation,
    out: Optional[Any] = None,
    a_conj: Optional[Any] = None,
    backend: Optional[Backend] = None,
) -> Any:
    """Numerical strided-batched GEMM: ``C_i = op(A_i) @ B_i``.

    ``A`` has shape (batch, m, n); ``B`` has shape (batch, in_rows, k)
    where ``in_rows`` is ``n`` for op N and ``m`` for op T/C.  Computation
    stays in the input dtype, so mixed-precision SBGEMM error is
    measured, not modeled — same contract as the GEMV reference.

    ``out`` (shape ``(batch, out_rows, k)``) receives the panel without a
    fresh allocation.  ``a_conj`` supplies a precomputed ``np.conj(A)``
    for op C callers that apply the same spectrum every iteration (the
    matvec engine caches it); it must hold exactly the bytes
    ``np.conj(A)`` would produce, so the result is bitwise-unchanged.
    """
    be = backend if backend is not None else _NUMPY
    A, B, op, _ = _gemm_operands(A, B, operation, out, be)
    if op is Operation.N:
        return be.matmul(A, B, out=out)
    if op is Operation.C:
        A = _conjugated(A, a_conj, be)
    return be.matmul(be.transpose(A, (0, 2, 1)), B, out=out)


# -- the fixed-tree pairwise kernel ---------------------------------------------
# numpy's buffered ufunc iterator copies every operand through its
# 8192-element buffer when the operands' common contiguous run is at most
# a quarter of it: a complex add runs at ~1.8 ns/element on runs of up to
# 2048 elements and at ~0.45 ns from 2049 on.  One scratch row (one
# contraction index of a tile) is therefore kept longer than that.
_ROW_ELEMS = 2049
# Scratch per tile: well inside a 2 MB L2 next to the streamed operands,
# so the leaf products are still cache-resident when the fold reads them
# back (512 KB to 1.25 MB measure the same here).
_TILE_BYTES = 3 << 18


def _tile_plan(
    n_freq: int, panel: int, itemsize: int, count: int, row_elems: int = _ROW_ELEMS
) -> Tuple[int, int]:
    """Tile shape for a contraction of ``count`` leaves per output element.

    Returns ``(subtree, ftile)``: scratch holds ``subtree`` (a power of
    two) consecutive contraction indices of ``ftile`` frequencies, each
    a row of ``ftile * panel`` elements (``panel = out_rows * k``).
    Rows are made at least ``row_elems`` long first, the sub-tree then
    takes what is left of ``_TILE_BYTES``; when the whole contraction
    fits in one sub-tree the spare budget widens the frequency tile.
    """
    ftile = min(n_freq, -(-row_elems // panel))
    subtree = max(2, _TILE_BYTES // (ftile * panel * itemsize))
    subtree = 1 << (subtree.bit_length() - 1)
    if subtree >= virtual_span(count):
        subtree = virtual_span(count)
        ftile = min(n_freq, max(ftile, _TILE_BYTES // (subtree * panel * itemsize)))
    # Equal-width tiles: 129 frequencies in tiles of 43, not 64 + 64 + 1.
    return subtree, -(-n_freq // -(-n_freq // ftile))


def _pairwise_panels(
    A: Any,
    B: Any,
    op: Operation,
    spans: Sequence[Tuple[int, int]],
    outs: Sequence[Any],
    be: Backend,
    workspace: Optional[Workspace],
) -> None:
    """Fixed-tree sums of leaf products over contraction ranges, tiled.

    For every ``(lo, hi)`` in ``spans`` (local contraction indices whose
    first leaf sits on a virtual-tree node boundary) the matching
    ``(batch, out_rows, k)`` array in ``outs`` receives, per element,
    the tree sum over ``j in [lo, hi)`` of ``op(A)[b, i, j] * B[b, j, r]``
    — the grouping of :func:`~repro.util.pairwise.fold_in_place` over
    the ``hi - lo`` leaves.  ``A`` is already conjugated for op C.

    The leaves are never materialized as one tensor.  The kernel walks
    frequency tiles x aligned power-of-two sub-trees of the contraction
    axis; for each it forms the sub-tree's leaf products with a single
    elementwise ``multiply`` into a reused scratch whose *outermost*
    axis is the contraction index (the spectrum is read through a
    transposed view, never copied), folds that scratch in place, and
    finally folds the sub-tree roots the same way.  A sub-tree of
    ``2^s`` aligned leaves is a node of the virtual tree and
    ``fold_in_place`` pairs rows exactly as the tree pairs nodes, so
    "fold sub-trees, then fold their roots" performs the additions of
    the one fixed tree in the same grouping as a fold over all leaves at
    once; and since every operation is an elementwise ``multiply`` or
    ``add`` on the same operand values, tiling, layout and iteration
    order cannot change a bit of any output element.
    """
    n_freq, k = int(B.shape[0]), int(B.shape[2])
    # Everything below is indexed (contraction, freq, k, out_rows):
    # contraction outermost so a fold level adds whole rows, out_rows
    # innermost because it is the longer run (contiguous in A for op T/C).
    a_t = be.transpose(A, (2, 0, 1) if op is Operation.N else (1, 0, 2))
    a_v = a_t[:, :, None, :]
    b_v = be.transpose(B, (1, 0, 2))[:, :, :, None]
    dsts = [be.transpose(out, (0, 2, 1)) for out in outs]
    rows = int(a_t.shape[2])
    dtype = be.dtype_of(A)
    longest = max(hi - lo for lo, hi in spans)
    # A lone op-N column re-reads the transposed spectrum once per leaf,
    # so the strided gather, not the fold, is the cost to contain: a
    # quarter of the row keeps the cache lines one contraction index
    # touches (ftile * out_rows of them) within L1/L2 associativity.
    narrow = op is Operation.N and k == 1
    subtree, ftile = _tile_plan(
        n_freq, rows * k, dtype.itemsize, longest, _ROW_ELEMS // 4 if narrow else _ROW_ELEMS
    )
    max_roots = -(-longest // subtree)
    if max_roots == 1:
        max_roots = 0  # a lone sub-tree folds straight into the output
    elems = (subtree + max_roots) * ftile * rows * k
    buf = (
        workspace.checkout("pairwise_scratch", (elems,), dtype)
        if workspace is not None
        else be.empty((elems,), dtype)
    )
    for f0 in range(0, n_freq, ftile):
        f1 = min(n_freq, f0 + ftile)
        size = (f1 - f0) * k * rows
        scratch = buf[: subtree * size].reshape(subtree, f1 - f0, k, rows)
        roots = buf[subtree * size : (subtree + max_roots) * size].reshape(
            max_roots, f1 - f0, k, rows
        )
        for (lo, hi), dst in zip(spans, dsts):
            n_sub = -(-(hi - lo) // subtree)
            for t in range(n_sub):
                j0 = lo + t * subtree
                j1 = min(hi, j0 + subtree)
                be.multiply(a_v[j0:j1, f0:f1], b_v[j0:j1, f0:f1], out=scratch[: j1 - j0])
                fold_in_place(
                    scratch,
                    j1 - j0,
                    backend=be,
                    out=dst[f0:f1] if n_sub == 1 else roots[t],
                )
            if n_sub > 1:
                fold_in_place(roots, n_sub, backend=be, out=dst[f0:f1])


def pairwise_gemm_strided_batched_reference(
    A: Any,
    B: Any,
    operation: Operation,
    out: Optional[Any] = None,
    a_conj: Optional[Any] = None,
    backend: Optional[Backend] = None,
    workspace: Optional[Workspace] = None,
) -> Any:
    """Strided-batched GEMM with fixed-order pairwise accumulation.

    Same shapes and contract as :func:`gemm_strided_batched_reference`,
    but every output element is the :func:`~repro.util.pairwise.fold_pairwise`
    tree sum of its elementwise leaf products rather than whatever
    grouping the vendor GEMM's tiling produces.  Because the tree is per
    output element and independent of ``k``, blocked and looped applies
    agree bitwise at any block width — and restricting the contraction
    range to a sub-partition and merging segment values reproduces the
    same bits (see :func:`pairwise_segment_values`, of which this is the
    single-segment case written straight into ``out``).

    Transient memory is one tile of scratch (about ``_TILE_BYTES``, from
    ``workspace`` when given), whatever the problem size.
    """
    be = backend if backend is not None else _NUMPY
    A, B, op, shape = _gemm_operands(A, B, operation, out, be)
    if op is Operation.C:
        A = _conjugated(A, a_conj, be)
    if out is None:
        out = be.empty(shape, be.dtype_of(A))
    n = int(B.shape[1])
    _pairwise_panels(A, B, op, [(0, n)], [out], be, workspace)
    return out


def pairwise_segment_values(
    A: Any,
    B: Any,
    operation: Operation,
    start: int,
    n_global: int,
    a_conj: Optional[Any] = None,
    backend: Optional[Backend] = None,
    workspace: Optional[Workspace] = None,
) -> dict:
    """Canonical-segment partial panels for a *local slice* of a GEMM.

    ``A``/``B`` hold the contraction range ``[start, start + local)`` of
    a global contraction axis of length ``n_global`` (a rank's column or
    row block).  Returns ``{(s, e): value}`` mapping the range's
    :func:`~repro.util.pairwise.canonical_segments` (virtual extents) to
    their folded partial panels of shape (batch, out_rows, k).  Feeding
    every rank's segments to
    :func:`~repro.util.pairwise.fixed_tree_merge` (or the collective
    wrapper :func:`repro.comm.collectives.fixed_tree_reduce_segments`)
    yields the full panel bitwise-identical to
    :func:`pairwise_gemm_strided_batched_reference` on the undivided
    operands — for *any* partition, including width-1 parts.
    """
    be = backend if backend is not None else _NUMPY
    A, B, op, shape = _gemm_operands(A, B, operation, None, be)
    if op is Operation.C:
        A = _conjugated(A, a_conj, be)
    local = int(B.shape[1])
    segments = canonical_segments(start, start + local, n_global)
    # A tail segment's virtual extent may reach past n_global; its
    # absent leaves are simply not there to fold.
    spans = [(s - start, min(e, n_global) - start) for s, e in segments]
    values = {key: be.empty(shape, be.dtype_of(A)) for key in segments}
    _pairwise_panels(A, B, op, spans, list(values.values()), be, workspace)
    return values


def gemm_checksum_rows(
    A: Any,
    operation: Operation,
    a_conj: Optional[Any] = None,
    backend: Optional[Backend] = None,
) -> Tuple[Any, np.ndarray]:
    """The two ABFT checksum rows of ``op(A)``: ``(e^T op(A), e^T |op(A)|)``.

    Both depend on ``A`` alone, so a caller that applies one matrix many
    times computes them once and hands them to
    :func:`gemm_checksum_verify` as ``rows=`` — which also makes the
    check sensitive to ``A`` itself changing afterwards: rows taken from
    the clean matrix no longer move with a corrupted one.
    """
    be = backend if backend is not None else _NUMPY
    A = be.asarray(A)
    op = Operation.parse(operation)
    if op is Operation.C:
        A = _conjugated(A, a_conj, be)
    opA = A if op is Operation.N else be.transpose(A, (0, 2, 1))
    ones = be.asarray(np.ones((1, int(opA.shape[1])), dtype=be.dtype_of(A)))
    with np.errstate(over="ignore", invalid="ignore"):
        row = be.matmul(ones, opA)
    return row, _checksum.gemm_checksum_abs_row(be.from_device(opA))


def gemm_checksum_verify(
    A: Any,
    B: Any,
    operation: Operation,
    C: Any,
    a_conj: Optional[Any] = None,
    backend: Optional[Backend] = None,
    phase: str = "sbgemv",
    rank: Optional[int] = None,
    context: str = "",
    rtol: Optional[float] = None,
    rows: Optional[Tuple[Any, np.ndarray]] = None,
) -> None:
    """Huang–Abraham column-checksum verification of a computed panel.

    The checksum identity: for ``C = op(A) @ B`` the column sums of the
    output must satisfy ``e^T C == (e^T op(A)) @ B`` — the right-hand
    side is one extra GEMM row (the checksum row carried alongside the
    panel), so the check costs ``1/out_rows`` of the GEMM plus one read
    of ``C``.  A single corrupted element of ``C`` — or of ``A``, when
    ``rows`` predates the corruption — perturbs at least one column sum
    by the magnitude of the corruption, which a bit-62 flip makes
    enormous; rounding noise stays inside a tolerance scaled by
    ``(e^T |op(A)|) |B|``.  (A panel ``B`` corrupted before the GEMM read
    it satisfies the identity and is not this check's to find.)  Raises
    :class:`~repro.util.checksum.SilentCorruption` on mismatch.

    ``rows`` is a cached :func:`gemm_checksum_rows` result for ``A``
    (computed here when omitted).  ``C`` may also be a canonical-segment
    table ``{(s, e): panel}`` whose panels sum to the product: the column
    sums are taken per segment and added, never the full-size panels.
    """
    be = backend if backend is not None else _NUMPY
    A = be.asarray(A)
    B = be.asarray(B)
    op = Operation.parse(operation)
    row, abs_row = (
        rows if rows is not None else gemm_checksum_rows(A, op, a_conj=a_conj, backend=be)
    )
    panels = [C[key] for key in sorted(C)] if isinstance(C, dict) else [C]
    out_rows = int(panels[0].shape[1])
    ones = be.asarray(np.ones((1, out_rows), dtype=be.dtype_of(A)))
    # A corrupted panel may hold Inf/NaN; the checksum contractions then
    # propagate non-finite sums (which the verifier treats as a
    # detection) without numpy warning noise.
    with np.errstate(over="ignore", invalid="ignore"):
        expected = be.matmul(row, B)
        got = be.matmul(ones, be.asarray(panels[0]))
        for panel in panels[1:]:
            be.add(got, be.matmul(ones, be.asarray(panel)), out=got)
    _checksum.verify_gemm_checksums(
        be.from_device(expected),
        be.from_device(got),
        _checksum.gemm_checksum_scale(abs_row, be.from_device(B)),
        length=out_rows + int(B.shape[1]),
        phase=phase,
        rank=rank,
        context=context,
        rtol=rtol,
    )


# Architecture rescaling is relative to MI300X, matching the SBGEMV
# kernels' convention so transition points move coherently across archs.
_MI300X_REFERENCE_FRACTION = {
    Precision.DOUBLE: MI300X.peak_fraction(Precision.DOUBLE),
    Precision.SINGLE: MI300X.peak_fraction(Precision.SINGLE),
}


def _arch_scale(spec: GPUSpec, prec: Precision) -> float:
    return spec.peak_fraction(prec) / _MI300X_REFERENCE_FRACTION[prec]


class SBGEMMKernel:
    """Base class: numerics + launch accounting shared by both kernels."""

    name = "sbgemm_base"

    def launch_geometry(self, problem: GemmProblem, spec: GPUSpec) -> Tuple[Dim3, Dim3]:
        """(grid, block) dimensions this kernel launches with."""
        raise NotImplementedError

    def efficiency(self, problem: GemmProblem, spec: GPUSpec) -> float:
        """Achieved fraction of peak bandwidth for this problem."""
        raise NotImplementedError

    def supports(self, problem: GemmProblem) -> bool:
        """Whether this kernel handles the problem at all."""
        return True

    # -- execution ----------------------------------------------------------
    def run(
        self,
        A: Any,
        B: Any,
        problem: GemmProblem,
        device: Optional[SimulatedDevice] = None,
        phase: str = "sbgemv",
        out: Optional[Any] = None,
        a_conj: Optional[Any] = None,
        backend: Optional[Backend] = None,
    ) -> Any:
        """Compute the batched GEMM and charge simulated time.

        Dtypes must match the problem datatype — same strict check as the
        SBGEMV path, for the same reason: a precision-config bug here
        would silently change the numerics.  ``out`` / ``a_conj`` forward
        to the reference kernel (no output allocation, cached conjugate
        spectrum).
        """
        be = backend if backend is not None else _NUMPY
        if be.dtype_of(A) != problem.datatype.dtype:
            raise ReproError(
                f"A dtype {be.dtype_of(A)} != problem datatype {problem.datatype.dtype}"
            )
        if be.dtype_of(B) != problem.datatype.dtype:
            raise ReproError(
                f"B dtype {be.dtype_of(B)} != problem datatype {problem.datatype.dtype}"
            )
        if not self.supports(problem):
            raise ReproError(f"{self.name} does not support {problem.describe()}")
        C = self._compute(A, B, problem, out=out, a_conj=a_conj, backend=be)
        if device is not None:
            device.launch(self.launch(problem, device.spec), phase)
        return C

    def _compute(
        self,
        A: Any,
        B: Any,
        problem: GemmProblem,
        out: Optional[Any] = None,
        a_conj: Optional[Any] = None,
        backend: Optional[Backend] = None,
    ) -> Any:
        """Numerics hook — the vendor-order reference by default."""
        return gemm_strided_batched_reference(
            A, B, problem.operation, out=out, a_conj=a_conj, backend=backend
        )

    def launch(self, problem: GemmProblem, spec: GPUSpec) -> KernelLaunch:
        """The kernel launch of one execution on ``spec`` — what a device
        books (:meth:`run`) and what the perf model prices."""
        grid, block = self.launch_geometry(problem, spec)
        out_b = problem.out_rows * problem.k * problem.batch * problem.datatype.itemsize
        return KernelLaunch(
            name=f"{self.name}_{problem.datatype.value}{problem.operation.value.lower()}",
            grid=grid,
            block=block,
            bytes_read=float(problem.total_bytes - out_b),
            bytes_written=float(out_b),
            flops=2.0 * problem.m * problem.n * problem.k * problem.batch,
            efficiency_hint=self.efficiency(problem, spec),
        )

    # -- modeled performance -------------------------------------------------
    def modeled_time(self, problem: GemmProblem, spec: GPUSpec) -> float:
        """Simulated seconds for one execution (no numerics)."""
        eff = self.efficiency(problem, spec)
        bw = eff * spec.peak_bandwidth
        return problem.total_bytes / bw

    def modeled_bandwidth(self, problem: GemmProblem, spec: GPUSpec) -> float:
        """rocblas-bench's metric: problem bytes / measured time (B/s)."""
        return problem.total_bytes / self.modeled_time(problem, spec)


class RocblasSBGEMM(SBGEMMKernel):
    """The vendor strided-batched GEMM, macro-tiled over the output panel."""

    name = "rocblas_sbgemm"

    _TILE = 32  # square macro-tile of C (out_rows x k)

    def launch_geometry(self, problem: GemmProblem, spec: GPUSpec) -> Tuple[Dim3, Dim3]:
        return (
            Dim3(
                x=max(1, math.ceil(problem.out_rows / self._TILE)),
                y=max(1, math.ceil(problem.k / self._TILE)),
                z=problem.batch,
            ),
            Dim3(x=16, y=16),
        )

    def efficiency(self, problem: GemmProblem, spec: GPUSpec) -> float:
        scale = _arch_scale(spec, problem.datatype.precision)
        grid, _ = self.launch_geometry(problem, spec)
        # Per-block traffic: one A-panel slab plus one B-panel slab.
        red = problem.in_rows
        per_block = (
            red
            * (min(problem.out_rows, self._TILE) + min(problem.k, self._TILE))
            * problem.datatype.itemsize
        )
        base = grid_efficiency(problem.total_bytes, grid.total, per_block, spec)
        # Skinny C panels underfill the fixed macro-tile; idle lanes cost
        # throughput even though the traffic model already shrank.
        fill = min(problem.k, self._TILE) / self._TILE
        return min(0.95, base * max(math.sqrt(fill), 0.25) * scale)


class OptimizedSBGEMM(SBGEMMKernel):
    """The paper's SBGEMV kernel design extended to a register RHS panel.

    Gridblocks tile the columns of op(A) (64 per block), stream the
    A-panel once with 16-byte vectorized loads, and hold up to
    ``_RHS_PANEL`` right-hand sides in registers so every loaded A element
    is used ``min(k, _RHS_PANEL)`` times.  Like its GEMV parent it only
    implements the (conjugate) transpose operation — the short-wide
    shapes of FFTMatvec's Phase 3.
    """

    name = "optimized_sbgemm"

    _TILE_COLS = 64
    _THREADS = (64, 4)
    _RHS_PANEL = 8  # RHS columns held in registers per thread tile

    def supports(self, problem: GemmProblem) -> bool:
        return problem.operation.is_transposed

    def launch_geometry(self, problem: GemmProblem, spec: GPUSpec) -> Tuple[Dim3, Dim3]:
        blocks_x = max(1, math.ceil(problem.n / self._TILE_COLS))
        tx, ty = self._THREADS
        return Dim3(x=blocks_x, y=1, z=problem.batch), Dim3(x=tx, y=ty)

    def efficiency(self, problem: GemmProblem, spec: GPUSpec) -> float:
        if not problem.operation.is_transposed:
            raise ReproError(f"{self.name} only implements transposed SBGEMM")
        scale = _arch_scale(spec, problem.datatype.precision)
        grid, _ = self.launch_geometry(problem, spec)
        # The A-panel per block is the same as the GEMV kernel's, but the
        # register RHS panel multiplies the useful work per loaded byte.
        reuse = min(problem.k, self._RHS_PANEL)
        per_block = problem.m * self._TILE_COLS * problem.datatype.itemsize * reuse
        base = grid_efficiency(problem.total_bytes, grid.total, per_block, spec)
        # Beyond the register panel the kernel loops over RHS chunks,
        # re-streaming A; a mild penalty models the lost locality.
        spill = (self._RHS_PANEL / problem.k) ** 0.15 if problem.k > self._RHS_PANEL else 1.0
        return min(0.95, base * spill * scale)


class PairwiseSBGEMM(SBGEMMKernel):
    """Deterministic SBGEMM: the fixed binary-tree accumulation order.

    Wraps one of the fast kernels and keeps its launch geometry and
    traffic model — a register-resident pairwise tree reads the same
    bytes — but charges a flat ``DETERMINISM_TAX`` on achieved
    bandwidth: pinning the add order costs the scheduler its freedom to
    drain partial sums as tiles complete, and the tree's cross-lane
    shuffles add latency the free-order kernel hides.  Numerics come
    from :func:`pairwise_gemm_strided_batched_reference`, so every
    output element is the canonical tree sum of its leaf products:
    bitwise-identical across RHS block widths, looped vs blocked calls,
    and any contraction-axis partition.

    Unlike the fast path, ``k == 1`` panels go through this kernel too
    (the dispatcher skips its GEMV degeneration in pairwise mode) — a
    single column must round exactly like the same column inside a
    block, or "blocked == looped" would only hold to rounding.
    """

    name = "pairwise_sbgemm"

    DETERMINISM_TAX = 0.9  # fraction of the wrapped kernel's bandwidth

    def __init__(self, inner: SBGEMMKernel) -> None:
        self.inner = inner

    def supports(self, problem: GemmProblem) -> bool:
        return self.inner.supports(problem)

    def launch_geometry(self, problem: GemmProblem, spec: GPUSpec) -> Tuple[Dim3, Dim3]:
        return self.inner.launch_geometry(problem, spec)

    def efficiency(self, problem: GemmProblem, spec: GPUSpec) -> float:
        return self.inner.efficiency(problem, spec) * self.DETERMINISM_TAX

    def _compute(
        self,
        A: Any,
        B: Any,
        problem: GemmProblem,
        out: Optional[Any] = None,
        a_conj: Optional[Any] = None,
        backend: Optional[Backend] = None,
    ) -> Any:
        return pairwise_gemm_strided_batched_reference(
            A, B, problem.operation, out=out, a_conj=a_conj, backend=backend
        )
