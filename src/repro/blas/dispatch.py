"""Host-side SBGEMV/SBGEMM dispatcher with benchmark-derived transition points.

The paper integrates the optimized kernel into rocBLAS's host dispatcher
so "the application code is completely unchanged"; the benchmarking
results of Figure 1 "were also used to set the kernel transition points
in the host launcher" (Section 4.1.1).  This module reproduces that: for
each (datatype, operation) the dispatcher precomputes, per architecture,
the row-count threshold ``m*`` below which the optimized kernel wins, by
comparing the two kernels' modeled efficiencies — i.e. by running the
benchmark, exactly as the authors did.

The blocked multi-RHS path reuses the same machinery: GEMM transition
points are derived per (datatype, operation, RHS-width bucket) by
probing the same row counts against the two SBGEMM kernels' modeled
times, and :meth:`SBGEMVDispatcher.gemm_strided_batched` is the host
entry point FFTMatvec's ``matmat`` calls.  Model-derived GEMM points
are a default, not a commitment: :meth:`set_gemm_transition_points`
installs thresholds fit from *measured* timings
(:mod:`repro.blas.calibrate` — the Figure-1 workflow applied to the
SBGEMM pair), after which dispatch keys on the measurements.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

from repro.backend import Backend, NumpyBackend
from repro.blas.gemm_kernels import (
    OptimizedSBGEMM,
    PairwiseSBGEMM,
    RocblasSBGEMM,
    SBGEMMKernel,
)
from repro.blas.gemv_kernels import OptimizedSBGEMV, RocblasSBGEMV, SBGEMVKernel
from repro.blas.types import BlasDatatype, GemmProblem, GemvProblem, Operation
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import GPUSpec
from repro.util.validation import ReproError

__all__ = ["SBGEMVDispatcher"]

_NUMPY = NumpyBackend()

# Row counts probed when deriving transition points (powers of two spanning
# the shapes rocblas-bench covers in Figure 1).
_PROBE_ROWS = (64, 128, 256, 512, 1024, 2048, 4096)
_PROBE_SKEW = 8  # n = skew * m when probing short-and-wide behaviour


class SBGEMVDispatcher:
    """Selects between the original and optimized SBGEMV kernels.

    Parameters
    ----------
    spec:
        Target architecture (transition points are per-architecture, the
        way rocBLAS tunes per gfx arch).
    optimized:
        ``False`` is the pre-optimization library of the ablation
        benches: every selection returns the vendor kernel.
    """

    def __init__(self, spec: GPUSpec, optimized: bool = True) -> None:
        self.spec = spec
        self.use_optimized = bool(optimized)
        self.rocblas = RocblasSBGEMV()
        self.optimized = OptimizedSBGEMV()
        self.rocblas_gemm = RocblasSBGEMM()
        self.optimized_gemm = OptimizedSBGEMM()
        self._transition: Dict[Tuple[BlasDatatype, Operation], int] = {}
        self._gemm_transition: Dict[Tuple[BlasDatatype, Operation, int], int] = {}
        self.dispatch_counts: Dict[str, int] = {
            self.rocblas.name: 0,
            self.optimized.name: 0,
            self.rocblas_gemm.name: 0,
            self.optimized_gemm.name: 0,
            PairwiseSBGEMM.name: 0,
        }

    # -- transition points ---------------------------------------------------
    def transition_point(self, datatype: BlasDatatype, operation: Operation) -> int:
        """Largest probed ``m`` for which the optimized kernel still wins.

        Returns 0 when the optimized kernel never wins (e.g. non-transpose
        problems, where it isn't even applicable).
        """
        datatype = BlasDatatype.parse(datatype)
        operation = Operation.parse(operation)
        key = (datatype, operation)
        if key in self._transition:
            return self._transition[key]
        if not operation.is_transposed:
            self._transition[key] = 0
            return 0
        best = 0
        for m in _PROBE_ROWS:
            prob = GemvProblem(
                m=m, n=m * _PROBE_SKEW, batch=100, datatype=datatype, operation=operation
            )
            t_old = self.rocblas.modeled_time(prob, self.spec)
            t_new = self.optimized.modeled_time(prob, self.spec)
            if t_new < t_old:
                best = m
        self._transition[key] = best
        return best

    # -- dispatch ---------------------------------------------------------------
    def select(self, problem: GemvProblem) -> SBGEMVKernel:
        """Pick the kernel for a problem (the host launcher's decision)."""
        if not (self.use_optimized and problem.operation.is_transposed):
            return self.rocblas
        # One table lookup per dispatch (the launcher runs per batched
        # call, so this sits on the hot path).
        transition = self.transition_point(problem.datatype, problem.operation)
        if not problem.is_short_wide and problem.m > transition:
            return self.rocblas
        if problem.m <= transition:
            return self.optimized
        # Above the probed transition: compare directly (cheap, model-only).
        t_old = self.rocblas.modeled_time(problem, self.spec)
        t_new = self.optimized.modeled_time(problem, self.spec)
        return self.optimized if t_new < t_old else self.rocblas

    def gemv_strided_batched(
        self,
        A: Any,
        x: Any,
        operation: Operation,
        device: Optional[SimulatedDevice] = None,
        phase: str = "sbgemv",
        out: Optional[Any] = None,
        x_conj: Optional[Any] = None,
        backend: Optional[Backend] = None,
    ) -> Any:
        """rocBLAS entry point: dispatch and run.

        ``A`` is (batch, m, n), ``x`` is (batch, in_len); dtype determines
        the datatype, as the templated host dispatch function does.
        ``out`` (shape (batch, out_len)) receives the result in place;
        ``x_conj`` is a precomputed conjugate of ``x`` for op C callers.
        """
        be = backend if backend is not None else _NUMPY
        A = be.asarray(A)
        kernel, problem = self.phase3(
            A.shape[1], A.shape[2], A.shape[0], 1,
            BlasDatatype.from_dtype(be.dtype_of(A)), Operation.parse(operation),
        )
        self.dispatch_counts[kernel.name] += 1
        return kernel.run(
            A, x, problem, device=device, phase=phase, out=out, x_conj=x_conj,
            backend=be,
        )

    # -- blocked multi-RHS (SBGEMM) path -------------------------------------
    @staticmethod
    def _rhs_bucket(k: int) -> int:
        """Power-of-two bucket for the RHS width, so transition points are
        probed per regime rather than per exact k."""
        b = 1
        while b < k:
            b *= 2
        return b

    def gemm_transition_point(
        self, datatype: BlasDatatype, operation: Operation, k: int
    ) -> int:
        """Largest probed ``m`` for which the optimized SBGEMM still wins
        at RHS width ``k`` (0 when it never wins, e.g. op N)."""
        datatype = BlasDatatype.parse(datatype)
        operation = Operation.parse(operation)
        key = (datatype, operation, self._rhs_bucket(k))
        if key in self._gemm_transition:
            return self._gemm_transition[key]
        if not operation.is_transposed:
            self._gemm_transition[key] = 0
            return 0
        best = 0
        for m in _PROBE_ROWS:
            prob = GemmProblem(
                m=m,
                n=m * _PROBE_SKEW,
                k=self._rhs_bucket(k),
                batch=100,
                datatype=datatype,
                operation=operation,
            )
            t_old = self.rocblas_gemm.modeled_time(prob, self.spec)
            t_new = self.optimized_gemm.modeled_time(prob, self.spec)
            if t_new < t_old:
                best = m
        self._gemm_transition[key] = best
        return best

    def set_gemm_transition_points(
        self, table: Dict[Tuple[BlasDatatype, Operation, int], int]
    ) -> None:
        """Install measured GEMM transition points (calibration hook).

        ``table`` maps ``(datatype, operation, k)`` to the threshold
        row count ``m*``; k values are normalized to the dispatcher's
        power-of-two RHS buckets.  Installed entries take precedence
        over (and suppress) the model-derived probe for their bucket —
        this is how a Figure-1-style measured calibration replaces the
        physical efficiency curve.
        """
        # Validate/normalize the whole table before mutating, so an
        # invalid entry cannot leave the dispatcher half-calibrated.
        staged: Dict[Tuple[BlasDatatype, Operation, int], int] = {}
        for (datatype, operation, k), m_star in table.items():
            datatype = BlasDatatype.parse(datatype)
            operation = Operation.parse(operation)
            if int(m_star) < 0:
                raise ReproError(
                    f"transition point must be >= 0, got {m_star}"
                )
            key = (datatype, operation, self._rhs_bucket(int(k)))
            staged[key] = int(m_star)
        self._gemm_transition.update(staged)

    def select_gemm(
        self, problem: GemmProblem, reduction: str = "fast"
    ) -> SBGEMMKernel:
        """Pick the SBGEMM kernel for a blocked multi-RHS problem.

        ``reduction="pairwise"`` wraps the selected kernel in
        :class:`~repro.blas.gemm_kernels.PairwiseSBGEMM` — same launch
        geometry and dispatch decision, fixed-tree accumulation order,
        and the wrapper's flat bandwidth tax.
        """
        if reduction not in ("fast", "pairwise"):
            raise ReproError(f"reduction must be 'fast' or 'pairwise', got {reduction!r}")
        if not (self.use_optimized and problem.operation.is_transposed):
            kernel: SBGEMMKernel = self.rocblas_gemm
        else:
            transition = self.gemm_transition_point(
                problem.datatype, problem.operation, problem.k
            )
            if not problem.is_short_wide and problem.m > transition:
                kernel = self.rocblas_gemm
            elif problem.m <= transition:
                kernel = self.optimized_gemm
            else:
                t_old = self.rocblas_gemm.modeled_time(problem, self.spec)
                t_new = self.optimized_gemm.modeled_time(problem, self.spec)
                kernel = self.optimized_gemm if t_new < t_old else self.rocblas_gemm
        if reduction == "pairwise":
            return PairwiseSBGEMM(kernel)
        return kernel

    def gemm_strided_batched(
        self,
        A: Any,
        B: Any,
        operation: Operation,
        device: Optional[SimulatedDevice] = None,
        phase: str = "sbgemv",
        out: Optional[Any] = None,
        a_conj: Optional[Any] = None,
        backend: Optional[Backend] = None,
        reduction: str = "fast",
    ) -> Any:
        """rocBLAS entry point for the blocked path: dispatch and run.

        ``A`` is (batch, m, n); ``B`` is (batch, in_rows, k).  With
        ``k == 1`` the call degenerates to (and dispatches like) the
        single-RHS GEMV entry point, keeping the two paths numerically
        interchangeable.  ``out`` (shape (batch, out_rows, k)) receives
        the panel in place; ``a_conj`` is a cached conjugate of ``A`` for
        op C callers.

        ``reduction="pairwise"`` selects the fixed-tree accumulation
        order (:class:`~repro.blas.gemm_kernels.PairwiseSBGEMM`).  The
        ``k == 1`` GEMV degeneration is *skipped* in that mode: a lone
        column must accumulate through the identical tree it would see
        inside a wide panel, which is what makes blocked == looped exact
        rather than to-rounding.
        """
        be = backend if backend is not None else _NUMPY
        A = be.asarray(A)
        B = be.asarray(B)
        op = Operation.parse(operation)
        if B.ndim != 3:
            raise ReproError(f"B must be (batch, in_rows, k), got shape {tuple(B.shape)}")
        kernel, problem = self.phase3(
            A.shape[1], A.shape[2], A.shape[0], B.shape[2],
            BlasDatatype.from_dtype(be.dtype_of(A)), op, reduction,
        )
        self.dispatch_counts[kernel.name] += 1
        if isinstance(problem, GemvProblem):  # the lone fast column
            y = kernel.run(
                A, B[:, :, 0], problem, device=device, phase=phase,
                out=None if out is None else out[:, :, 0], backend=be,
            )
            return y[:, :, None]
        return kernel.run(
            A, B, problem, device=device, phase=phase, out=out, a_conj=a_conj,
            backend=be,
        )

    def phase3(
        self,
        m: int,
        n: int,
        batch: int,
        k: int,
        datatype: BlasDatatype,
        operation: Operation,
        reduction: str = "fast",
    ) -> Tuple[Union[SBGEMVKernel, SBGEMMKernel], Union[GemvProblem, GemmProblem]]:
        """The one Phase-3 decision: ``(kernel, problem)`` of ``k`` columns
        through ``batch`` matrices of ``m x n``.

        A lone fast column is the GEMV problem, anything else the GEMM
        problem; pairwise wraps the selected GEMM kernel and never
        degenerates.  Both host entry points, the matvec engine and the
        perf model ask here, so what one books the others book and price.
        """
        if k == 1 and reduction == "fast":
            gemv = GemvProblem(m=m, n=n, batch=batch, datatype=datatype, operation=operation)
            return self.select(gemv), gemv
        gemm = GemmProblem(m=m, n=n, k=k, batch=batch, datatype=datatype, operation=operation)
        return self.select_gemm(gemm, reduction=reduction), gemm
