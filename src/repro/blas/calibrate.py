"""Measured SBGEMM calibration: transition points fit from timings.

The paper sets the SBGEMV host-dispatch transition points from the
Figure-1 *benchmark results*, not from a performance model ("the
benchmarking results were also used to set the kernel transition points
in the host launcher", Section 4.1.1).  The SBGEMM dispatcher shipped
with modeled transition points — the physically-motivated efficiency
curves compared analytically.  This module closes the gap for the
blocked path:

* :func:`measure_gemm_points` runs both SBGEMM kernels over a Figure-1
  style (shape, RHS-width) sweep and records *measured* timings — by
  default from the simulated device clock around real kernel
  executions (which includes launch overhead the pure model ignores),
  or from any caller-supplied timer (e.g. wall-clock around a real
  BLAS call on actual hardware).
* :func:`fit_transition_points` turns those measurements into the
  per-(datatype, operation, RHS-bucket) row-count thresholds ``m*``
  the dispatcher keys on — the largest probed ``m`` where the
  optimized kernel still wins.
* :func:`calibrate_dispatcher` installs a fitted table into a live
  :class:`~repro.blas.dispatch.SBGEMVDispatcher`, replacing its
  model-derived GEMM transition points with measured ones.
* :func:`calibration_table` renders the sweep as a Figure-1-style
  table; :func:`calibration_series` returns per-build (m, GB/s) series
  ready for a bar/line plot.

Kept by ``src/repro/blas/bench.py``: paper Sec. 4.1.1 (Figure 1's bench
results set the transition points); it fits from that module's results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import NumpyBackend
from repro.blas.dispatch import SBGEMVDispatcher
from repro.blas.gemm_kernels import OptimizedSBGEMM, RocblasSBGEMM
from repro.blas.types import BlasDatatype, GemmProblem, Operation
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import GPUSpec, MI300X
from repro.util.tables import render_table
from repro.util.validation import ReproError

_NUMPY = NumpyBackend()

__all__ = [
    "GemmCalibrationPoint",
    "measure_gemm_points",
    "fit_transition_points",
    "fit_transition_points_from_bench",
    "calibrate_dispatcher",
    "calibration_table",
    "calibration_series",
]

# Default sweep: the dispatcher's probe rows at Figure-1's short-wide
# skew, across the RHS widths the blocked pipeline actually uses.
# Unlike the dispatcher's model-only probe (which goes to 4096 rows for
# free), the measured sweep materializes real operands — batch * m *
# 8m * 16 bytes per matrix — so the default stops at 1024 rows (~270 MB
# per timing at batch 2); pass larger ``rows`` explicitly if you have
# the memory.
DEFAULT_ROWS = (64, 128, 256, 512, 1024)
DEFAULT_KS = (2, 4, 8, 16)
DEFAULT_SKEW = 8
# Measurement batch: small enough that the in-process numerics stay
# cheap; the simulated-clock timing scales with the problem, so the
# crossover row count is unchanged.
_MEASURE_BATCH = 2


@dataclass(frozen=True)
class GemmCalibrationPoint:
    """Both kernels' measured timings at one swept problem."""

    problem: GemmProblem
    t_rocblas: float
    t_optimized: float

    @property
    def optimized_wins(self) -> bool:
        return self.t_optimized < self.t_rocblas

    @property
    def speedup(self) -> float:
        return self.t_rocblas / self.t_optimized

    def bandwidths(self) -> Tuple[float, float]:
        """(rocblas, optimized) achieved GB/s — rocblas-bench's metric."""
        return (
            self.problem.total_bytes / self.t_rocblas / 1e9,
            self.problem.total_bytes / self.t_optimized / 1e9,
        )


def _device_timer(spec: GPUSpec) -> Callable[[object, GemmProblem], float]:
    """Time one kernel execution on a fresh simulated device clock.

    Runs the kernel's real numerics + launch accounting and reads the
    clock delta — the simulated analogue of rocblas-bench's
    device-event timing, including launch overhead.
    """

    def fill(rng, shape, problem: GemmProblem) -> np.ndarray:
        # Allocate in the target dtype and fill through real/imag views
        # so the peak is one operand plus one float temporary, not the
        # 2-3x that stacking float arrays and casting would cost.
        out = _NUMPY.empty(shape, problem.datatype.dtype)
        if problem.datatype.is_complex:
            out.real = rng.standard_normal(shape)
            out.imag = rng.standard_normal(shape)
        else:
            out[...] = rng.standard_normal(shape)
        return out

    def timer(kernel, problem: GemmProblem) -> float:
        rng = np.random.default_rng(problem.m * 31 + problem.k)
        A = fill(rng, (problem.batch, problem.m, problem.n), problem)
        B = fill(rng, (problem.batch, problem.in_rows, problem.k), problem)
        device = SimulatedDevice(spec)
        t0 = device.clock.now
        kernel.run(A, B, problem, device=device)
        return device.clock.now - t0

    return timer


def measure_gemm_points(
    spec: GPUSpec = MI300X,
    datatypes: Sequence[Union[str, BlasDatatype]] = ("z", "c"),
    ks: Sequence[int] = DEFAULT_KS,
    rows: Sequence[int] = DEFAULT_ROWS,
    skew: int = DEFAULT_SKEW,
    batch: int = _MEASURE_BATCH,
    timer: Optional[Callable] = None,
) -> List[GemmCalibrationPoint]:
    """Measure both SBGEMM kernels over a (datatype, m, k) sweep.

    ``timer(kernel, problem) -> seconds`` defaults to simulated-device
    timing (:func:`_device_timer`); pass your own to calibrate from
    real-hardware wall-clock measurements instead.  Operations follow
    Figure 1's convention: conjugate-transpose for complex datatypes,
    transpose for real — the shapes FFTMatvec's blocked Phase 3 emits.
    """
    if timer is None:
        timer = _device_timer(spec)
    rocblas, optimized = RocblasSBGEMM(), OptimizedSBGEMM()
    points: List[GemmCalibrationPoint] = []
    for dt in datatypes:
        dt = BlasDatatype.parse(dt)
        op = Operation.C if dt.is_complex else Operation.T
        for k in ks:
            for m in rows:
                problem = GemmProblem(
                    m=m, n=m * skew, k=k, batch=batch, datatype=dt, operation=op
                )
                points.append(
                    GemmCalibrationPoint(
                        problem=problem,
                        t_rocblas=float(timer(rocblas, problem)),
                        t_optimized=float(timer(optimized, problem)),
                    )
                )
    return points


# The dispatcher's bucketing is the single source of truth — fitted keys
# must land exactly where set_gemm_transition_points installs them.
_rhs_bucket = SBGEMVDispatcher._rhs_bucket


def fit_transition_points(
    points: Sequence[GemmCalibrationPoint],
) -> Dict[Tuple[BlasDatatype, Operation, int], int]:
    """Fit per-(datatype, operation, RHS-bucket) thresholds ``m*``.

    ``m*`` is the largest measured row count at which the optimized
    kernel beat the vendor kernel (0 if it never did) — exactly the
    quantity the dispatcher's model-derived probe computes, but from
    measurements.
    """
    if len(points) == 0:
        raise ReproError("cannot fit transition points from zero measurements")
    table: Dict[Tuple[BlasDatatype, Operation, int], int] = {}
    for p in points:
        key = (p.problem.datatype, p.problem.operation, _rhs_bucket(p.problem.k))
        table.setdefault(key, 0)
        if p.optimized_wins:
            table[key] = max(table[key], p.problem.m)
    return table


def fit_transition_points_from_bench(
    baseline, optimized
) -> Dict[Tuple[BlasDatatype, Operation, int], int]:
    """Fit thresholds from two :class:`~repro.blas.bench.RocblasBench`
    result lists (the two "builds" of the Figure-1 workflow)."""
    if len(baseline) != len(optimized):
        raise ReproError("result lists must have equal length")
    points = []
    for old, new in zip(baseline, optimized):
        if old.problem != new.problem:
            raise ReproError("mismatched problems between builds")
        if not isinstance(old.problem, GemmProblem):
            raise ReproError(
                f"expected GEMM bench results, got {type(old.problem).__name__}"
            )
        points.append(
            GemmCalibrationPoint(
                problem=old.problem,
                t_rocblas=old.seconds,
                t_optimized=new.seconds,
            )
        )
    return fit_transition_points(points)


def calibrate_dispatcher(dispatcher, points: Sequence[GemmCalibrationPoint]):
    """Install measured GEMM transition points into a dispatcher.

    After this, :meth:`SBGEMVDispatcher.select_gemm` keys on the
    measured thresholds instead of probing the efficiency model.
    Returns the fitted table.
    """
    table = fit_transition_points(points)
    dispatcher.set_gemm_transition_points(table)
    return table


def calibration_table(
    points: Sequence[GemmCalibrationPoint],
    fitted: Optional[Dict[Tuple[BlasDatatype, Operation, int], int]] = None,
) -> str:
    """Figure-1-style table of the calibration sweep.

    Marks each row's winner and, when ``fitted`` is given, the row that
    sets each bucket's transition point.
    """
    if fitted is None:
        fitted = fit_transition_points(points)
    rows = []
    for p in points:
        bw_old, bw_new = p.bandwidths()
        key = (p.problem.datatype, p.problem.operation, _rhs_bucket(p.problem.k))
        marker = "  <- m*" if fitted.get(key) == p.problem.m else ""
        rows.append(
            [
                p.problem.datatype.value,
                p.problem.operation.value,
                str(p.problem.k),
                f"{p.problem.m}x{p.problem.n}",
                f"{bw_old:.1f}",
                f"{bw_new:.1f}",
                f"{p.speedup:.2f}x",
                ("optimized" if p.optimized_wins else "rocblas") + marker,
            ]
        )
    return render_table(
        ["dtype", "op", "k", "size", "rocBLAS GB/s", "optimized GB/s",
         "speedup", "winner"],
        rows,
        title="Measured SBGEMM calibration (transition points marked m*)",
    )


def calibration_series(
    points: Sequence[GemmCalibrationPoint],
) -> Dict[Tuple[str, str, int], Dict[str, List[float]]]:
    """Plot-ready series: (dtype, op, k) -> {m, rocblas_gbs, optimized_gbs}.

    The figure hook: each key is one panel (a Figure-1-style group),
    each value holds aligned x (row count) and y (achieved GB/s per
    build) arrays.
    """
    series: Dict[Tuple[str, str, int], Dict[str, List[float]]] = {}
    for p in points:
        key = (p.problem.datatype.value, p.problem.operation.value, p.problem.k)
        entry = series.setdefault(
            key, {"m": [], "rocblas_gbs": [], "optimized_gbs": []}
        )
        bw_old, bw_new = p.bandwidths()
        entry["m"].append(float(p.problem.m))
        entry["rocblas_gbs"].append(bw_old)
        entry["optimized_gbs"].append(bw_new)
    return series
