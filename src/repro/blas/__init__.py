"""Simulated rocBLAS: strided-batched GEMV kernels + dispatcher + bench.

Reproduces the paper's contribution C2 (the optimized (conjugate)
transpose SBGEMV kernel merged into rocBLAS) as a pair of kernel
implementations with identical numerics but distinct performance models:

* :class:`~repro.blas.gemv_kernels.RocblasSBGEMV` — the original rocBLAS
  kernel.  In (conjugate) transpose mode it launches one gridblock per
  matrix column, each computing a single length-``m`` dot product; for
  short-and-wide matrices (``m << n``) the blocks have almost no work and
  achieved bandwidth collapses (Section 3.1.1).
* :class:`~repro.blas.gemv_kernels.OptimizedSBGEMV` — the paper's kernel:
  gridblocks tile the columns, 2D threadblocks compute chunks of the
  output, vectorized loads (float4/double2) and read/compute/write
  pipelining raise the achieved bandwidth.

Efficiency curves are calibrated against the %-of-peak annotations of
Figure 1 (MI300X) and rescaled to other architectures via their
``sbgemv_peak_fraction``.  :mod:`repro.blas.dispatch` reproduces the host
dispatcher whose kernel transition points were "set using the
benchmarking results" (probed from the kernel models, for SBGEMV and
SBGEMM alike), and :mod:`repro.blas.bench` is the Figure-1
``rocblas-bench`` work-alike driven by the same YAML-style configs as
the paper's artifact.
"""

from repro.blas.types import Operation, BlasDatatype, GemvProblem, GemmProblem
from repro.blas.gemv_kernels import (
    RocblasSBGEMV,
    OptimizedSBGEMV,
    SBGEMVKernel,
    gemv_strided_batched_reference,
)
from repro.blas.gemm_kernels import (
    RocblasSBGEMM,
    OptimizedSBGEMM,
    SBGEMMKernel,
    gemm_strided_batched_reference,
)
from repro.blas.dispatch import SBGEMVDispatcher
from repro.blas.bench import RocblasBench, BenchResult, parse_bench_yaml

__all__ = [
    "Operation",
    "BlasDatatype",
    "GemvProblem",
    "GemmProblem",
    "RocblasSBGEMV",
    "OptimizedSBGEMV",
    "SBGEMVKernel",
    "gemv_strided_batched_reference",
    "RocblasSBGEMM",
    "OptimizedSBGEMM",
    "SBGEMMKernel",
    "gemm_strided_batched_reference",
    "SBGEMVDispatcher",
    "RocblasBench",
    "BenchResult",
    "parse_bench_yaml",
]
