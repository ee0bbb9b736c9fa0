"""Performance-portability substrate: hipify on-the-fly.

The paper keeps a single CUDA source tree and translates it to HIP at
compile time with ``hipify-perl`` (a regex-based translator), driven by
CMake.  This package reproduces that workflow in Python:

* :mod:`repro.hip.mappings` — the CUDA→HIP identifier tables
  (runtime API, cuBLAS→hipBLAS/rocBLAS, cuFFT→hipFFT, NCCL→RCCL,
  cuRAND, driver types...), including the *unsupported* set (cuTENSOR v2
  permutation) that forces a custom-kernel fallback.
* :mod:`repro.hip.hipify` — ``hipify_perl()``: a find-and-replace
  translator with word-boundary matching, include rewriting, statistics,
  and "Not Supported" diagnostics; mirrors hipify-perl's behaviour.
* :mod:`repro.hip.build` — :class:`OnTheFlyBuildSystem`: holds the CUDA
  sources, hipifies into a build directory at "compile" time, caches on
  content hashes, and rebuilds only what changed — the CMake integration
  described in Section 3.1.
* :mod:`repro.hip.runtime` — a thin runtime facade (malloc/memcpy/launch)
  that executes translated sources' kernels on a
  :class:`~repro.gpu.device.SimulatedDevice`, regardless of vendor, and
  refuses an executable built for the other vendor.
"""

from repro.hip.mappings import (
    CUDA_TO_HIP,
    UNSUPPORTED_CUDA,
    INCLUDE_MAP,
)
from repro.hip.hipify import hipify_perl, HipifyResult, HipifyStats, UnsupportedAPIError
from repro.hip.build import OnTheFlyBuildSystem, SourceFile, Executable, CompileError
from repro.hip.runtime import GPURuntime

__all__ = [
    "CUDA_TO_HIP",
    "UNSUPPORTED_CUDA",
    "INCLUDE_MAP",
    "hipify_perl",
    "HipifyResult",
    "HipifyStats",
    "UnsupportedAPIError",
    "OnTheFlyBuildSystem",
    "SourceFile",
    "Executable",
    "CompileError",
    "GPURuntime",
]
