"""Simulated GPU substrate.

The paper benchmarks AMD Instinct MI250X / MI300X / MI355X hardware.  We
have no GPUs, so this package provides:

* :mod:`repro.gpu.specs` — an architecture registry (peak bandwidth,
  peak FLOP rates per precision, launch overheads, CDNA generation) for
  the paper's GPUs plus a few NVIDIA parts used in portability tests.
* :mod:`repro.gpu.bandwidth` — achieved-bandwidth models: every FFTMatvec
  phase is memory-bound, so kernel cost = bytes / (efficiency * peak BW)
  + launch overhead, with efficiency curves calibrated to the paper.
* :mod:`repro.gpu.memory` — a device memory allocator that tracks
  capacity (64/192/288 GB) and catches leaks/double frees in tests.
* :mod:`repro.gpu.kernel` — kernel-launch descriptors with grid/block
  geometry validation (max grid dims, the y/z overflow issue that the
  paper's custom permutation kernel works around).
* :mod:`repro.gpu.device` — ties the above to a :class:`SimClock`.
"""

from repro.gpu.specs import GPUSpec, get_gpu, MI250X_GCD, MI300X, MI355X
from repro.gpu.memory import DeviceAllocator, OutOfMemoryError, Allocation
from repro.gpu.kernel import KernelLaunch, LaunchConfigError, Dim3
from repro.gpu.device import SimulatedDevice
from repro.gpu.bandwidth import stream_efficiency, achieved_bandwidth, memcpy_time

__all__ = [
    "GPUSpec",
    "get_gpu",
    "MI250X_GCD",
    "MI300X",
    "MI355X",
    "DeviceAllocator",
    "OutOfMemoryError",
    "Allocation",
    "KernelLaunch",
    "LaunchConfigError",
    "Dim3",
    "SimulatedDevice",
    "stream_efficiency",
    "achieved_bandwidth",
    "memcpy_time",
]
