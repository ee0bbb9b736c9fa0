"""Vendor-agnostic GPU runtime facade.

:class:`GPURuntime` is the thin layer application code uses after the
build system produced an executable: it exposes malloc/free/memcpy and
kernel launches against a :class:`~repro.gpu.device.SimulatedDevice`,
with the same surface regardless of whether the build was CUDA or HIP.
This mirrors how the hipified FFTMatvec binary calls hipMalloc etc. and
the NVIDIA binary calls cudaMalloc, with identical semantics.

Kept by ``examples/hipify_port.py``: step 2 runs each build through the
runtime on a matching device, and shows it refusing the CUDA build on an
MI300X (the CUDA -> HIP port of the paper, Sec. 3.1).
"""

from __future__ import annotations

from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3, KernelLaunch
from repro.gpu.specs import GPUSpec
from repro.util.validation import ReproError

__all__ = ["GPURuntime"]


class GPURuntime:
    """Runtime bound to one device, created from a built executable.

    The runtime checks that the executable's vendor matches the device —
    running a CUDA binary on an AMD GPU is exactly the failure mode the
    hipify workflow exists to prevent.
    """

    def __init__(self, device: SimulatedDevice, executable=None) -> None:
        self.device = device
        self.executable = executable
        if executable is not None and executable.target_vendor != device.spec.vendor:
            raise ReproError(
                f"executable built for {executable.target_vendor} cannot run "
                f"on {device.spec.vendor} device {device.spec.name}"
            )

    @property
    def spec(self) -> GPUSpec:
        return self.device.spec

    # -- memory ------------------------------------------------------------
    def malloc(self, nbytes: int, tag: str = ""):
        """hipMalloc/cudaMalloc: allocate tracked device memory."""
        return self.device.malloc(nbytes, tag=tag)

    def free(self, alloc) -> None:
        """hipFree/cudaFree."""
        self.device.free(alloc)

    def memcpy(self, nbytes: int, kind: str = "d2d") -> float:
        """hipMemcpy: simulate a copy, returning the modeled seconds."""
        return self.device.memcpy(nbytes, kind=kind)

    # -- kernels -------------------------------------------------------------
    def launch(
        self,
        name: str,
        grid: Dim3,
        block: Dim3,
        *,
        bytes_read: float = 0.0,
        bytes_written: float = 0.0,
        phase: str = "",
    ) -> float:
        """Launch a named memory-bound kernel; returns simulated seconds."""
        kernel = KernelLaunch(
            name=name,
            grid=grid,
            block=block,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
        )
        return self.device.launch(kernel, phase=phase)
