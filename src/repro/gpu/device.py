"""The simulated device: memory + clock + launch accounting.

:class:`SimulatedDevice` is the execution substrate every higher layer
(HIP runtime shim, rocBLAS kernels, FFT plans, matvec engine) runs on.
It owns a :class:`~repro.util.timing.SimClock` and a
:class:`~repro.gpu.memory.DeviceAllocator`, validates kernel geometry,
and converts kernel traffic into simulated time through the bandwidth
model.

Time is charged to the device's own clock (serial execution: kernels
on one device run back to back).  A grid engine gives every rank its
own device and reads what a chunk charged from the clock's
:meth:`~repro.util.timing.SimClock.tally`; the slowest rank's tally is
what the chunk schedule charges its compute stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.gpu.bandwidth import kernel_time, memcpy_time, stream_efficiency
from repro.gpu.kernel import KernelLaunch
from repro.gpu.memory import DeviceAllocator
from repro.gpu.specs import GPUSpec, get_gpu
from repro.util.timing import SimClock

__all__ = ["SimulatedDevice", "LaunchRecord", "price_launch"]


def price_launch(kernel: KernelLaunch, spec: GPUSpec) -> float:
    """Validated launch -> simulated seconds on ``spec``.

    The one price of a kernel launch: what a device charges when it
    books the launch, and what the perf model sums.  If the kernel
    provides an ``efficiency_hint`` it is used directly; otherwise a
    streaming efficiency is derived from the total traffic.
    """
    kernel.validate(spec)
    if kernel.efficiency_hint > 0:
        eff = kernel.efficiency_hint
    else:
        eff = stream_efficiency(kernel.bytes_moved, spec)
    return kernel_time(kernel.bytes_moved, spec, eff)


@dataclass(frozen=True)
class LaunchRecord:
    """Bookkeeping entry for one executed kernel launch."""

    name: str
    time: float
    bytes_moved: float
    blocks: int
    phase: str = ""


@dataclass
class DeviceStats:
    """Aggregate counters for a device's lifetime."""

    launches: int = 0
    bytes_moved: float = 0.0
    kernel_seconds: float = 0.0
    per_kernel: Dict[str, float] = field(default_factory=dict)


class SimulatedDevice:
    """A single simulated GPU.

    Parameters
    ----------
    spec:
        A :class:`GPUSpec` or a registry name like ``"MI300X"``.
    record_launches:
        Keep a :class:`LaunchRecord` per launch in :attr:`launch_log`.
    """

    def __init__(
        self,
        spec: Union[GPUSpec, str],
        record_launches: bool = False,
    ) -> None:
        self.spec = get_gpu(spec) if isinstance(spec, str) else spec
        self.clock = SimClock()
        self.allocator = DeviceAllocator(self.spec)
        self.stats = DeviceStats()
        self._record = record_launches
        self.launch_log: List[LaunchRecord] = []

    # -- memory ----------------------------------------------------------
    def malloc(self, nbytes: int, tag: str = ""):
        """Allocate device memory (tracked)."""
        return self.allocator.malloc(nbytes, tag=tag)

    def free(self, alloc) -> None:
        """Release a device allocation."""
        self.allocator.free(alloc)

    def memcpy(self, nbytes: int, kind: str = "d2d") -> float:
        """Simulate a copy; host<->device goes over a PCIe/IF link model.

        Returns the simulated duration and advances the clock.
        """
        if kind == "d2d":
            t = memcpy_time(nbytes, self.spec)
        elif kind in ("h2d", "d2h"):
            # Host link: ~64 GB/s (Infinity Fabric / PCIe gen5-ish) + 10us.
            t = 10e-6 + float(nbytes) / 64e9
        else:
            raise ValueError(f"unknown memcpy kind {kind!r}")
        self.clock.advance(t)
        return t

    # -- kernels ---------------------------------------------------------
    def launch(self, kernel: KernelLaunch, phase: str = "") -> float:
        """Validate and execute a kernel launch; returns simulated seconds
        (:func:`price_launch` on this device's spec).  The time goes to
        the caller's open clock phase; ``phase`` only labels the log."""
        t = price_launch(kernel, self.spec)
        self.clock.advance(t)
        return self._count(kernel, t, phase)

    def book(self, kernel: KernelLaunch, seconds: float, phase: str) -> float:
        """Execute a launch already priced for this spec (``seconds`` is
        its :func:`price_launch`), attributed to ``phase`` by name — what
        :meth:`launch` books inside ``clock.phase(phase)``, for a caller
        that prepared its launches once and opens no scope per apply."""
        self.clock.advance(seconds, phase)
        return self._count(kernel, seconds, phase)

    def _count(self, kernel: KernelLaunch, t: float, phase: str) -> float:
        stats = self.stats
        stats.launches += 1
        stats.bytes_moved += kernel.bytes_moved
        stats.kernel_seconds += t
        stats.per_kernel[kernel.name] = stats.per_kernel.get(kernel.name, 0.0) + t
        if self._record:
            self.launch_log.append(
                LaunchRecord(
                    name=kernel.name,
                    time=t,
                    bytes_moved=kernel.bytes_moved,
                    blocks=kernel.blocks,
                    phase=phase,
                )
            )
        return t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulatedDevice({self.spec.name!r}, t={self.clock.now:.6f}s)"
