"""Device memory allocator simulation.

Tracks allocations against the device's HBM capacity so that tests and
examples can verify, e.g., that a 1-billion-parameter problem fits in the
aggregate memory of 640 MI250X GCDs but not 512 (paper Section 4.2.2),
and that the matvec engine frees every temporary it allocates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.gpu.specs import GPUSpec
from repro.util.validation import ReproError

__all__ = ["Allocation", "DeviceAllocator", "OutOfMemoryError"]


class OutOfMemoryError(ReproError):
    """Raised when an allocation exceeds the device's remaining capacity."""


@dataclass(frozen=True)
class Allocation:
    """Handle to a live device allocation."""

    handle: int
    nbytes: int
    tag: str = ""


class DeviceAllocator:
    """Capacity-tracking allocator with leak detection.

    Alignment follows real allocators: requests are rounded up to
    ``ALIGNMENT`` bytes (256, matching hipMalloc granularity).
    ``capacity`` overrides the spec's HBM size — the serving-layer
    :class:`~repro.serve.cache.EngineCache` uses this to enforce a byte
    budget smaller than (or independent of) any one device.
    """

    ALIGNMENT = 256

    def __init__(self, spec: GPUSpec, capacity: Optional[int] = None) -> None:
        self.spec = spec
        self._capacity = int(spec.memory_bytes if capacity is None else capacity)
        if self._capacity <= 0:
            raise ReproError(f"capacity must be positive, got {self._capacity}")
        self._live: Dict[int, Allocation] = {}
        self._in_use = 0
        self._peak = 0
        self._counter = itertools.count(1)
        self.n_allocs = 0
        self.n_frees = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def in_use(self) -> int:
        """Bytes currently allocated (after alignment rounding)."""
        return self._in_use

    @property
    def peak(self) -> int:
        """High-water mark of bytes in use."""
        return self._peak

    @property
    def free_bytes(self) -> int:
        return self._capacity - self._in_use

    def _rounded(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ReproError(f"allocation size must be non-negative, got {nbytes}")
        a = self.ALIGNMENT
        return ((int(nbytes) + a - 1) // a) * a

    def malloc(self, nbytes: int, tag: str = "") -> Allocation:
        """Allocate ``nbytes`` (rounded up to alignment)."""
        size = self._rounded(nbytes)
        if self._in_use + size > self._capacity:
            raise OutOfMemoryError(
                f"device {self.spec.name}: requested {size} B with "
                f"{self.free_bytes} B free of {self._capacity} B"
            )
        alloc = Allocation(handle=next(self._counter), nbytes=size, tag=tag)
        self._live[alloc.handle] = alloc
        self._in_use += size
        self._peak = max(self._peak, self._in_use)
        self.n_allocs += 1
        return alloc

    def free(self, alloc: Allocation) -> None:
        """Free an allocation; double frees raise."""
        if alloc.handle not in self._live:
            raise ReproError(
                f"double free or foreign allocation (handle={alloc.handle}, tag={alloc.tag!r})"
            )
        del self._live[alloc.handle]
        self._in_use -= alloc.nbytes
        self.n_frees += 1

    def reset(self) -> None:
        """Drop all allocations and statistics."""
        self._live.clear()
        self._in_use = 0
        self._peak = 0
        self.n_allocs = 0
        self.n_frees = 0
