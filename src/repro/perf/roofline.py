"""Roofline utilities.

The paper measures everything in bandwidth because "the entire
application is memory-bound" (Section 4.1.2).  These helpers make that
claim checkable: each phase's arithmetic intensity (FLOPs per byte of
HBM traffic) sits far below every modeled GPU's machine balance, so the
bandwidth-only cost model is justified.

Kept by ``src/repro/gpu/bandwidth.py``: the Sec. 4.1.2 memory-bound claim
that justifies that module's bandwidth-only cost model.
"""

from __future__ import annotations

import math

from repro.gpu.specs import GPUSpec
from repro.util.dtypes import Precision

__all__ = [
    "arithmetic_intensity",
    "machine_balance",
    "is_memory_bound",
    "roofline_time",
    "sbgemv_intensity",
    "fft_intensity",
]


def arithmetic_intensity(flops: float, bytes_moved: float) -> float:
    """FLOPs per byte of memory traffic."""
    if bytes_moved <= 0:
        raise ValueError(f"bytes_moved must be positive, got {bytes_moved}")
    return flops / bytes_moved


def machine_balance(spec: GPUSpec, precision: Precision) -> float:
    """FLOPs/byte at which the GPU transitions to compute-bound."""
    return spec.peak_flops[Precision.parse(precision)] / spec.peak_bandwidth


def is_memory_bound(intensity: float, spec: GPUSpec, precision: Precision) -> bool:
    """True when a kernel of this intensity is bandwidth-limited."""
    return intensity < machine_balance(spec, precision)


def roofline_time(
    flops: float, bytes_moved: float, spec: GPUSpec, precision: Precision
) -> float:
    """max(compute time, memory time) under peak rates."""
    t_mem = bytes_moved / spec.peak_bandwidth
    t_cmp = flops / spec.peak_flops[Precision.parse(precision)]
    return max(t_mem, t_cmp)


def sbgemv_intensity(m: int, n: int, itemsize: int, is_complex: bool) -> float:
    """Intensity of a batched GEMV: ~2 FLOPs (8 if complex) per element
    read once from HBM."""
    flops_per_elem = 8.0 if is_complex else 2.0
    return arithmetic_intensity(
        flops_per_elem * m * n, float(m) * n * itemsize
    )


def fft_intensity(n: int, itemsize: int) -> float:
    """Intensity of a length-n FFT: 5 n log2 n FLOPs over a few passes."""
    flops = 5.0 * n * math.log2(max(n, 2))
    passes = max(2, math.ceil(math.log2(max(n, 2)) / 4))
    return arithmetic_intensity(flops, passes * n * itemsize)
