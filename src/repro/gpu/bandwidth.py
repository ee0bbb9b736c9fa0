"""Achieved-bandwidth models for memory-bound kernels.

Every phase of FFTMatvec is memory-bound (paper Section 4.1.2: every
phase's FLOPs per byte sit below each modeled GPU's machine balance, as
``tests/gpu/test_bandwidth.py`` checks), so the cost of a kernel is::

    time = launch_overhead + bytes_moved / (efficiency * peak_bandwidth)

The interesting modeling is in ``efficiency``:

* :func:`stream_efficiency` — a saturating curve for simple streaming
  kernels (pad/unpad/cast/reorder): small transfers are launch- and
  occupancy-limited, large transfers approach the STREAM fraction of peak.
* :func:`grid_efficiency` — penalizes kernels that launch many blocks
  with very little work each, the exact pathology of the original rocBLAS
  transpose SBGEMV for short-and-wide matrices (Section 3.1.1: "the
  conjugate transpose kernel launches many gridblocks that each has very
  little work").

These curves are intentionally smooth and monotone so property tests can
assert e.g. that efficiency never exceeds the STREAM fraction and
increases with work per block.
"""

from __future__ import annotations


from repro.gpu.specs import GPUSpec

__all__ = [
    "STREAM_FRACTION",
    "stream_efficiency",
    "grid_efficiency",
    "achieved_bandwidth",
    "memcpy_time",
    "kernel_time",
]

# Fraction of spec-sheet peak a perfectly coalesced streaming kernel
# achieves (STREAM triad style). Common across the modeled architectures.
STREAM_FRACTION = 0.85

# Bytes of in-flight traffic needed to reach half of the saturated
# bandwidth; models how small kernels cannot fill the memory system.
_HALF_SATURATION_BYTES = 4.0e6


def stream_efficiency(bytes_moved: float, spec: GPUSpec) -> float:
    """Efficiency (0..STREAM_FRACTION] of a streaming kernel.

    A rational saturating model: eff = F * b / (b + b_half). Monotone
    increasing in bytes, approaching the STREAM fraction from below.
    """
    if bytes_moved <= 0:
        return STREAM_FRACTION  # zero-byte kernels cost only launch overhead
    b = float(bytes_moved)
    return STREAM_FRACTION * b / (b + _HALF_SATURATION_BYTES)


# A block needs roughly this many bytes of work to hide memory latency;
# below it the SMs/CUs idle between dependent loads.
_BLOCK_WORK_HALF_BYTES = 8.0e3


def grid_efficiency(
    bytes_moved: float,
    blocks: int,
    bytes_per_block: float,
    spec: GPUSpec,
) -> float:
    """Efficiency of a kernel whose grid geometry may starve the device.

    Combines the streaming saturation with a work-per-block factor: blocks
    doing tiny dot products (the rocBLAS transpose SBGEMV pathology) reach
    only a fraction of the achievable bandwidth, no matter the total size.
    """
    base = stream_efficiency(bytes_moved, spec)
    if blocks <= 0:
        return base
    w = max(float(bytes_per_block), 0.0)
    work_factor = w / (w + _BLOCK_WORK_HALF_BYTES)
    # Even degenerate geometry keeps some floor throughput.
    return base * max(work_factor, 0.08)


def achieved_bandwidth(bytes_moved: float, spec: GPUSpec, efficiency: float) -> float:
    """Bandwidth in bytes/s actually achieved given an efficiency."""
    eff = min(max(efficiency, 1e-4), 1.0)
    return eff * spec.peak_bandwidth


def kernel_time(bytes_moved: float, spec: GPUSpec, efficiency: float) -> float:
    """Seconds for a memory-bound kernel: launch + bytes / achieved BW."""
    bw = achieved_bandwidth(bytes_moved, spec, efficiency)
    return spec.launch_overhead + float(bytes_moved) / bw


def memcpy_time(bytes_moved: float, spec: GPUSpec) -> float:
    """Device-to-device copy time (read + write traffic counted)."""
    traffic = 2.0 * float(bytes_moved)
    eff = stream_efficiency(traffic, spec)
    return kernel_time(traffic, spec, eff)
