"""GPU architecture registry.

Numbers are public spec-sheet values for the parts the paper uses
(Section 4: peak memory bandwidths 1.6 / 5.3 / 8 TB/s for MI250X GCD /
MI300X / MI355X; memory capacities 64 / 192 / 288 GB).  FLOP peaks are
included only to check that FFTMatvec is entirely memory-bound
(``tests/gpu/test_bandwidth.py``).

The ``sbgemv_peak_fraction`` fields encode the paper's measured
achieved-bandwidth fractions for the (well-tuned) SBGEMV kernels:
~70% of peak on CDNA2/CDNA3, ~35% on CDNA4 where rocBLAS kernel
parameters had not yet been retuned (Section 4.1.2), and a reduced
single-precision fraction on CDNA4 explaining the smaller mixed-precision
speedup observed there (Section 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.util.dtypes import Precision
from repro.util.validation import ReproError

__all__ = ["GPUSpec", "get_gpu", "MI250X_GCD", "MI300X", "MI355X"]


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU architecture used by the cost models.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"MI300X"``.
    vendor:
        ``"AMD"`` or ``"NVIDIA"`` (drives the hipify build-system toggle).
    arch:
        Compiler arch string (``gfx90a``, ``gfx942``, ``gfx950``, ``sm_80``...).
    generation:
        Microarchitecture family, e.g. ``"CDNA2"``.
    peak_bandwidth:
        Peak HBM bandwidth in bytes/s.
    memory_bytes:
        HBM capacity in bytes.
    peak_flops:
        Peak vector FLOP/s per precision.
    launch_overhead:
        Fixed per-kernel-launch cost in seconds.
    max_grid:
        Maximum grid dimensions (x, y, z).  The y/z limit of 65535 is what
        the paper's custom permutation kernel has to avoid overflowing.
    wavefront:
        Threads per wavefront/warp (64 on CDNA, 32 on NVIDIA).
    lds_bytes:
        Shared-memory (LDS) bytes per CU; CDNA4 doubles it (Section 4.1.2
        notes the increased LDS capacity of MI355X).
    sbgemv_peak_fraction:
        Fraction of peak bandwidth the tuned SBGEMV kernels achieve, per
        precision — the architecture-level calibration knob.
    gemv_n_peak_fraction:
        Optional override for the *non-transpose* GEMV kernel (defaults
        to ``sbgemv_peak_fraction``).  MI300X's non-transpose kernel is
        "extremely well-tuned ... for this problem size" (Section 4.1.2),
        which is why F runs slightly faster than F* there.
    """

    name: str
    vendor: str
    arch: str
    generation: str
    peak_bandwidth: float
    memory_bytes: float
    peak_flops: Dict[Precision, float] = field(default_factory=dict)
    launch_overhead: float = 4.0e-6
    max_grid: Tuple[int, int, int] = (2**31 - 1, 65535, 65535)
    wavefront: int = 64
    lds_bytes: int = 64 * 1024
    sbgemv_peak_fraction: Dict[Precision, float] = field(default_factory=dict)
    gemv_n_peak_fraction: Dict[Precision, float] = field(default_factory=dict)

    def peak_fraction(self, prec: Precision) -> float:
        """Tuned-kernel achieved fraction of peak bandwidth for ``prec``."""
        return self.sbgemv_peak_fraction.get(Precision.parse(prec), 0.7)

    def gemv_n_fraction(self, prec: Precision) -> float:
        """Non-transpose GEMV fraction (falls back to the SBGEMV one)."""
        prec = Precision.parse(prec)
        return self.gemv_n_peak_fraction.get(prec, self.peak_fraction(prec))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.vendor} {self.name} ({self.arch})"


MI250X_GCD = GPUSpec(
    name="MI250X (Single GCD)",
    vendor="AMD",
    arch="gfx90a",
    generation="CDNA2",
    peak_bandwidth=1.6e12,
    memory_bytes=64e9,
    peak_flops={Precision.DOUBLE: 23.9e12, Precision.SINGLE: 23.9e12},
    launch_overhead=5.0e-6,
    wavefront=64,
    lds_bytes=64 * 1024,
    sbgemv_peak_fraction={Precision.DOUBLE: 0.70, Precision.SINGLE: 0.66},
)

MI300X = GPUSpec(
    name="MI300X",
    vendor="AMD",
    arch="gfx942",
    generation="CDNA3",
    peak_bandwidth=5.3e12,
    memory_bytes=192e9,
    peak_flops={Precision.DOUBLE: 81.7e12, Precision.SINGLE: 163.4e12},
    launch_overhead=4.0e-6,
    wavefront=64,
    lds_bytes=64 * 1024,
    sbgemv_peak_fraction={Precision.DOUBLE: 0.70, Precision.SINGLE: 0.64},
    # Section 4.1.2: the non-transpose GEMV is exceptionally well-tuned
    # on CDNA3 for the FFTMatvec shape, making F faster than F*.
    gemv_n_peak_fraction={Precision.DOUBLE: 0.77, Precision.SINGLE: 0.70},
)

MI355X = GPUSpec(
    name="MI355X",
    vendor="AMD",
    arch="gfx950",
    generation="CDNA4",
    peak_bandwidth=8.0e12,
    memory_bytes=288e9,
    peak_flops={Precision.DOUBLE: 78.6e12, Precision.SINGLE: 157.3e12},
    launch_overhead=4.0e-6,
    wavefront=64,
    lds_bytes=160 * 1024,
    # rocBLAS kernels not yet tuned for CDNA4 (Section 4.1.2): the paper
    # reports roughly half the CDNA2/3 fraction of peak, with single
    # precision hit hardest — which is why MI355X shows only a ~40%
    # mixed-precision speedup (vs 70-95% elsewhere) while still edging
    # out MI300X in absolute time per the Fig. 2 bandwidth trend.
    sbgemv_peak_fraction={Precision.DOUBLE: 0.50, Precision.SINGLE: 0.33},
)

A100 = GPUSpec(
    name="A100-SXM4-80GB",
    vendor="NVIDIA",
    arch="sm_80",
    generation="Ampere",
    peak_bandwidth=2.0e12,
    memory_bytes=80e9,
    peak_flops={Precision.DOUBLE: 9.7e12, Precision.SINGLE: 19.5e12},
    launch_overhead=3.5e-6,
    wavefront=32,
    lds_bytes=164 * 1024,
    sbgemv_peak_fraction={Precision.DOUBLE: 0.72, Precision.SINGLE: 0.70},
)

H100 = GPUSpec(
    name="H100-SXM5",
    vendor="NVIDIA",
    arch="sm_90",
    generation="Hopper",
    peak_bandwidth=3.35e12,
    memory_bytes=80e9,
    peak_flops={Precision.DOUBLE: 33.5e12, Precision.SINGLE: 66.9e12},
    launch_overhead=3.0e-6,
    wavefront=32,
    lds_bytes=228 * 1024,
    sbgemv_peak_fraction={Precision.DOUBLE: 0.72, Precision.SINGLE: 0.70},
)

_REGISTRY: Dict[str, GPUSpec] = {}


def _register(spec: GPUSpec, *aliases: str) -> None:
    keys = {spec.name.lower(), spec.arch.lower(), *(a.lower() for a in aliases)}
    for k in keys:
        _REGISTRY[k] = spec


_register(MI250X_GCD, "mi250x", "mi250x-gcd", "frontier")
_register(MI300X, "mi300x")
_register(MI355X, "mi355x")
_register(A100, "a100")
_register(H100, "h100")


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU spec by name/arch/alias (case-insensitive)."""
    key = str(name).strip().lower()
    if key not in _REGISTRY:
        known = sorted({s.name for s in _REGISTRY.values()})
        raise ReproError(f"unknown GPU {name!r}; known: {known}")
    return _REGISTRY[key]
