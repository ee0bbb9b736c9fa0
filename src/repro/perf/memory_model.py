"""Device-memory footprint model for FFTMatvec.

Answers the sizing questions in the paper's Section 4.2.2: the dominant
allocation is the precomputed spectrum ``F_hat`` (``(Nt+1) x Nd x Nm``
complex doubles, plus a complex-single copy when any configuration runs
the SBGEMV in single), followed by the padded vector workspaces.  The
paper notes the 1B-parameter inverse problem of [21] used 512 80-GB
GPUs, equivalent to 640 64-GB MI250X GCDs, and that MI300X/MI355X's
larger memories let the same problem fit on fewer devices.

Kept by ``benchmarks/test_outer_loop.py``: the Sec. 4.2.2 sizing claim (640
MI250X GCDs for the 1B-parameter problem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from repro.core.precision import PrecisionConfig
from repro.gpu.specs import GPUSpec
from repro.util.dtypes import Precision, complex_dtype, real_dtype
from repro.util.validation import check_positive_int

__all__ = ["MatvecMemoryFootprint", "matvec_memory", "min_gpus_for_problem"]


@dataclass(frozen=True)
class MatvecMemoryFootprint:
    """Bytes by category for one rank's engine."""

    fhat_double: int
    fhat_single: int
    vector_workspaces: int

    @property
    def total(self) -> int:
        return self.fhat_double + self.fhat_single + self.vector_workspaces

    def fits(self, spec: GPUSpec) -> bool:
        """Whether the footprint fits in the device's HBM."""
        return self.total <= spec.memory_bytes


def matvec_memory(
    nm: int,
    nd: int,
    nt: int,
    configs: Union[str, PrecisionConfig, Iterable] = "ddddd",
) -> MatvecMemoryFootprint:
    """Footprint of an engine serving the given configuration(s).

    ``configs`` may be one configuration or an iterable (the dynamic
    framework keeps a single-precision ``F_hat`` copy cached as soon as
    any served configuration runs the SBGEMV in single).
    """
    check_positive_int(nm, "nm")
    check_positive_int(nd, "nd")
    check_positive_int(nt, "nt")
    if isinstance(configs, (str, PrecisionConfig)):
        configs = [configs]
    cfgs = [PrecisionConfig.parse(c) for c in configs]

    n_freq, n_pad = nt + 1, 2 * nt
    z = complex_dtype(Precision.DOUBLE).itemsize
    c = complex_dtype(Precision.SINGLE).itemsize

    fhat_d = n_freq * nd * nm * z
    needs_single = any(cfg.sbgemv is Precision.SINGLE for cfg in cfgs)
    fhat_s = n_freq * nd * nm * c if needs_single else 0

    # Workspaces at the widest precision any config touches them with:
    # padded input (nx_in x 2Nt real), its spectrum (nx_in x (Nt+1)
    # complex), the output spectrum and padded output — for the larger
    # (parameter) side, double-buffered forward/adjoint use.
    r8 = real_dtype(Precision.DOUBLE).itemsize
    nx = max(nm, nd)
    workspaces = nx * n_pad * r8 + 2 * nx * n_freq * z + nx * n_pad * r8
    return MatvecMemoryFootprint(
        fhat_double=fhat_d, fhat_single=fhat_s, vector_workspaces=workspaces
    )


def min_gpus_for_problem(
    nm_global: int,
    nd: int,
    nt: int,
    spec: GPUSpec,
    configs: Union[str, Iterable] = ("ddddd", "dssdd"),
    pr: int = 1,
    utilization: float = 0.9,
) -> int:
    """Smallest GPU count whose aggregate memory holds the problem.

    Each of ``p`` ranks (grid ``pr x p/pr``) stores its
    ``(Nd/pr) x (Nm/pc)`` sub-block spectrum plus workspaces;
    ``utilization`` reserves headroom for the runtime.
    """
    check_positive_int(nm_global, "nm_global")
    if not (0 < utilization <= 1):
        raise ValueError(f"utilization must be in (0,1], got {utilization}")
    budget = spec.memory_bytes * utilization
    p = pr
    while True:
        pc = max(1, p // pr)
        nm_local = -(-nm_global // pc)
        nd_local = max(1, -(-nd // pr))
        fp = matvec_memory(nm_local, nd_local, nt, configs=configs)
        if fp.total <= budget:
            return p
        p *= 2
        if p > 1 << 24:  # pragma: no cover - guard against bad inputs
            raise RuntimeError("problem does not fit on any sane GPU count")
