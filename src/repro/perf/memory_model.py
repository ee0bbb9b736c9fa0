"""Device-memory footprint model for FFTMatvec.

Answers the sizing questions in the paper's Section 4.2.2: the dominant
allocation is the precomputed spectrum ``F_hat`` (``(Nt+1) x Nd x Nm``),
held at each tier a configuration runs the SBGEMV in — complex doubles,
and complex singles plus the contiguous transpose the single adjoint GEMM
reads — followed by the padded vector workspaces.  No conjugate is held:
the adjoint conjugates its panel instead.  The paper notes the
1B-parameter inverse problem of [21] used 512 80-GB GPUs, equivalent to
640 64-GB MI250X GCDs, and that MI300X/MI355X's larger memories let the
same problem fit on fewer devices.

Kept by ``benchmarks/test_outer_loop.py``: the Sec. 4.2.2 sizing claim (640
MI250X GCDs for the 1B-parameter problem).  At the engine's 32 bytes per
spectrum element for ``ddddd`` + ``dssdd`` the model answers 512 MI250X
GCDs and 128 MI300X.
"""

from __future__ import annotations

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


def matvec_memory(
    nm: int,
    nd: int,
    nt: int,
    configs: Union[str, PrecisionConfig, Iterable],
) -> MatvecMemoryFootprint:
    """Footprint of an engine serving the given configuration(s).

    ``configs`` may be one configuration or an iterable.  The engine
    builds a tier when a served configuration first runs the SBGEMV in
    it: ``fhat_double`` is the complex128 spectrum when some
    configuration runs it in double, ``fhat_single`` the complex64
    spectrum and its contiguous transpose when some configuration runs
    it in single (zero otherwise).
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

    tiers = {cfg.sbgemv for cfg in cfgs}
    fhat_d = n_freq * nd * nm * z if Precision.DOUBLE in tiers else 0
    fhat_s = 2 * n_freq * nd * nm * c if Precision.SINGLE in tiers else 0

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


def min_gpus_for_problem(nm_global: int, nd: int, nt: int, spec: GPUSpec) -> int:
    """Smallest GPU count whose aggregate memory holds the problem.

    Each of ``p`` ranks (a ``1 x p`` grid) stores its ``Nd x (Nm/p)``
    sub-block spectrum plus the workspaces of an engine serving
    ``ddddd`` and ``dssdd``; 10 % of device memory is headroom for the
    runtime.
    """
    check_positive_int(nm_global, "nm_global")
    budget = spec.memory_bytes * 0.9
    p = 1
    while True:
        nm_local = -(-nm_global // p)
        fp = matvec_memory(nm_local, nd, nt, ("ddddd", "dssdd"))
        if fp.total <= budget:
            return p
        p *= 2
        if p > 1 << 24:  # pragma: no cover - guard against bad inputs
            raise RuntimeError("problem does not fit on any sane GPU count")
