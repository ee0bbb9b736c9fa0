"""First-order error analysis of the mixed-precision matvec (paper Eq. 6).

For the F matvec on a ``pr x pc`` grid::

    ||dv5|| / ||v5|| <= kappa(F_hat) * ( c1*eps1
                         + (cF*eps_d + c2*eps2 + c4*eps4) * log2(Nt)
                         + c3*eps3*n_m + c5*eps5*log2(pc) )

where ``eps_i`` is the machine epsilon of Phase ``i``'s precision,
``n_m = ceil(Nm/pc)`` is the local parameter block (``n_d = ceil(Nd/pr)``
for F*), ``c1`` is zero when Phase 1 runs in double (a pure memory
operation commits no error in its native precision), and the ``c_i`` are
O(1) algorithm-dependent constants.

The constants here are calibrated once against measured errors from the
engine (tests assert the bound actually dominates measurements across
sizes and all 32 configurations) while keeping the *structure* exactly
as published — the structure, not the constants, is the paper's claim.
:func:`~repro.inverse.cg.conjugate_gradient` reads the bound to decide
whether a double solve may iterate on a single-precision Phase 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from repro.core.precision import PrecisionConfig
from repro.util.dtypes import Precision, machine_eps
from repro.util.validation import check_positive_int

__all__ = ["ErrorModelParams", "relative_error_bound", "phase_error_terms"]


@dataclass(frozen=True)
class ErrorModelParams:
    """Algorithm-dependent constants of Eq. (6)."""

    c_setup: float = 4.0  # cF: the double-precision setup FFT of F
    c_pad: float = 1.0  # c1 (only applied when Phase 1 is single)
    c_fft: float = 4.0  # c2
    c_sbgemv: float = 1.0  # c3 (multiplies n_m or n_d)
    c_ifft: float = 4.0  # c4
    c_reduce: float = 1.0  # c5 (multiplies log2 of the reduce width)


DEFAULT_PARAMS = ErrorModelParams()


def phase_error_terms(
    config: Union[str, PrecisionConfig],
    nt: int,
    nm: int,
    nd: int,
    pr: int = 1,
    pc: int = 1,
    adjoint: bool = False,
) -> dict:
    """Per-phase contributions to the Eq. (6) bracket (kappa excluded).

    Returns a dict keyed by phase name, so benches can show which phase
    dominates (the paper: "the dominant error term comes from the
    SBGEMV").
    """
    cfg = PrecisionConfig.parse(config)
    check_positive_int(nt, "nt")
    check_positive_int(nm, "nm")
    check_positive_int(nd, "nd")
    check_positive_int(pr, "pr")
    check_positive_int(pc, "pc")

    log_nt = math.log2(float(nt)) if nt > 1 else 1.0
    eps_d = machine_eps(Precision.DOUBLE)

    # Local SBGEMV dot length: n_m for F, n_d for F*.
    if adjoint:
        local_len = -(-nd // pr)
        reduce_width = pr
    else:
        local_len = -(-nm // pc)
        reduce_width = pc
    log_reduce = math.log2(float(reduce_width)) if reduce_width > 1 else 0.0

    e1 = machine_eps(cfg.pad)
    e2 = machine_eps(cfg.fft)
    e3 = machine_eps(cfg.sbgemv)
    e4 = machine_eps(cfg.ifft)
    e5 = machine_eps(cfg.unpad)

    params = DEFAULT_PARAMS
    c1 = 0.0 if cfg.pad is Precision.DOUBLE else params.c_pad
    # Phase 5 in single rounds the unpadded output even on one GPU (the
    # same pure-memory rounding as Phase 1), on top of the paper's
    # eps5 * log2(reduce width) accumulation term.
    c5_mem = 0.0 if cfg.unpad is Precision.DOUBLE else params.c_pad
    return {
        "setup": params.c_setup * eps_d * log_nt,
        "pad": c1 * e1,
        "fft": params.c_fft * e2 * log_nt,
        "sbgemv": params.c_sbgemv * e3 * local_len,
        "ifft": params.c_ifft * e4 * log_nt,
        "unpad": c5_mem * e5 + params.c_reduce * e5 * log_reduce,
    }


def relative_error_bound(
    config: Union[str, PrecisionConfig],
    nt: int,
    nm: int,
    nd: int,
    kappa: float = 1.0,
    adjoint: bool = False,
) -> float:
    """Evaluate Eq. (6): the relative-error bound of one configuration on
    one GPU (:func:`phase_error_terms` prices a grid).

    ``kappa`` is the condition number of F_hat
    (:meth:`BlockTriangularToeplitz.condition_number_hat`).
    """
    if kappa < 1.0:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    terms = phase_error_terms(config, nt, nm, nd, adjoint=adjoint)
    return kappa * sum(terms.values())
