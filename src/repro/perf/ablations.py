"""Design-choice ablation models.

DESIGN.md calls out the engine's design decisions; this module models
the alternatives so benches can quantify each choice:

* :func:`unfused_cast_penalty` — the paper fuses precision casts into
  adjacent memory operations "to reduce kernel launch latencies
  associated with launching multiple small kernels".  The ablation
  charges each cast as a standalone kernel: one extra read+write pass
  over the vector plus a launch.
* :func:`fused_vs_unfused` — total matvec time with fused vs standalone
  casts for a configuration.

Kept by ``benchmarks/test_ablations.py``: the fused-cast design claim (Sec.
3.2).
"""

from __future__ import annotations

from typing import Union

from repro.core.precision import PHASE_NAMES, PrecisionConfig
from repro.gpu.bandwidth import kernel_time, stream_efficiency
from repro.gpu.specs import GPUSpec
from repro.perf.phase_model import phase_times
from repro.util.dtypes import Precision, complex_dtype, real_dtype

__all__ = ["cast_boundaries", "unfused_cast_penalty", "fused_vs_unfused"]


def cast_boundaries(config: Union[str, PrecisionConfig]):
    """Phase boundaries where the working precision changes.

    Returns a list of (phase_before, phase_after) pairs; the input and
    output boundaries (double <-> phase 1/5) are included when those
    phases run in single.
    """
    cfg = PrecisionConfig.parse(config)
    seq = [Precision.DOUBLE, *cfg.phases, Precision.DOUBLE]
    names = ["input", *PHASE_NAMES, "output"]
    out = []
    for i in range(len(seq) - 1):
        if seq[i] is not seq[i + 1]:
            out.append((names[i], names[i + 1]))
    return out


def _vector_bytes_at(boundary_after: str, nx_in: int, nx_out: int, nt: int,
                     prec: Precision) -> float:
    """Size of the forward matvec's vector crossing into a phase, at the
    cast target."""
    n_pad, n_freq = 2 * nt, nt + 1
    r = real_dtype(prec).itemsize
    c = complex_dtype(prec).itemsize
    sizes = {
        "pad": nt * nx_in * r,
        "fft": nx_in * n_pad * r,
        "sbgemv": n_freq * nx_in * c,
        "ifft": n_freq * nx_out * c,
        "unpad": nx_out * n_pad * r,
        "output": nt * nx_out * r,
    }
    return float(sizes[boundary_after])


def unfused_cast_penalty(
    nm: int,
    nd: int,
    nt: int,
    config: Union[str, PrecisionConfig],
    spec: GPUSpec,
) -> float:
    """Extra seconds if every precision cast of the forward matvec were a
    standalone kernel."""
    cfg = PrecisionConfig.parse(config)
    penalty = 0.0
    seq = dict(zip(["input", *PHASE_NAMES, "output"],
                   [Precision.DOUBLE, *cfg.phases, Precision.DOUBLE]))
    for _, after in cast_boundaries(cfg):
        target = seq[after]
        nbytes = _vector_bytes_at(after, nm, nd, nt, target)
        traffic = 2.0 * nbytes  # read old precision (~same size), write new
        eff = stream_efficiency(traffic, spec) * 0.9
        penalty += kernel_time(traffic, spec, eff)
    return penalty


def fused_vs_unfused(
    nm: int,
    nd: int,
    nt: int,
    config: Union[str, PrecisionConfig],
    spec: GPUSpec,
):
    """(fused_total, unfused_total, n_casts) for one forward matvec."""
    cfg = PrecisionConfig.parse(config)
    fused = sum(phase_times(nm, nd, nt, cfg, spec).values())
    casts = cast_boundaries(cfg)
    unfused = fused + unfused_cast_penalty(nm, nd, nt, cfg, spec)
    return fused, unfused, len(casts)
