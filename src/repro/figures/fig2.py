"""Figure 2: single-GPU matvec runtime breakdown across architectures.

Nm=5000, Nd=100, Nt=1000, all-double precision, F and F* matvecs on
MI250X (single GCD), MI300X and MI355X.  Paper facts this regenerates:
SBGEMV dominates (~92%+ of the runtime), total time trends with peak
memory bandwidth, and F* matches F once the optimized transpose kernel
is in place (with F* slightly slower on MI300X).

Kept by ``benchmarks/test_fig2_breakdown.py``: paper Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.gpu.specs import GPUSpec, MI250X_GCD, MI300X, MI355X
from repro.perf.phase_model import modeled_timing
from repro.util.tables import render_table
from repro.util.timing import TimingReport

__all__ = ["figure2", "Fig2Entry", "FIG2_GPUS", "FIG2_PROBLEM"]

FIG2_GPUS: Tuple[GPUSpec, ...] = (MI250X_GCD, MI300X, MI355X)
FIG2_PROBLEM = dict(nm=5000, nd=100, nt=1000)


@dataclass(frozen=True)
class Fig2Entry:
    """One bar of the figure: a GPU x direction runtime breakdown."""

    gpu: str
    direction: str  # "F" or "F*"
    report: TimingReport

    @property
    def total_ms(self) -> float:
        return self.report.total * 1e3

    @property
    def sbgemv_fraction(self) -> float:
        return self.report.fraction("sbgemv")


def figure2(
    nm: int = FIG2_PROBLEM["nm"],
    nd: int = FIG2_PROBLEM["nd"],
    nt: int = FIG2_PROBLEM["nt"],
    gpus: Tuple[GPUSpec, ...] = FIG2_GPUS,
) -> Tuple[List[Fig2Entry], str]:
    """Model the breakdowns; returns (entries, table text)."""
    entries: List[Fig2Entry] = []
    for spec in gpus:
        for adjoint in (False, True):
            rep = modeled_timing(nm, nd, nt, "ddddd", spec, adjoint=adjoint)
            entries.append(
                Fig2Entry(
                    gpu=spec.name,
                    direction="F*" if adjoint else "F",
                    report=rep,
                )
            )

    rows = []
    for e in entries:
        r = e.report
        rows.append(
            [
                e.gpu,
                e.direction,
                f"{r.phase('pad') * 1e3:.3f}",
                f"{r.phase('fft') * 1e3:.3f}",
                f"{r.phase('sbgemv') * 1e3:.3f}",
                f"{r.phase('ifft') * 1e3:.3f}",
                f"{r.phase('unpad') * 1e3:.3f}",
                f"{e.total_ms:.3f}",
                f"{e.sbgemv_fraction * 100:.0f}%",
            ]
        )
    text = render_table(
        ["GPU", "dir", "pad", "FFT", "SBGEMV", "IFFT", "unpad", "total (ms)", "SBGEMV %"],
        rows,
        title=(
            f"Figure 2: runtime breakdown (Nm={nm}, Nd={nd}, Nt={nt}, "
            "double precision; modeled times)"
        ),
    )
    return entries, text
