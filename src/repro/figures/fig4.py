"""Figure 4: mixed-precision matvec scaling on Frontier (8 → 4096 GPUs).

Speedups come from the scaling model at the paper's weak-scaling sizes
(Nm = 5000p, Nd = 100, Nt = 1000, MI250X GCDs, Frontier network, the
published grid-row schedule, ``dssdd`` below 512 GPUs and ``dssds`` at
512+).

Relative errors are *measured*: the SPMD engine runs every GPU count
with real per-rank numerics on a proportionally reduced local problem
(the per-rank spatial block shrinks, the rank count and grid shape are
the paper's), so the error trend — flat to 512 GPUs, rising when the
grid-row count jumps to 8 and 16 because the local SBGEMV length grows —
is produced by actual floating-point arithmetic.

Kept by ``benchmarks/test_fig4_scaling.py``: paper Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.comm.partition import published_frontier_rows
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.perf.scaling import ScalingPoint, paper_config_for, scaling_sweep
from repro.util.dtypes import fill_low_mantissa
from repro.util.tables import render_table

__all__ = ["figure4", "Fig4Row", "measured_scaling_error", "FIG4_GPU_COUNTS"]

FIG4_GPU_COUNTS: Tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
# Spatial points per GPU of the SPMD error runs (the paper's is 5000).
NM_PER_GPU_ERROR = 8


def measured_scaling_error(
    p: int,
    pr: Optional[int] = None,
    config: Optional[str] = None,
) -> float:
    """Measured relative error of the mixed config at p simulated ranks.

    Runs the real SPMD engine at a reduced local size (Nt=32, Nd=16 and
    ``NM_PER_GPU_ERROR`` spatial points per GPU instead of 5000) and
    compares the mixed configuration against the all-double run on the
    same grid.
    """
    nt, nd = 32, 16
    pr = pr if pr is not None else published_frontier_rows(p)
    config = config if config is not None else paper_config_for(p)
    pc = p // pr
    nm_global = NM_PER_GPU_ERROR * p
    rng = np.random.default_rng(0)
    matrix = BlockTriangularToeplitz.random(nt, nd, nm_global, rng=rng, decay=0.05)
    grid = ProcessGrid(pr, pc, net=FRONTIER_NETWORK)
    engine = ParallelFFTMatvec(matrix, grid)
    m = fill_low_mantissa(rng.standard_normal((nt, nm_global)))
    ref = engine.matvec(m, config="ddddd")
    out = engine.matvec(m, config=config)
    return float(np.linalg.norm(out - ref) / np.linalg.norm(ref))


@dataclass(frozen=True)
class Fig4Row:
    point: ScalingPoint
    measured_error: Optional[float]


def figure4(max_error_ranks: int = 4096) -> Tuple[List[Fig4Row], str]:
    """Returns (rows, table text) of the scaling sweep.

    ``max_error_ranks`` caps the SPMD error measurements (each GPU count
    runs p real ranks in-process; 4096 takes a couple of minutes).
    """
    points = scaling_sweep(FIG4_GPU_COUNTS)
    rows: List[Fig4Row] = []
    for pt in points:
        err = None
        if pt.p <= max_error_ranks:
            err = measured_scaling_error(pt.p, pr=pt.pr, config=pt.config)
        rows.append(Fig4Row(point=pt, measured_error=err))

    table = [
        [
            r.point.p,
            f"{r.point.pr}x{r.point.pc}",
            r.point.config,
            f"{r.point.time_double * 1e3:.2f}",
            f"{r.point.time_mixed * 1e3:.2f}",
            f"{r.point.speedup:.3f}",
            f"{r.measured_error:.2e}" if r.measured_error is not None else "-",
        ]
        for r in rows
    ]
    text = render_table(
        ["GPUs", "grid", "config", "double (ms)", "mixed (ms)", "speedup", "rel err (measured)"],
        table,
        title=(
            "Figure 4: mixed-precision scaling, weak scaling Nm=5000p "
            "(times modeled at paper scale; errors measured via SPMD runs "
            f"at {NM_PER_GPU_ERROR} spatial points per GPU)"
        ),
    )
    from repro.figures.plot import line_chart

    text += "\n\n" + line_chart(
        [r.point.p for r in rows],
        [r.point.speedup for r in rows],
        title="speedup vs GPUs (paper: ~1.6 declining to ~1.2-1.3)",
        height=8,
    )
    measured = [(r.point.p, r.measured_error) for r in rows if r.measured_error]
    if measured:
        text += "\n\n" + line_chart(
            [p for p, _ in measured],
            [e for _, e in measured],
            title="measured relative error vs GPUs (log scale; paper: <1e-6, rising past 512)",
            height=6,
            logy=True,
        )
    return rows, text
