"""Figure 3: double vs optimal mixed-precision runtime (Pareto optimum).

Two halves, as in the paper's workflow:

* **Times at paper scale** (Nm=5000, Nd=100, Nt=1000) come from the
  phase model: baseline ``ddddd`` vs the tolerance-1e-7 optimum
  (``dssdd`` for F; SBGEMV+IFFT single for F*) per architecture.
* **Errors and the Pareto selection** come from a *real* numeric sweep
  of all 32 configurations on a reduced-size engine (the error is a
  property of the configuration and the conditioning, not of the
  problem scale).

**The published 1e-7 selection sits on the boundary at reduced size.**
With a single-precision FFT tier that really computes in single
(``scipy.fft`` on the numpy backend — ``np.fft.rfft`` of float32 input
computes in double), ``dssdd``'s measured error over seeds 0-7 is
0.97e-7 to 1.14e-7: it straddles the paper's 1e-7 tolerance, and a
sweep at exactly 1e-7 selects ``ddsdd`` on six of the eight seeds.
What does hold for every seed, and what the tests gate on, is:
``dssdd``'s error stays below single precision's unit roundoff
``2^-23 ~ 1.19e-7``, it is the selected optimum at that tolerance, and
nothing at least as accurate is faster by more than the selection
rule's 2 % tie band.  For F*, ``ddssd`` (8.7e-8 to 9.1e-8) is selected
at 1e-7 on every seed.  The figure reports the band; sizes and seeds
are not tuned to hide it.

Kept by ``benchmarks/test_fig3_pareto.py``: paper Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.matvec import FFTMatvec
from repro.core.pareto import ParetoPoint, optimal_config, pareto_front, sweep_configs
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import MI250X_GCD, MI300X, MI355X
from repro.perf.phase_model import modeled_timing
from repro.util.dtypes import Precision, machine_eps
from repro.util.tables import render_table

__all__ = [
    "figure3",
    "Fig3Entry",
    "SeedBand",
    "seed_band",
    "PAPER_OPTIMAL_F",
    "PAPER_OPTIMAL_ADJ",
    "SINGLE_ROUNDOFF",
]

# Paper Section 4.2.1 / artifact appendix.
PAPER_OPTIMAL_F = "dssdd"
PAPER_OPTIMAL_ADJ = "ddssd"
TOLERANCE = 1e-7
# (Nm, Nd, Nt) the times are modeled at: the paper's problem.
PAPER_PROBLEM = (5000, 100, 1000)
# 2^-23: the tolerance a configuration with single-precision compute
# phases can honestly be held to at any size.
SINGLE_ROUNDOFF = machine_eps(Precision.SINGLE)
SEEDS = tuple(range(8))
# Relative time difference the selection rule treats as a tie.
TIE_BAND = 0.02


@dataclass(frozen=True)
class Fig3Entry:
    gpu: str
    direction: str
    baseline_ms: float
    mixed_ms: float
    config: str
    error_range: Tuple[float, float]  # (min, max) over SEEDS

    @property
    def measured_error(self) -> float:
        """Worst measured error of ``config`` over the seeds."""
        return self.error_range[1]

    @property
    def speedup(self) -> float:
        return self.baseline_ms / self.mixed_ms


@dataclass(frozen=True)
class SeedBand:
    """One published optimum across the reduced-size sweeps of SEEDS."""

    config: str
    errors: Tuple[float, ...]  # measured error of ``config``, per seed
    selected: Tuple[str, ...]  # each sweep's optimum at the tolerance
    selected_at_roundoff: Tuple[str, ...]  # ... at SINGLE_ROUNDOFF
    within_tie_band_of_front: bool  # see seed_band

    @property
    def error_range(self) -> Tuple[float, float]:
        return min(self.errors), max(self.errors)


def measured_sweep(adjoint: bool = False, seed: int = 0) -> List[ParetoPoint]:
    """Numeric 32-config sweep on a reduced-size engine (Nt=48, Nd=6,
    Nm=64 on an MI300X).

    Each point's time comes from the phase model at the paper's Nm=5000,
    Nd=100, Nt=1000 — the configuration selection then reflects the
    paper's phase weights while errors stay measured.
    """
    rng = np.random.default_rng(seed)
    matrix = BlockTriangularToeplitz.random(48, 6, 64, rng=rng, decay=0.08)
    engine = FFTMatvec(matrix, device=SimulatedDevice(MI300X))
    time_model = lambda cfg: modeled_timing(  # noqa: E731
        *PAPER_PROBLEM, cfg, MI300X, adjoint=adjoint
    ).total
    return sweep_configs(engine, adjoint=adjoint, rng=rng, time_model=time_model)


def seed_band(adjoint: bool = False) -> SeedBand:
    """Sweep every seed of SEEDS and follow the published optimum.

    ``within_tie_band_of_front`` is Pareto-front membership under the
    selection rule's own notion of a tie: for every seed, no
    configuration is at least as accurate *and* faster by more than
    ``TIE_BAND``.  (Strict membership fails by construction:
    the input is double, so ``s`` and ``d`` pads feeding a single FFT
    give the same bits, and ``sssdd`` — 0.8 % faster on paper —
    shadows ``dssdd`` on the strict front.)
    """
    cfg = PAPER_OPTIMAL_ADJ if adjoint else PAPER_OPTIMAL_F
    errors, selected, at_roundoff, on_front = [], [], [], True
    for seed in SEEDS:
        points = measured_sweep(adjoint=adjoint, seed=seed)
        mine = next(p for p in points if str(p.config) == cfg)
        errors.append(mine.error)
        selected.append(str(optimal_config(points, TOLERANCE, TIE_BAND).config))
        at_roundoff.append(str(optimal_config(points, SINGLE_ROUNDOFF, TIE_BAND).config))
        on_front = on_front and not any(
            p.error <= mine.error and p.time * (1.0 + TIE_BAND) < mine.time
            for p in points
        )
    return SeedBand(cfg, tuple(errors), tuple(selected), tuple(at_roundoff), on_front)


def figure3() -> Tuple[List[Fig3Entry], str]:
    """Returns (entries, table text) for both matvec directions."""
    nm, nd, nt = PAPER_PROBLEM
    tolerance = TOLERANCE
    entries: List[Fig3Entry] = []
    # Numeric sweeps per direction for the measured error of the
    # published optimum (error is architecture-independent).
    bands = {adjoint: seed_band(adjoint) for adjoint in (False, True)}

    for spec in (MI250X_GCD, MI300X, MI355X):
        for adjoint, cfg in ((False, PAPER_OPTIMAL_F), (True, PAPER_OPTIMAL_ADJ)):
            base = modeled_timing(nm, nd, nt, "ddddd", spec, adjoint=adjoint)
            mixed = modeled_timing(nm, nd, nt, cfg, spec, adjoint=adjoint)
            entries.append(
                Fig3Entry(
                    gpu=spec.name,
                    direction="F*" if adjoint else "F",
                    baseline_ms=base.total * 1e3,
                    mixed_ms=mixed.total * 1e3,
                    config=cfg,
                    error_range=bands[adjoint].error_range,
                )
            )

    rows = [
        [
            e.gpu,
            e.direction,
            e.config,
            f"{e.baseline_ms:.3f}",
            f"{e.mixed_ms:.3f}",
            f"{(e.speedup - 1) * 100:.0f}%",
            f"{e.error_range[0]:.2e} .. {e.error_range[1]:.2e}",
        ]
        for e in entries
    ]
    text = render_table(
        ["GPU", "dir", "config", "double (ms)", "mixed (ms)", "speedup", "rel err (measured)"],
        rows,
        title=(
            f"Figure 3: optimal mixed-precision configuration at tolerance "
            f"{tolerance:g} (times modeled at Nm={nm}, Nd={nd}, Nt={nt}; "
            f"errors measured numerically at reduced size, seeds "
            f"{SEEDS[0]}-{SEEDS[-1]})"
        ),
    )
    notes = []
    for adjoint, band in bands.items():
        wins = sum(sel == band.config for sel in band.selected)
        others = sorted(set(band.selected) - {band.config})
        notes.append(
            f"{'F*' if adjoint else 'F '} {band.config}: selected at {tolerance:g} on "
            f"{wins} of {len(SEEDS)} seeds"
            + (f" (else {', '.join(others)})" if others else "")
            + f"; at 2^-23 = {SINGLE_ROUNDOFF:.3g} on "
            f"{sum(sel == band.config for sel in band.selected_at_roundoff)} of {len(SEEDS)}"
        )
    return entries, text + "\n" + "\n".join(notes)
