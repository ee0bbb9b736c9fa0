"""Pareto-front analysis over the 32 mixed-precision configurations.

The paper's workflow (Section 3.2 / artifact appendix): run the baseline
double-precision matvec, run every mixed-precision configuration,
measure each configuration's (time, relative-error-vs-double) point,
compute the Pareto front, and pick the fastest configuration whose error
stays below the application's tolerance (10^-7 in Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.matvec import FFTMatvec
from repro.core.precision import PrecisionConfig
from repro.util.dtypes import fill_low_mantissa
from repro.util.tables import render_table
from repro.util.validation import ReproError

__all__ = ["ParetoPoint", "sweep_configs", "pareto_front", "optimal_config", "pareto_table"]


@dataclass(frozen=True)
class ParetoPoint:
    """One configuration's measured (time, error) with derived speedup."""

    config: PrecisionConfig
    time: float
    error: float
    speedup: float  # vs the all-double baseline


def sweep_configs(
    engine: FFTMatvec,
    adjoint: bool = False,
    rng: Optional[np.random.Generator] = None,
    time_model: Optional[Callable[[PrecisionConfig], float]] = None,
) -> List[ParetoPoint]:
    """Measure (time, relative error) for all 32 configurations.

    The input is random with its mantissas filled below the float32
    field (paper Section 4.2.1's initialization) so single-precision
    memory phases commit genuine error.

    Time per configuration comes from ``time_model(config)`` when given —
    typically :func:`repro.perf.phase_model.modeled_timing` at the paper's
    problem size, so the *selection* reflects paper-scale phase weights
    while the *errors* are real numerics at the engine's size — else from
    the engine's simulated device clock.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    shape = (engine.nt, engine.nd) if adjoint else (engine.nt, engine.nm)
    m = fill_low_mantissa(rng.standard_normal(shape))
    if engine.device is None and time_model is None:
        raise ReproError(
            "sweep_configs needs an engine with a simulated device or a time_model"
        )

    op: Callable = engine.rmatvec if adjoint else engine.matvec

    def time_of(cfg: PrecisionConfig) -> float:
        if time_model is not None:
            return float(time_model(cfg))
        assert engine.last_timing is not None
        return engine.last_timing.total

    baseline_out = op(m, config="ddddd")
    baseline_time = time_of(PrecisionConfig.all_double())
    base_norm = float(np.linalg.norm(baseline_out))

    points: List[ParetoPoint] = []
    for cfg in PrecisionConfig.all_configs():
        out = op(m, config=cfg)
        t = time_of(cfg)
        if base_norm == 0.0:
            err = float(np.linalg.norm(out - baseline_out))
        else:
            err = float(np.linalg.norm(out - baseline_out)) / base_norm
        points.append(
            ParetoPoint(
                config=cfg, time=t, error=err, speedup=baseline_time / t
            )
        )
    return points


def pareto_front(points: Sequence[ParetoPoint]) -> List[ParetoPoint]:
    """Non-dominated subset: no other point is both faster and more accurate.

    Returned sorted by time ascending (error then descends along the
    front).  Ties are kept only once (first by config string).
    """
    pts = sorted(points, key=lambda p: (p.time, p.error, str(p.config)))
    front: List[ParetoPoint] = []
    best_err = float("inf")
    for p in pts:
        if p.error < best_err:
            front.append(p)
            best_err = p.error
    return sorted(front, key=lambda p: p.time)


def optimal_config(
    points: Sequence[ParetoPoint],
    tolerance: float,
    negligible_speedup: float = 0.02,
) -> ParetoPoint:
    """Fastest configuration with error below the tolerance.

    The paper's selection rule: "for a set error tolerance, choose the
    precision configuration that gives the greatest performance
    improvement while keeping the error below that tolerance" — with its
    Section 4.2.1 refinement that lowering the precision of cheap phases
    is not worth it: "the contribution to overall speedup is negligible
    [while] such computations incur additional error".  Concretely, all
    eligible configurations within ``negligible_speedup`` (relative) of
    the fastest are treated as time-equivalent and the most accurate of
    them wins.
    """
    eligible = [p for p in points if p.error <= tolerance]
    if not eligible:
        raise ReproError(
            f"no configuration satisfies tolerance {tolerance:g}; "
            f"smallest error is {min(p.error for p in points):g}"
        )
    fastest = min(p.time for p in eligible)
    near_fastest = [
        p for p in eligible if p.time <= fastest * (1.0 + negligible_speedup)
    ]
    # Among time-equivalent configurations, keep every phase that doesn't
    # buy speed in double (fewest single phases), then break residual
    # ties by measured error.
    return min(
        near_fastest,
        key=lambda p: (p.config.n_single, p.error, p.time, str(p.config)),
    )


def pareto_table(points: Sequence[ParetoPoint], tolerance: Optional[float] = None) -> str:
    """Human-readable sweep summary, front members marked with '*'."""
    front = {str(p.config) for p in pareto_front(points)}
    rows = []
    for p in sorted(points, key=lambda q: q.time):
        marks = "*" if str(p.config) in front else ""
        if tolerance is not None and p.error <= tolerance:
            marks += " ok"
        rows.append(
            [
                str(p.config),
                f"{p.time * 1e3:.4f}",
                f"{p.speedup:.2f}x",
                f"{p.error:.3e}",
                marks,
            ]
        )
    title = "Mixed-precision sweep"
    if tolerance is not None:
        title += f" (tolerance {tolerance:g})"
    return render_table(
        ["config", "time (ms)", "speedup", "rel. error", "front"], rows, title=title
    )
