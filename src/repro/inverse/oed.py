"""Optimal experimental design: greedy sensor placement (paper Remark 1).

The expected information gain (EIG) of a linear-Gaussian inverse problem
is the KL divergence from prior to posterior, which has the closed form::

    EIG = 1/2 * log det (I + H_d)

with ``H_d`` the prior-preconditioned data-space Hessian of the
candidate sensor set.  The greedy algorithm adds, one at a time, the
candidate sensor that maximizes the EIG — re-assembling ``H_d`` at every
evaluation, i.e. O(Nd * Nt) F/F* actions per candidate.  This is the
"outer-loop" workload where the mixed-precision matvec speedup
compounds by orders of magnitude.

Two layers of batching keep the loop off the per-column slow paths:

* every candidate Hessian is assembled through the engine's *blocked*
  pipeline (``data_space_hessian(block_k=...)`` — the columns are a
  multi-RHS block, so each chunk is one blocked F* + one blocked F pass
  instead of ``2 * nt * Nd`` single matvecs), and
* the p2o kernel rows of each sensor are computed once in a
  :class:`~repro.inverse.p2o.SensorBlockCache` and shared by every
  candidate set that contains the sensor, instead of re-running the
  impulse solves per candidate per round.

Kept by ``examples/sensor_placement.py``: paper Remark 1, the outer-loop OED
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.precision import PrecisionConfig
from repro.gpu.device import SimulatedDevice
from repro.inverse.bayes import LinearBayesianProblem
from repro.inverse.lti import LTISystem
from repro.inverse.observation import ObservationOperator
from repro.inverse.p2o import P2OMap, SensorBlockCache
from repro.inverse.prior import GaussianPrior
from repro.util.validation import ReproError, check_positive_int

__all__ = ["expected_information_gain", "greedy_sensor_placement", "OEDResult"]


def expected_information_gain(hd: np.ndarray) -> float:
    """EIG = 0.5 * log det (I + H_d) for an SPD data-space Hessian."""
    H = np.asarray(hd, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ReproError(f"H_d must be square, got {H.shape}")
    sign, logdet = np.linalg.slogdet(np.eye(H.shape[0]) + 0.5 * (H + H.T))
    if sign <= 0:
        raise ReproError("I + H_d is not positive definite")
    return 0.5 * float(logdet)


@dataclass
class OEDResult:
    """Greedy sensor-placement outcome."""

    selected: List[int]
    gains: List[float] = field(default_factory=list)  # EIG after each pick
    evaluations: int = 0  # number of candidate EIG evaluations
    matvec_count: int = 0  # logical F/F* actions (the Remark-1 cost)
    matmat_count: int = 0  # blocked pipeline passes those actions rode in


def greedy_sensor_placement(
    system: LTISystem,
    candidates: Sequence[int],
    n_select: int,
    nt: int,
    prior: GaussianPrior,
    noise_std: float,
    config: Union[str, PrecisionConfig] = "ddddd",
    device: Optional[SimulatedDevice] = None,
    block_k: Optional[int] = None,
) -> OEDResult:
    """Greedily pick ``n_select`` sensors from ``candidates`` by EIG.

    Every candidate evaluation assembles the tentative sensor set's
    data-space Hessian through the engine's blocked multi-RHS pipeline
    in the given precision configuration — the Remark-1 workflow with
    its columns batched (``block_k`` bounds the chunk width; None runs
    all ``nt * Nd`` columns in one blocked F* / F pass each).  The p2o
    kernel rows are cached per sensor and shared across the candidate
    sets of every round.  Sizes must be laptop-scale (the Hessian is
    dense ``(nt*Nd)^2``).

    ``matvec_count`` still reports logical F/F* actions (comparable
    across blocked and looped runs); ``matmat_count`` reports how many
    blocked pipeline passes actually carried them.
    """
    check_positive_int(n_select, "n_select")
    cands = [int(c) for c in candidates]
    if len(set(cands)) != len(cands):
        raise ReproError("candidate sensor indices must be unique")
    if n_select > len(cands):
        raise ReproError(
            f"cannot select {n_select} sensors from {len(cands)} candidates"
        )
    cfg = PrecisionConfig.parse(config)
    sensor_cache = SensorBlockCache(system, nt)

    selected: List[int] = []
    gains: List[float] = []
    evaluations = 0
    matvecs = 0
    matmats = 0
    remaining = list(cands)

    for _ in range(n_select):
        best_gain, best_idx = -np.inf, None
        for cand in remaining:
            trial = selected + [cand]
            obs = ObservationOperator(system.n, trial)
            p2o = P2OMap(
                system, obs, nt, device=device,
                blocks=sensor_cache.blocks(trial),
            )
            problem = LinearBayesianProblem(p2o, prior, noise_std)
            hd = problem.data_space_hessian(config=cfg, block_k=block_k)
            evaluations += 1
            matvecs += p2o.engine.matvec_count  # one F + one F* per column
            matmats += p2o.engine.matmat_count
            gain = expected_information_gain(hd)
            if gain > best_gain:
                best_gain, best_idx = gain, cand
        assert best_idx is not None
        selected.append(best_idx)
        remaining.remove(best_idx)
        gains.append(best_gain)

    return OEDResult(
        selected=selected,
        gains=gains,
        evaluations=evaluations,
        matvec_count=matvecs,
        matmat_count=matmats,
    )
