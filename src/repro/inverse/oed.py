"""Optimal experimental design: greedy sensor placement (paper Remark 1).

The expected information gain (EIG) of a linear-Gaussian inverse problem
is the KL divergence from prior to posterior, which has the closed form::

    EIG = 1/2 * log det (I + H_d)

with ``H_d`` the prior-preconditioned data-space Hessian of the sensor
set.  The greedy algorithm adds, one at a time, the candidate sensor
that maximizes the EIG.

A sensor set's p2o map is a row selection of the map over all
candidates, so its ``H_d(S)`` is a principal submatrix of the
all-candidate ``H_d``.  The loop therefore assembles ``H_d`` once, from
the all-candidate kernel by time-shift invariance
(:meth:`~repro.inverse.bayes.LinearBayesianProblem.data_space_hessian`),
and scores every candidate by a Schur-complement update of the selected
set's Cholesky factor.  No F/F* action runs, so Remark 1's "thousands
of F/F* actions per decision" are zero here and the mixed-precision
matvec does not pay in this loop.  It pays online: in the MAP solves
and the posterior sampler.  ``benchmarks/test_outer_loop.py`` still
projects the paper's engine assembly (2 * Nd * Nt actions) at paper
scale.

What the exact route needs: the dense ``(nt*Nc)^2`` Hessian, i.e.
``8 (nt*Nc)^2`` bytes, and Cholesky updates of at most
``(nt*n_select)^3 / 3`` flops.  In the paper's short-and-wide regime
(Nd << Nm) the data space is the small side.

Kept by ``examples/sensor_placement.py``: paper Remark 1, the outer-loop OED
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from repro.inverse.bayes import LinearBayesianProblem
from repro.inverse.lti import LTISystem
from repro.inverse.observation import ObservationOperator
from repro.inverse.p2o import P2OMap
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


def greedy_sensor_placement(
    system: LTISystem,
    candidates: Sequence[int],
    n_select: int,
    nt: int,
    prior: GaussianPrior,
    noise_std: float,
) -> OEDResult:
    """Greedily pick ``n_select`` sensors from ``candidates`` by EIG.

    ``H_d`` over all candidates is assembled once from the kernel; row
    ``t * Nc + s`` is candidate ``s`` at time ``t``.  With ``L_S`` the
    Cholesky factor of ``I + H_S`` for the selected set ``S``, candidate
    ``c`` scores::

        X   = L_S^{-1} H_Sc
        S_c = I + H_cc - X^T X
        EIG(S + c) = log det (I + H_S) / 2 + log det S_c / 2

    and the winner's block row ``[X^T, chol(S_c)]`` is appended to
    ``L_S``.  A non-finite ``H_d`` block or a Schur complement that is
    not positive definite raises :class:`ReproError` naming the
    candidate.
    """
    check_positive_int(n_select, "n_select")
    cands = [int(c) for c in candidates]
    if len(set(cands)) != len(cands):
        raise ReproError("candidate sensor indices must be unique")
    if n_select > len(cands):
        raise ReproError(
            f"cannot select {n_select} sensors from {len(cands)} candidates"
        )
    p2o = P2OMap(system, ObservationOperator(system.n, cands), nt)
    H = LinearBayesianProblem(p2o, prior, noise_std).data_space_hessian()
    H = 0.5 * (H + H.T)
    nc = len(cands)
    rows = {c: np.arange(nt) * nc + s for s, c in enumerate(cands)}

    selected: List[int] = []
    gains: List[float] = []
    evaluations = 0
    idx_S = np.empty(0, dtype=np.intp)  # H_d rows of the selected set
    L_S = np.empty((0, 0))  # Cholesky factor of I + H_S
    logdet_S = 0.0  # log det (I + H_S) / 2
    for _ in range(n_select):
        best = None  # (gain, candidate, X, chol(S_c))
        for cand in cands:
            if cand in selected:
                continue
            idx = rows[cand]
            H_cc, H_Sc = H[np.ix_(idx, idx)], H[np.ix_(idx_S, idx)]
            if not (np.isfinite(H_cc).all() and np.isfinite(H_Sc).all()):
                raise ReproError(f"H_d of candidate sensor {cand} is not finite")
            X = solve_triangular(L_S, H_Sc, lower=True)
            try:
                L_c = np.linalg.cholesky(np.eye(nt) + H_cc - X.T @ X)
            except np.linalg.LinAlgError:
                raise ReproError(
                    f"Schur complement of candidate sensor {cand} is not "
                    "positive definite"
                ) from None
            evaluations += 1
            gain = logdet_S + float(np.sum(np.log(np.diag(L_c))))
            if best is None or gain > best[0]:
                best = (gain, cand, X, L_c)
        gain, cand, X, L_c = best
        L_S = np.block([[L_S, np.zeros((L_S.shape[0], nt))], [X.T, L_c]])
        idx_S = np.concatenate([idx_S, rows[cand]])
        logdet_S = gain
        selected.append(cand)
        gains.append(gain)

    return OEDResult(selected=selected, gains=gains, evaluations=evaluations)
