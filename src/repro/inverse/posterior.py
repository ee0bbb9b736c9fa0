"""Exact posterior uncertainty quantification from the data space.

For the linear-Gaussian problem the posterior covariance is, by
Sherman-Morrison-Woodbury::

    Gamma_post = Gp - Gp F* (sigma^2 I + F Gp F*)^{-1} F Gp
               = Gp - V (I + H_d)^{-1} V^T

with ``V = Gp F* / sigma`` and ``H_d = F V / sigma``, read from one
data-space assembly with no F/F* action
(:meth:`~repro.inverse.bayes.LinearBayesianProblem.data_space_assembly`).
``V`` is never stored: its rows at time ``s`` are the held
``W = Gs C^T / sigma`` shifted right by ``s`` data time blocks.  With
``L = chol(I + H_d)``:

* EIG = ``sum log diag L`` — the quantity the OED loop maximizes;
* pointwise variance at time ``s`` = ``diag Gs - colsum(X_s^2)``,
  ``X_s = L[s*Nd:, s*Nd:]^{-1} W[:, :(nt-s)*Nd]^T``;
* an exact zero-mean sample is ``m - Gp F* L^{-T} L^{-1} (F m + eps) /
  sigma^2`` with ``m ~ N(0, Gp)`` and ``eps ~ N(0, sigma^2 I)``; its one
  F and one F* are where FFTMatvec still pays, at ``config``.

What the exact route needs: a dense ``(nt*Nd)^2`` factor, i.e.
``8 (nt*Nd)^2`` bytes and ``(nt*Nd)^3 / 3`` flops, plus the
``(Nm, nt*Nd)`` block ``W``.  In the paper's short-and-wide regime
(Nd << Nm) the data space is the small side.  This reproduces the UQ
workflow of the paper's references [21, 22] and the offline/online
split of its tsunami application: factor once from the kernel, and
spend FFTMatvec only online.

Kept by ``examples/posterior_uq.py``: the UQ workflow of the paper's
references [21, 22].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from repro.core.precision import PrecisionConfig
from repro.inverse.bayes import LinearBayesianProblem
from repro.util.validation import ReproError

__all__ = ["DataSpacePosterior"]


@dataclass
class DataSpacePosterior:
    """The exact posterior, read from one data-space assembly.

    Attributes
    ----------
    eigenvalues:
        ``eigvalsh(H_d)``, descending, length ``nt*Nd``: the nonzero
        spectrum of the prior-preconditioned data-misfit Hessian.
    W:
        ``Gs C^T / sigma``, ``(Nm, nt*Nd)``: ``V`` without its time shifts.
    L:
        Lower Cholesky factor of ``I + H_d``.
    config:
        Precision of the sampler's F and F* actions.
    """

    problem: LinearBayesianProblem
    eigenvalues: np.ndarray
    W: np.ndarray
    L: np.ndarray
    config: str

    @classmethod
    def compute(
        cls,
        problem: LinearBayesianProblem,
        config: Union[str, PrecisionConfig] = "ddddd",
    ) -> "DataSpacePosterior":
        """Assemble ``W`` and ``H_d`` and factor ``I + H_d`` (a non-finite
        or indefinite one raises :class:`ReproError`); :meth:`sample` runs
        F and F* at ``config``."""
        W, H = problem.data_space_assembly()
        if not np.isfinite(H).all():
            raise ReproError("the data-space Hessian H_d is not finite")
        H = 0.5 * (H + H.T)
        try:
            L = np.linalg.cholesky(np.eye(H.shape[0]) + H)
        except np.linalg.LinAlgError:
            raise ReproError("I + H_d is not positive definite") from None
        return cls(
            problem=problem,
            eigenvalues=np.linalg.eigvalsh(H)[::-1],
            W=W,
            L=L,
            config=str(PrecisionConfig.parse(config)),
        )

    def information_gain(self) -> float:
        """Expected information gain 0.5 * log det (I + H_d)."""
        return float(np.sum(np.log(np.diag(self.L))))

    def pointwise_variance(self) -> np.ndarray:
        """Posterior variance field, shape (nt, nm): ``V``'s rows at time
        ``s`` vanish on the first ``s`` data time blocks, so each time step
        solves against the trailing factor ``L[s*Nd:, s*Nd:]``."""
        nt, nd = self.problem.p2o.nt, self.problem.p2o.nd
        var = self.problem.prior.variance_diag()
        for s in range(nt):
            X = solve_triangular(
                self.L[s * nd:, s * nd:], self.W[:, : (nt - s) * nd].T, lower=True
            )
            var[s] -= np.sum(X**2, axis=0)
        return var

    def sample(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw one exact zero-mean (nt, nm) posterior sample (add the MAP
        point for a full posterior draw)."""
        rng = rng if rng is not None else np.random.default_rng()
        p2o, prior, sigma = self.problem.p2o, self.problem.prior, self.problem.noise_std
        m = prior.apply_sqrt_block(rng.standard_normal((p2o.nt, p2o.nm, 1)))[:, :, 0]
        d = p2o.apply(m, config=self.config) + sigma * rng.standard_normal((p2o.nt, p2o.nd))
        y = cho_solve((self.L, True), d.ravel() / sigma).reshape(p2o.nt, p2o.nd)
        Vy = prior.apply_block(p2o.applyT(y, config=self.config)[:, :, None])[:, :, 0]
        return m - Vy / sigma
