"""Exact posterior uncertainty quantification from the data space.

For the linear-Gaussian problem the posterior covariance is, by
Sherman-Morrison-Woodbury::

    Gamma_post = Gp - Gp F* (sigma^2 I + F Gp F*)^{-1} F Gp
               = Gp - V (I + H_d)^{-1} V^T

with ``V = Gp F* / sigma`` and ``H_d = F V / sigma`` — both from one
data-space assembly
(:meth:`~repro.inverse.bayes.LinearBayesianProblem.data_space_assembly`,
``2 * nt * Nd`` F/F* actions, so the precision configuration threads
through).  With ``L = chol(I + H_d)``:

* EIG = ``sum log diag L`` — the quantity the OED loop maximizes;
* pointwise variance = ``diag Gp - rowsum((V L^{-T})^2)``;
* an exact zero-mean sample is ``m - V L^{-T} L^{-1} (F m + eps) / sigma``
  with ``m ~ N(0, Gp)`` and ``eps ~ N(0, sigma^2 I)``.

What the exact route needs: a dense ``(nt*Nd)^2`` factor, i.e.
``8 (nt*Nd)^2`` bytes and ``(nt*Nd)^3 / 3`` flops, plus the
``(nt*Nm, nt*Nd)`` block ``V``.  In the paper's short-and-wide regime
(Nd << Nm) the data space is the small side.  This reproduces the UQ
workflow of the paper's references [21, 22] and the offline/online
split of its tsunami application: factor once, answer everything from
the factor.

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

__all__ = ["DataSpacePosterior"]


@dataclass
class DataSpacePosterior:
    """The exact posterior, read from one data-space assembly.

    Attributes
    ----------
    eigenvalues:
        ``eigvalsh(H_d)``, descending, length ``nt*Nd``: the nonzero
        spectrum of the prior-preconditioned data-misfit Hessian.
    V:
        ``Gp F* / sigma`` as an ``(nt*Nm, nt*Nd)`` matrix.
    L:
        Lower Cholesky factor of ``I + H_d``.
    """

    problem: LinearBayesianProblem
    eigenvalues: np.ndarray
    V: np.ndarray
    L: np.ndarray
    config: str

    @classmethod
    def compute(
        cls,
        problem: LinearBayesianProblem,
        config: Union[str, PrecisionConfig] = "ddddd",
    ) -> "DataSpacePosterior":
        """Assemble ``V`` and ``H_d`` at ``config`` and factor ``I + H_d``."""
        cfg = PrecisionConfig.parse(config)
        V, H = problem.data_space_assembly(config=cfg)
        H = 0.5 * (H + H.T)
        return cls(
            problem=problem,
            eigenvalues=np.linalg.eigvalsh(H)[::-1],
            V=V.reshape(-1, H.shape[0]),
            L=np.linalg.cholesky(np.eye(H.shape[0]) + H),
            config=str(cfg),
        )

    def information_gain(self) -> float:
        """Expected information gain 0.5 * log det (I + H_d)."""
        return float(np.sum(np.log(np.diag(self.L))))

    def pointwise_variance(self) -> np.ndarray:
        """Posterior variance field, shape (nt, nm)."""
        W = solve_triangular(self.L, self.V.T, lower=True)  # L^{-1} V^T
        prior_var = self.problem.prior.variance_diag()
        return prior_var - np.sum(W**2, axis=0).reshape(prior_var.shape)

    def sample(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw one exact zero-mean (nt, nm) posterior sample (add the MAP
        point for a full posterior draw)."""
        rng = rng if rng is not None else np.random.default_rng()
        p2o, sigma = self.problem.p2o, self.problem.noise_std
        nt, nm = p2o.nt, p2o.nm
        m = self.problem.prior.apply_sqrt_block(rng.standard_normal((nt, nm, 1)))[:, :, 0]
        d = p2o.apply(m, config=self.config) + sigma * rng.standard_normal((nt, p2o.nd))
        y = cho_solve((self.L, True), d.ravel() / sigma)
        return m - (self.V @ y).reshape(nt, nm)
