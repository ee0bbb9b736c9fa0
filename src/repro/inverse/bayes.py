"""The linear Bayesian inverse problem (paper Section 2.2-2.3).

With Gaussian prior and noise and a linear p2o map F, the posterior is
Gaussian with::

    Gamma_post = (F* Gn^{-1} F + Gp^{-1})^{-1}
    m_map      = Gamma_post (F* Gn^{-1} d + Gp^{-1} m_prior)

:class:`LinearBayesianProblem` solves for the MAP point with matrix-free
CG on the Hessian, where each Hessian action costs one F and one F*
FFTMatvec — the operation the whole paper accelerates.  The matvec
precision configuration is a parameter, so examples can demonstrate the
end-to-end effect of the mixed-precision framework on inversion quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.precision import PrecisionConfig
from repro.inverse.cg import CGResult, conjugate_gradient
from repro.inverse.p2o import P2OMap
from repro.inverse.prior import GaussianPrior
from repro.util.validation import ReproError

__all__ = ["MAPResult", "LinearBayesianProblem"]


@dataclass
class MAPResult:
    """MAP estimate and solver diagnostics."""

    m_map: np.ndarray
    cg: CGResult
    config: str
    misfit: float  # ||F m_map - d||^2 weighted by Gn^{-1}
    reg: float  # prior term at the MAP point


class LinearBayesianProblem:
    """MAP estimation for ``d = F m + noise`` with Gaussian prior/noise.

    Parameters
    ----------
    p2o:
        The parameter-to-observable map (FFTMatvec-backed).
    prior:
        Gaussian prior over (nt, nm) source fields.
    noise_std:
        Noise standard deviation (Gamma_noise = noise_std^2 I); the
        paper's error-tolerance discussion ties the acceptable
        mixed-precision error to exactly this quantity.
    """

    def __init__(
        self, p2o: P2OMap, prior: GaussianPrior, noise_std: float
    ) -> None:
        if noise_std <= 0:
            raise ReproError(f"noise_std must be positive, got {noise_std}")
        if prior.nm != p2o.nm or prior.nt != p2o.nt:
            raise ReproError(
                f"prior is ({prior.nt},{prior.nm}) but p2o is "
                f"({p2o.nt},{p2o.nm})"
            )
        self.p2o = p2o
        self.prior = prior
        self.noise_std = float(noise_std)

    # -- operators -----------------------------------------------------------
    def rhs(
        self, d: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """F* Gn^{-1} d + Gp^{-1} m_prior."""
        return self.p2o.applyT(
            np.asarray(d, dtype=np.float64) / self.noise_std**2, config=config
        ) + self.prior.apply_inv(self.prior.mean)

    # -- MAP ----------------------------------------------------------------
    def solve_map(
        self,
        d: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        tol: float = 1e-8,
        maxiter: int = 500,
    ) -> MAPResult:
        """Solve the MAP system with CG on :meth:`hessian_operator` at
        ``config`` (at ``ddddd`` CG may iterate at ``ddsdd`` and replace
        its residual in double: :mod:`repro.inverse.cg`)."""
        cfg = PrecisionConfig.parse(config)
        result = conjugate_gradient(
            self.hessian_operator(cfg).apply,
            self.rhs(d, config=cfg),
            tol=tol,
            maxiter=maxiter,
        )
        residual = self.p2o.apply(result.x) - np.asarray(d, dtype=np.float64)
        misfit = float(np.sum(residual**2)) / self.noise_std**2
        dm = result.x - self.prior.mean
        reg = float(np.sum(dm * self.prior.apply_inv(dm)))
        return MAPResult(
            m_map=result.x, cg=result, config=str(cfg), misfit=misfit, reg=reg
        )

    # -- the Hessian ----------------------------------------------------------
    def hessian_operator(self, config: Union[str, PrecisionConfig] = "ddddd"):
        """The MAP Hessian as a composable :class:`GaussNewtonHessian`.

        Blocked actions route every F / F* through the engine's
        multi-RHS pipeline; the prior precision rides along per column.
        """
        from repro.core.operator import (
            CallableOperator,
            ForwardOperator,
            GaussNewtonHessian,
        )

        nt, nm = self.p2o.nt, self.p2o.nm
        reg = CallableOperator(
            (nt, nm), (nt, nm), self.prior.apply_inv,
            fn_adjoint=self.prior.apply_inv,
            fn_block=self.prior.apply_inv_block,
        )
        return GaussNewtonHessian(
            ForwardOperator(self.p2o.engine, config),
            noise_std=self.noise_std,
            reg=reg,
        )

    # -- data-space Hessian (the OED workhorse) -------------------------------
    def data_space_hessian(
        self,
        config: Union[str, PrecisionConfig] = "ddddd",
    ) -> np.ndarray:
        """Dense H_d = Gn^{-1/2} F Gp F* Gn^{-1/2}, (nt*Nd, nt*Nd).

        Assembled from ``nt * Nd`` F/F* actions — the O(1e5)-matvec
        workload of the paper's Remark 1 that motivates mixed precision.
        The columns are exactly a multi-RHS block, so they run through
        the engine's blocked pipeline as one blocked F* and one blocked
        F pass instead of ``2 * nt * Nd`` single matvecs, with the prior
        sandwich applied blockwise.  Laptop-scale sizes only (the result
        is dense).
        """
        nt, nd = self.p2o.nt, self.p2o.nd
        n = nt * nd
        E = np.zeros((nt, nd, n))
        for col in range(n):
            E[col // nd, col % nd, col] = 1.0 / self.noise_std
        V = self.p2o.applyT_block(E, config=config)
        V = self.prior.apply_block(V)
        W = self.p2o.apply_block(V, config=config) / self.noise_std
        return W.reshape(n, n)
