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

The outer loop reads the data space instead: one assembly of
``V = Gp F* / sigma`` and ``H_d = F V / sigma`` (2 * nt * Nd F/F*
actions in fixed-width blocked chunks) serves both greedy sensor
placement and the exact posterior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.core.precision import PrecisionConfig
from repro.inverse.cg import CGResult, conjugate_gradient
from repro.inverse.p2o import P2OMap
from repro.inverse.prior import GaussianPrior
from repro.util.validation import ReproError

__all__ = ["MAPResult", "LinearBayesianProblem"]

#: Data-space unit vectors per assembly chunk.  Measured at (nt, Nd, Nm) =
#: (64, 24, 96), numpy, one BLAS thread: all 1536 columns in one pass
#: leave a 482 MB engine arena and a 691 MB peak RSS; 128-column chunks
#: leave 50 MB, 64-column chunks 36 MB (223 MB peak RSS, the 75 MB ``V``
#: included), at 0.7-0.8x the one-pass wall.  Every width gives a
#: bitwise-equal ``H_d``.
_ASSEMBLY_COLUMNS = 64


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

    # -- the data space (the outer loop's one assembly) ---------------------
    def data_space_assembly(
        self, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``V = Gp F* E / sigma``, (nt, Nm, nt*Nd), and the dense
        data-space Hessian ``H_d = F V / sigma``, (nt*Nd, nt*Nd).

        ``E`` is the data-space identity, so column ``j`` of ``V`` is the
        prior-smoothed adjoint response to datum ``j``.  The posterior
        reads both (:mod:`repro.inverse.posterior`); sensor placement
        reads ``H_d`` (:meth:`data_space_hessian`).

        The columns are a multi-RHS block, assembled in chunks of
        :data:`_ASSEMBLY_COLUMNS`: one blocked F* pass, one blocked prior
        solve and one blocked F pass each.  Each chunk's unit block is
        built on its own, so neither it nor the engine's arena grows
        with ``nt * Nd``.
        """
        nt, nm, nd = self.p2o.nt, self.p2o.nm, self.p2o.nd
        n = nt * nd
        V, H = np.empty((nt, nm, n)), np.empty((n, n))
        for start in range(0, n, _ASSEMBLY_COLUMNS):
            cols = np.arange(start, min(start + _ASSEMBLY_COLUMNS, n))
            E = np.zeros((nt, nd, cols.size))
            E[cols // nd, cols % nd, np.arange(cols.size)] = 1.0 / self.noise_std
            Vc = self.prior.apply_block(self.p2o.applyT_block(E, config=config))
            FV = self.p2o.apply_block(Vc, config=config)
            V[:, :, cols] = Vc
            H[:, cols] = FV.reshape(n, cols.size) / self.noise_std
        return V, H

    def data_space_hessian(
        self,
        config: Union[str, PrecisionConfig] = "ddddd",
    ) -> np.ndarray:
        """Dense H_d = Gn^{-1/2} F Gp F* Gn^{-1/2}, (nt*Nd, nt*Nd): the
        ``H_d`` half of :meth:`data_space_assembly`."""
        return self.data_space_assembly(config=config)[1]
