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

The outer loop reads the data space instead: one assembly of ``H_d``
from the held kernel, with no F/F* action
(:meth:`~LinearBayesianProblem.data_space_assembly`), serves both greedy
sensor placement and the exact posterior.
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
        ) + self.prior.apply_inv_block(self.prior.mean[:, :, None])[:, :, 0]

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
        reg = float(np.sum(dm * self.prior.apply_inv_block(dm[:, :, None])[:, :, 0]))
        return MAPResult(
            m_map=result.x, cg=result, config=str(cfg), misfit=misfit, reg=reg
        )

    # -- the Hessian ----------------------------------------------------------
    def hessian_operator(self, config: Union[str, PrecisionConfig] = "ddddd"):
        """The MAP Hessian as a composable :class:`GaussNewtonHessian`.

        Blocked actions route every F / F* through the engine's
        multi-RHS pipeline; the prior precision acts on the whole block in
        one sparse product.
        """
        from repro.core.operator import (
            CallableOperator,
            ForwardOperator,
            GaussNewtonHessian,
        )

        nt, nm = self.p2o.nt, self.p2o.nm
        reg = CallableOperator(
            (nt, nm), (nt, nm), self.prior.apply_inv_block,
            fn_adjoint=self.prior.apply_inv_block,
        )
        return GaussNewtonHessian(
            ForwardOperator(self.p2o.engine, config),
            noise_std=self.noise_std,
            reg=reg,
        )

    # -- the data space (the outer loop's one assembly) ---------------------
    def data_space_assembly(self) -> Tuple[np.ndarray, np.ndarray]:
        """``W = Gs C^T / sigma``, (Nm, nt*Nd), and the dense data-space
        Hessian ``H_d = F Gp F* / sigma^2``, (nt*Nd, nt*Nd), from the kernel
        ``C`` (the p2o blocks stacked to (nt*Nd, Nm)) with no F/F* action.

        F is block lower-triangular Toeplitz and ``Gp = I_nt (x) Gs``, so
        ``H_d[i, j] = H_d[i-1, j-1] + F_i Gs F_j^T / sigma^2``: one GEMM and
        a prefix sum along the block diagonals.  ``V = Gp F* / sigma`` is
        never formed: its column ``(j, d)`` at time ``s`` is ``W``'s
        column ``(j - s, d)``.
        """
        nt, nd = self.p2o.nt, self.p2o.nd
        blocks = self.p2o.matrix.blocks
        W = self.prior.apply_block(blocks.transpose(0, 2, 1)).transpose(1, 0, 2)
        W = W.reshape(self.p2o.nm, nt * nd) / self.noise_std
        H = blocks.reshape(nt * nd, -1) @ W / self.noise_std
        Hb = H.reshape(nt, nd, nt, nd)
        for i in range(1, nt):
            Hb[i, :, 1:, :] += Hb[i - 1, :, :-1, :]
        return W, H

    def data_space_hessian(self) -> np.ndarray:
        """Dense H_d = Gn^{-1/2} F Gp F* Gn^{-1/2}, (nt*Nd, nt*Nd): the
        ``H_d`` half of :meth:`data_space_assembly`."""
        return self.data_space_assembly()[1]
