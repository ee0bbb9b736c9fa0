"""Gaussian priors for the linear Bayesian inverse problem.

The standard choice for spatiotemporal source inversion is a
Laplacian-like smoothness prior: ``Gamma_prior^{-1} = (delta I - gamma
Laplacian)`` applied independently at each time step, which regularizes
the ill-posed inversion (paper Section 3.2.1 notes regularization
mitigates the conditioning of the data-space Hessian).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.util.validation import ReproError, check_positive_int

__all__ = ["GaussianPrior"]


class GaussianPrior:
    """Gaussian prior N(m_prior, Gamma_prior) over (nt, nm) source fields.

    ``Gamma_prior^{-1} = delta * I - gamma * Laplacian_1D(space)`` acting
    blockwise in time: the covariance is ``I_nt (x) Gs``, the same
    spatial block ``Gs`` at every time step.  The data-space assembly
    (:meth:`~repro.inverse.bayes.LinearBayesianProblem.data_space_assembly`)
    relies on this to read ``H_d`` from the kernel by time-shift
    invariance.  Exposes precision (``apply_inv_block``), covariance
    (``apply_block``), its square root (``apply_sqrt_block``) and
    sampling, each once, on ``(nt, nm, k)`` blocks (a field is the
    width-1 block), via the prefactorized sparse operators.

    Parameters
    ----------
    nm, nt:
        Spatial/temporal dimensions.
    gamma, delta:
        Smoothness and mass weights (both > 0 keeps the precision SPD).

    The prior mean ``mean`` is zero.
    """

    def __init__(
        self,
        nm: int,
        nt: int,
        gamma: float = 1e-2,
        delta: float = 1.0,
    ) -> None:
        check_positive_int(nm, "nm")
        check_positive_int(nt, "nt")
        if gamma < 0 or delta <= 0:
            raise ReproError("need gamma >= 0 and delta > 0 for an SPD prior")
        self.nm, self.nt = nm, nt
        self.gamma, self.delta = float(gamma), float(delta)
        lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(nm, nm))
        self._Kinv = (delta * sp.eye(nm) - gamma * lap).tocsc()  # precision
        self._solve_prec = spla.factorized(self._Kinv)
        self.mean = np.zeros((nt, nm))

    def _chol(self) -> np.ndarray:
        """L with L L^T = K^-1, the precision's Cholesky factor:
        Gamma^{1/2} = L^{-T}."""
        if not hasattr(self, "_chol_cache"):
            self._chol_cache = np.linalg.cholesky(self._Kinv.toarray())
        return self._chol_cache

    # -- operator actions (blocked multi-RHS) --------------------------------
    # The prior acts independently on each time block's space vector, so a
    # (nt, nm, k) block flattens to one (nm, nt*k) right-hand side and
    # every action is a single sparse product / triangular solve instead
    # of Python-level loops over time steps or columns (the hot path of
    # Hessian actions, block CG and multi-sample draws).
    def _check_block(self, M: np.ndarray) -> np.ndarray:
        a = np.asarray(M, dtype=np.float64)
        if a.ndim != 3 or a.shape[:2] != (self.nt, self.nm):
            raise ReproError(
                f"field block must be ({self.nt},{self.nm},k), got {a.shape}"
            )
        return a

    def _to_space_rhs(self, a: np.ndarray) -> np.ndarray:
        """(nt, nm, k) -> (nm, nt*k) with space leading for one solve."""
        return a.transpose(1, 0, 2).reshape(self.nm, -1)

    def _from_space_rhs(self, flat: np.ndarray, k: int) -> np.ndarray:
        return flat.reshape(self.nm, self.nt, k).transpose(1, 0, 2)

    def apply_inv_block(self, M: np.ndarray) -> np.ndarray:
        """Gamma_prior^{-1} applied to a (nt, nm, k) block in one product."""
        a = self._check_block(M)
        return self._from_space_rhs(self._Kinv @ self._to_space_rhs(a), a.shape[2])

    def apply_block(self, M: np.ndarray) -> np.ndarray:
        """Gamma_prior applied to a (nt, nm, k) block in one sparse solve."""
        a = self._check_block(M)
        return self._from_space_rhs(
            self._solve_prec(self._to_space_rhs(a)), a.shape[2]
        )

    def apply_sqrt_block(self, Z: np.ndarray) -> np.ndarray:
        """Gamma_prior^{1/2} applied to a (nt, nm, k) block in one solve."""
        a = self._check_block(Z)
        L = self._chol()
        return self._from_space_rhs(
            np.linalg.solve(L.T, self._to_space_rhs(a)), a.shape[2]
        )

    def variance_diag(self) -> np.ndarray:
        """Pointwise prior variance, shape (nt, nm) (constant over time)."""
        cov = np.linalg.inv(self._Kinv.toarray())
        return np.tile(np.diag(cov), (self.nt, 1))

    # -- sampling -----------------------------------------------------------
    def sample(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw from N(mean, Gamma_prior) via the precision's Cholesky.

        Solves ``L^T x = z`` with ``Gamma^{-1} = L L^T``
        (:meth:`apply_sqrt_block` at width 1, on the cached dense
        Cholesky of the small spatial block — priors here are
        laptop-scale).
        """
        rng = rng if rng is not None else np.random.default_rng()
        z = rng.standard_normal((self.nt, self.nm))
        return self.mean + self.apply_sqrt_block(z[:, :, None])[:, :, 0]
