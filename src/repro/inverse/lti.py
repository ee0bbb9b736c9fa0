"""Linear time-invariant PDE systems (paper Eq. 1).

``du/dt = A u + C m`` on a spatial grid, observed through B.  The
operators are time-invariant, which is the property that makes the
discrete p2o map block-Toeplitz.  Implicit Euler time stepping with a
prefactorized sparse system matrix keeps each step an O(n) solve, so
building impulse responses for the p2o map is cheap.

Two concrete systems cover the paper's motivating applications
(diffusive transport with sources — heat transfer, contaminant
transport):

* :class:`HeatEquation1D` — du/dt = kappa u_xx + m(x, t)
* :class:`AdvectionDiffusion1D` — du/dt = kappa u_xx - v u_x + m(x, t)
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.inverse.mesh import Grid1D
from repro.util.validation import ReproError, check_positive_int

__all__ = ["LTISystem", "HeatEquation1D", "AdvectionDiffusion1D"]


class LTISystem:
    """A discretized LTI system ``u_{k+1} = S (u_k + dt * C m_k)``.

    ``S = (I - dt*A)^{-1}`` is applied via a prefactorized sparse LU.
    Subclasses provide the spatial operator ``A`` (sparse, n x n).

    Parameters
    ----------
    grid:
        Spatial grid (defines n).
    dt:
        Time step (also the observation cadence; one block per step).
    """

    def __init__(self, grid: Grid1D, dt: float) -> None:
        if dt <= 0:
            raise ReproError(f"dt must be positive, got {dt}")
        self.grid = grid
        self.dt = float(dt)
        self.n = grid.n
        A = self.spatial_operator()
        if A.shape != (self.n, self.n):
            raise ReproError(
                f"spatial operator must be ({self.n},{self.n}), got {A.shape}"
            )
        self._A = A.tocsc()
        system = sp.eye(self.n, format="csc") - self.dt * self._A
        self._solve = spla.factorized(system)

    # -- to be provided by subclasses ---------------------------------------
    def spatial_operator(self) -> sp.spmatrix:
        """The sparse operator A of du/dt = A u + C m."""
        raise NotImplementedError

    # -- time stepping ---------------------------------------------------------
    def step(self, u: np.ndarray, source: Optional[np.ndarray] = None) -> np.ndarray:
        """One implicit-Euler step: solve (I - dt A) u_new = u + dt * m."""
        rhs = np.asarray(u, dtype=np.float64)
        if rhs.shape != (self.n,):
            raise ReproError(f"state must have shape ({self.n},), got {rhs.shape}")
        if source is not None:
            s = np.asarray(source, dtype=np.float64)
            if s.shape != (self.n,):
                raise ReproError(
                    f"source must have shape ({self.n},), got {s.shape}"
                )
            rhs = rhs + self.dt * s
        return self._solve(rhs)

    def evolve(
        self,
        nt: int,
        m: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run nt steps from a zero state; returns states (nt, n) AFTER
        each step.

        ``m`` is the (nt, n) source history (zero if omitted); the source
        at step k acts during step k (zero-order hold).
        """
        check_positive_int(nt, "nt")
        u = np.zeros(self.n)
        if m is not None:
            m = np.asarray(m, dtype=np.float64)
            if m.shape != (nt, self.n):
                raise ReproError(f"m must be ({nt},{self.n}), got {m.shape}")
        out = np.empty((nt, self.n))
        for k in range(nt):
            u = self.step(u, None if m is None else m[k])
            out[k] = u
        return out

    def impulse_response(self, j: int, nt: int) -> np.ndarray:
        """States (nt, n) for a unit impulse source at grid point j, step 0.

        Time invariance means these columns generate the whole p2o map.
        """
        if not (0 <= j < self.n):
            raise ReproError(f"impulse location {j} outside [0,{self.n})")
        src = np.zeros((nt, self.n))
        src[0, j] = 1.0 / self.dt  # unit-mass impulse over one step
        return self.evolve(nt, m=src)


class HeatEquation1D(LTISystem):
    """1-D heat equation with homogeneous Dirichlet boundaries."""

    def __init__(self, grid: Grid1D, dt: float, kappa: float = 1.0) -> None:
        if kappa <= 0:
            raise ReproError(f"kappa must be positive, got {kappa}")
        self.kappa = float(kappa)
        super().__init__(grid, dt)

    def spatial_operator(self) -> sp.spmatrix:
        n, h = self.n, self.grid.h
        lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2
        return self.kappa * lap


class AdvectionDiffusion1D(LTISystem):
    """1-D advection-diffusion with upwinded transport."""

    def __init__(
        self, grid: Grid1D, dt: float, kappa: float = 0.01, velocity: float = 1.0
    ) -> None:
        if kappa <= 0:
            raise ReproError(f"kappa must be positive, got {kappa}")
        self.kappa = float(kappa)
        self.velocity = float(velocity)
        super().__init__(grid, dt)

    def spatial_operator(self) -> sp.spmatrix:
        n, h = self.n, self.grid.h
        lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2
        v = self.velocity
        if v >= 0:  # upwind difference against the flow
            adv = sp.diags([-1.0, 1.0], [-1, 0], shape=(n, n)) / h
        else:
            adv = sp.diags([-1.0, 1.0], [0, 1], shape=(n, n)) / h
        return self.kappa * lap - v * adv
