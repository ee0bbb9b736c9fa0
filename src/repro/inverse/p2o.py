"""Parameter-to-observable map: from the LTI solver to FFTMatvec.

The p2o map F sends the source history ``m`` (nt, Nm) to the observation
history ``d`` (nt, Nd) by solving the PDE and observing.  Time
invariance makes its discrete matrix block lower-triangular Toeplitz,
so only the first block column — the observed impulse responses — is
needed (paper Section 2.4: it can be computed with ``Nd`` adjoint PDE
solves; we build it equivalently from ``Nm`` forward impulse responses
or, when ``Nd < Nm``, from ``Nd`` adjoint solves, matching the paper's
cost argument).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.matvec import FFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.inverse.lti import LTISystem
from repro.inverse.observation import ObservationOperator
from repro.util.validation import ReproError, check_positive_int

__all__ = ["build_p2o_blocks", "P2OMap"]


def build_p2o_blocks(
    system: LTISystem,
    obs: ObservationOperator,
    nt: int,
) -> np.ndarray:
    """First block column of the p2o map: blocks[t] = F_t, (nt, Nd, Nm).

    ``F_t[i, j]`` is sensor ``i``'s reading ``t`` steps after a unit
    impulse at parameter point ``j``.  Built the cheap way round:

      * Nd < Nm — Nd adjoint solves (one per sensor); for our
        self-adjoint-in-space solvers this runs the same time stepper on
        B^T e_i and reads out all parameter points at once;
      * otherwise — Nm forward impulse solves (one per parameter).
    """
    check_positive_int(nt, "nt")
    if obs.n != system.n:
        raise ReproError(
            f"observation operator is over {obs.n} points, system over {system.n}"
        )

    # Kernel convention: F_t = dt * B * S^{t+1} with S = (I - dt A)^{-1},
    # so that apply() agrees exactly with integrating the PDE under a
    # zero-order-hold source (``system.evolve`` + ``obs.observe``).
    nm, nd = system.n, obs.nd
    blocks = np.empty((nt, nd, nm))
    if nd >= nm:
        for j in range(nm):
            states = system.impulse_response(j, nt)  # (nt, n) = S^{t+1} e_j
            blocks[:, :, j] = system.dt * obs.observe(states)
        return blocks

    # Adjoint method: F_t[i, :] = dt * ((S^{t+1})^T B^T e_i), stepping the
    # transposed implicit-Euler operator (I - dt A)^T, factorized once.
    solve_T = spla.factorized(
        sp.eye(system.n, format="csc") - system.dt * system._A.T.tocsc()
    )
    B = obs.matrix()
    for i in range(nd):
        w = B[i]
        for t in range(nt):
            w = solve_T(w)
            blocks[t, i, :] = system.dt * w
    return blocks


class P2OMap:
    """The p2o map with both a direct (PDE-solve) and an FFT fast path.

    Wraps the LTI system + observation operator, builds the Toeplitz
    kernel once, and exposes ``apply``/``applyT`` through
    :class:`FFTMatvec` with a selectable precision configuration — this
    is the object the Bayesian solver and the OED loop consume.

    ``blocks`` supplies a precomputed ``(nt, Nd, Nm)`` kernel in place of
    the impulse solves (e.g. a random decaying kernel for benchmarks).
    """

    def __init__(
        self,
        system: LTISystem,
        obs: ObservationOperator,
        nt: int,
        device: Optional[SimulatedDevice] = None,
        blocks: Optional[np.ndarray] = None,
    ) -> None:
        self.system = system
        self.obs = obs
        self.nt = check_positive_int(nt, "nt")
        if blocks is None:
            blocks = build_p2o_blocks(system, obs, nt)
        else:
            blocks = np.asarray(blocks, dtype=np.float64)
            if blocks.shape != (nt, obs.nd, system.n):
                raise ReproError(
                    f"precomputed blocks must be ({nt}, {obs.nd}, "
                    f"{system.n}), got {blocks.shape}"
                )
        self.matrix = BlockTriangularToeplitz(blocks)
        self.engine = FFTMatvec(self.matrix, device=device)

    @property
    def nm(self) -> int:
        return self.system.n

    @property
    def nd(self) -> int:
        return self.obs.nd

    # -- fast path -----------------------------------------------------------
    def apply(
        self, m: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """d = F m via the FFT engine."""
        return self.engine.matvec(m, config=config)

    def applyT(
        self, d: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """m = F* d via the FFT engine."""
        return self.engine.rmatvec(d, config=config)
