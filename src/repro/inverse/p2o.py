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

from repro.core.matvec import FFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.inverse.lti import LTISystem
from repro.inverse.observation import ObservationOperator
from repro.util.validation import ReproError, check_positive_int

__all__ = ["build_p2o_blocks", "P2OMap", "SensorBlockCache"]


def build_p2o_blocks(
    system: LTISystem,
    obs: ObservationOperator,
    nt: int,
    method: str = "auto",
) -> np.ndarray:
    """First block column of the p2o map: blocks[t] = F_t, (nt, Nd, Nm).

    ``F_t[i, j]`` is sensor ``i``'s reading ``t`` steps after a unit
    impulse at parameter point ``j``.

    ``method``:
      * ``"forward"`` — Nm forward impulse solves (one per parameter).
      * ``"adjoint"`` — Nd adjoint solves (one per sensor); for our
        self-adjoint-in-space solvers this runs the same time stepper on
        B^T e_i and reads out all parameter points at once — the cheap
        direction when ``Nd << Nm``.
      * ``"auto"`` — adjoint when Nd < Nm.
    """
    check_positive_int(nt, "nt")
    if obs.n != system.n:
        raise ReproError(
            f"observation operator is over {obs.n} points, system over {system.n}"
        )
    if method == "auto":
        method = "adjoint" if obs.nd < system.n else "forward"
    if method not in ("forward", "adjoint"):
        raise ReproError(f"unknown method {method!r}")

    # Kernel convention: F_t = dt * B * S^{t+1} with S = (I - dt A)^{-1},
    # so that apply() agrees exactly with integrating the PDE under a
    # zero-order-hold source (``system.evolve`` + ``obs.observe``).
    nm, nd = system.n, obs.nd
    blocks = np.empty((nt, nd, nm))
    if method == "forward":
        for j in range(nm):
            states = system.impulse_response(j, nt)  # (nt, n) = S^{t+1} e_j
            blocks[:, :, j] = system.dt * obs.observe(states)
        return blocks

    # Adjoint method: F_t[i, :] = (S^{t+1})^T B^T e_i * dt-normalization.
    solve_T = _factorized_transposed_stepper(system)
    B = obs.matrix()
    for i in range(nd):
        blocks[:, i, :] = _adjoint_kernel_row(solve_T, B[i].copy(), nt, system.dt)
    return blocks


def _factorized_transposed_stepper(system: LTISystem):
    """Factorize the transposed implicit-Euler stepper ``(I - dt A)^T``.

    Implicit Euler's S is symmetric for our diffusion operators when the
    spatial operator is symmetric; for generality we step with the
    transposed operator explicitly.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    system_T = (
        sp.eye(system.n, format="csc") - system.dt * system._A.T.tocsc()
    )
    return spla.factorized(system_T)


def _adjoint_kernel_row(solve_T, w: np.ndarray, nt: int, dt: float) -> np.ndarray:
    """One sensor's kernel row (nt, Nm) from its observation row ``w``.

    The single definition of the adjoint sweep, so cached OED rows and
    ``build_p2o_blocks`` cannot drift apart.
    """
    row = np.empty((nt, w.shape[0]))
    for t in range(nt):
        w = solve_T(w)
        row[t] = dt * w
    return row


class SensorBlockCache:
    """Per-sensor p2o kernel rows, shared across OED candidate sets.

    The greedy OED loop evaluates many overlapping sensor sets per
    round; the p2o kernel row of sensor ``i`` — ``blocks[:, i, :]``,
    i.e. its observed impulse responses — depends only on ``i``, not on
    which other sensors are in the set.  This cache computes each row
    once (one adjoint time-stepping sweep, with the transposed stepper
    factorized a single time) and assembles the ``(nt, Nd, Nm)`` kernel
    of any candidate set by stacking cached rows, turning the
    per-candidate rebuild into a dictionary lookup.
    """

    def __init__(self, system: LTISystem, nt: int) -> None:
        self.system = system
        self.nt = check_positive_int(nt, "nt")
        self._solve_T = _factorized_transposed_stepper(system)
        self._rows: dict = {}

    def row(self, sensor: int, width: int = 0) -> np.ndarray:
        """Kernel row of one sensor: (nt, Nm), computed once per sensor.

        ``width`` mirrors :class:`ObservationOperator`'s averaging
        window (0 = point observation) so cached rows are exactly the
        rows ``build_p2o_blocks`` would produce.
        """
        sensor = int(sensor)
        n = self.system.n
        if not (0 <= sensor < n):
            raise ReproError(f"sensor {sensor} outside [0, {n})")
        key = (sensor, int(width))
        if key not in self._rows:
            w = ObservationOperator(n, [sensor], width=width).matrix()[0]
            self._rows[key] = _adjoint_kernel_row(
                self._solve_T, w, self.nt, self.system.dt
            )
        return self._rows[key]

    def blocks(self, sensors, width: int = 0) -> np.ndarray:
        """Kernel of a sensor set: (nt, len(sensors), Nm) stacked rows."""
        return np.stack([self.row(s, width=width) for s in sensors], axis=1)

    def __len__(self) -> int:
        return len(self._rows)


class P2OMap:
    """The p2o map with both a direct (PDE-solve) and an FFT fast path.

    Wraps the LTI system + observation operator, builds the Toeplitz
    kernel once, and exposes ``apply``/``applyT`` through
    :class:`FFTMatvec` with a selectable precision configuration — this
    is the object the Bayesian solver and the OED loop consume.

    ``blocks`` supplies a precomputed kernel (e.g. assembled from a
    :class:`SensorBlockCache`) and skips the per-construction impulse
    solves — the OED greedy loop rebuilds P2OMaps for overlapping sensor
    sets every round, so recomputing the kernel each time is pure
    double-work.
    """

    def __init__(
        self,
        system: LTISystem,
        obs: ObservationOperator,
        nt: int,
        device: Optional[SimulatedDevice] = None,
        method: str = "auto",
        blocks: Optional[np.ndarray] = None,
    ) -> None:
        self.system = system
        self.obs = obs
        self.nt = check_positive_int(nt, "nt")
        if blocks is None:
            blocks = build_p2o_blocks(system, obs, nt, method=method)
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

    def apply_block(
        self, M: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """D = F M for a (nt, Nm, k) block — one blocked pipeline pass."""
        return self.engine.matmat(M, config=config)

    def applyT_block(
        self, D: np.ndarray, config: Union[str, PrecisionConfig] = "ddddd"
    ) -> np.ndarray:
        """M = F* D for a (nt, Nd, k) block — one blocked pipeline pass."""
        return self.engine.rmatmat(D, config=config)
