"""Posterior uncertainty quantification via low-rank Hessian methods.

For the linear-Gaussian problem the posterior covariance is::

    Gamma_post = Gp^{1/2} (I + Ht)^{-1} Gp^{T/2},
    Ht = Gp^{T/2} F* Gn^{-1} F Gp^{1/2}   (prior-preconditioned Hessian)

``Ht`` typically has rapidly decaying spectrum (the data inform only a
few directions), so a rank-r randomized eigendecomposition
``Ht ~= V diag(lam) V^T`` gives, by Sherman-Morrison-Woodbury::

    Gamma_post = Gp - Gp^{1/2} V diag(lam/(1+lam)) V^T Gp^{T/2}

Each ``Ht`` action costs one F and one F* FFTMatvec — the operation the
paper accelerates — so the precision configuration threads through.
This reproduces the UQ workflow of the paper's references [21, 22]
(posterior variance and expected information gain from the same
eigenvalues used by the OED loop).

Kept by ``examples/posterior_uq.py``: the UQ workflow of the paper's
references [21, 22].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.precision import PrecisionConfig
from repro.inverse.bayes import LinearBayesianProblem
from repro.util.checkpoint import CheckpointError, CheckpointStore, state_fingerprint
from repro.util.validation import ReproError, check_positive_int

__all__ = ["LowRankPosterior", "randomized_eig"]


#: Extra sketch columns beyond the rank, and power iterations, of the
#: randomized eigendecomposition (Halko-Martinsson-Tropp).
OVERSAMPLE = 10
POWER_ITERS = 1


def randomized_eig(
    block_operator,
    n: int,
    rank: int,
    rng: Optional[np.random.Generator] = None,
    store: Optional[CheckpointStore] = None,
    checkpoint_key: str = "randomized-eig",
    fingerprint: Optional[str] = None,
    resume: bool = False,
):
    """Randomized symmetric eigendecomposition of a PSD operator.

    ``block_operator`` maps an (n, j) matrix to the (n, j) matrix of
    column-wise operator actions in *one* call, so the sketch, the
    ``POWER_ITERS`` power iterations and the projection each cost a
    single blocked application (FFTMatvec's multi-RHS pipeline).
    Returns (eigenvalues desc, vectors) of the best rank-``rank``
    approximation (Halko-Martinsson-Tropp, ``OVERSAMPLE`` extra sketch
    columns).

    With a ``store`` the sketch and every power iteration checkpoint the
    working block ``Y`` (the expensive state — each stage costs one
    blocked Hessian application); ``resume=True`` loads the latest
    snapshot under ``checkpoint_key`` (validated against
    ``fingerprint``) and replays only the remaining stages.  Each stage
    picks up the exact saved bits and runs the same operations, so a
    resumed decomposition equals the uninterrupted one bitwise when the
    operator is deterministic.  The final projection is not separately
    checkpointed — losing it replays one stage from the last snapshot.
    """
    check_positive_int(n, "n")
    check_positive_int(rank, "rank")
    if rank > n:
        raise ReproError(f"rank {rank} exceeds dimension {n}")
    rng = rng if rng is not None else np.random.default_rng(0)
    k = min(n, rank + OVERSAMPLE)

    fp = fingerprint if fingerprint is not None else "unkeyed"
    applies_done = 0
    Y: Optional[np.ndarray] = None
    if store is not None and resume and checkpoint_key in store:
        snap = store.load(
            checkpoint_key,
            expect_fingerprint=fingerprint if fingerprint is not None else None,
        )
        if snap.meta.get("n") != n or snap.meta.get("k") != k:
            raise CheckpointError(
                f"checkpoint {checkpoint_key!r} sketched ({snap.meta.get('n')}, "
                f"{snap.meta.get('k')}), caller wants ({n}, {k})"
            )
        Y = snap.arrays["Y"]
        applies_done = int(snap.meta["applies_done"])

    def _save_stage() -> None:
        if store is not None:
            store.save(
                checkpoint_key,
                {"Y": Y},
                fingerprint=fp,
                meta={"n": n, "k": k, "applies_done": applies_done},
            )

    if applies_done == 0:
        omega = rng.standard_normal((n, k))
        Y = block_operator(omega)
        applies_done = 1
        _save_stage()
    total_stages = 1 + POWER_ITERS
    while applies_done < total_stages:
        Q, _ = np.linalg.qr(Y)
        Y = block_operator(Q)
        applies_done += 1
        _save_stage()
    Q, _ = np.linalg.qr(Y)
    T = Q.T @ block_operator(Q)
    T = 0.5 * (T + T.T)
    lam, S = np.linalg.eigh(T)
    order = np.argsort(lam)[::-1][:rank]
    return np.maximum(lam[order], 0.0), Q @ S[:, order]


@dataclass
class LowRankPosterior:
    """Rank-r posterior representation built from FFTMatvec actions.

    Attributes
    ----------
    eigenvalues:
        Eigenvalues of the prior-preconditioned data-misfit Hessian,
        descending, length r.
    eigenvectors:
        Corresponding orthonormal vectors, shape (nt*nm, r), in the
        prior-preconditioned coordinates.
    """

    problem: LinearBayesianProblem
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    config: str
    hessian_actions: int

    # -- construction ---------------------------------------------------------
    @classmethod
    def compute(
        cls,
        problem: LinearBayesianProblem,
        rank: int,
        config: Union[str, PrecisionConfig] = "ddddd",
        rng: Optional[np.random.Generator] = None,
        store: Optional[CheckpointStore] = None,
        checkpoint_key: str = "posterior-eig",
        resume: bool = False,
    ) -> "LowRankPosterior":
        """Randomized eigendecomposition of Ht with FFT matvec actions.

        Every sketch/power/projection stage applies Ht to all probe
        vectors through *one* ``matmat``/``rmatmat`` pipeline pass.

        With a ``store`` each eig stage checkpoints under
        ``checkpoint_key``, fingerprinted by the p2o kernel, noise level
        and precision config — resuming against a *different* problem
        raises a typed error instead of silently converging to the wrong
        posterior.  ``resume=True`` continues from the latest snapshot;
        ``hessian_actions`` then counts only the post-resume actions.
        """
        cfg = PrecisionConfig.parse(config)
        nt, nm = problem.p2o.nt, problem.p2o.nm
        n = nt * nm
        counter = {"n": 0}

        def ht_block_action(M: np.ndarray) -> np.ndarray:
            j = M.shape[1]
            counter["n"] += j
            # Column i of M is the flat (nt, nm) field i, so the (n, j)
            # matrix *is* the (nt, nm, j) block; prior and p2o actions
            # are all single blocked calls.
            W = problem.prior.apply_sqrt_block(M.reshape(nt, nm, j))
            FW = problem.p2o.apply_block(W, config=cfg) / problem.noise_std**2
            HW = problem.p2o.applyT_block(FW, config=cfg)
            return problem.prior.apply_sqrt_t_block(HW).reshape(n, j)

        fingerprint = state_fingerprint(
            problem.p2o.matrix.blocks, float(problem.noise_std), str(cfg)
        )
        lam, V = randomized_eig(
            ht_block_action,
            n,
            rank,
            rng=rng,
            store=store,
            checkpoint_key=checkpoint_key,
            fingerprint=fingerprint,
            resume=resume,
        )
        return cls(
            problem=problem,
            eigenvalues=lam,
            eigenvectors=V,
            config=str(cfg),
            hessian_actions=counter["n"],
        )

    # -- queries ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    def information_gain(self) -> float:
        """Expected information gain 0.5 * sum log(1 + lam_i) — the same
        quantity the OED loop maximizes."""
        return 0.5 * float(np.sum(np.log1p(self.eigenvalues)))

    def pointwise_variance(self) -> np.ndarray:
        """Posterior variance field, shape (nt, nm).

        prior variance minus the low-rank correction's diagonal.
        """
        nt, nm = self.problem.p2o.nt, self.problem.p2o.nm
        prior_var = self.problem.prior.variance_diag()
        weights = self.eigenvalues / (1.0 + self.eigenvalues)
        # Gp^{1/2} V: one blocked sqrt-factor pass over all eigenvectors.
        W = self.problem.prior.apply_sqrt_block(self.eigenvectors.reshape(nt, nm, self.rank))
        return prior_var - (W**2) @ weights

    def sample(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw one zero-mean (nt, nm) posterior sample (add the MAP point
        for a full posterior draw).

        Uses the exact low-rank square root:
        Gp^{1/2} (I + V diag(1/sqrt(1+lam) - 1) V^T) z  with z ~ N(0, I).
        """
        rng = rng if rng is not None else np.random.default_rng()
        nt, nm = self.problem.p2o.nt, self.problem.p2o.nm
        Z = rng.standard_normal((nt * nm, 1))
        scale = 1.0 / np.sqrt(1.0 + self.eigenvalues) - 1.0
        Z = Z + self.eigenvectors @ (scale[:, None] * (self.eigenvectors.T @ Z))
        return self.problem.prior.apply_sqrt_block(Z.reshape(nt, nm, 1))[:, :, 0]
