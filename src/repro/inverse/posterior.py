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
from repro.util.blocking import chunk_ranges, validate_max_block_k
from repro.util.checkpoint import CheckpointError, CheckpointStore, state_fingerprint
from repro.util.validation import ReproError, check_positive_int

__all__ = ["LowRankPosterior", "randomized_eig"]


def randomized_eig(
    operator,
    n: int,
    rank: int,
    oversample: int = 10,
    power_iters: int = 1,
    rng: Optional[np.random.Generator] = None,
    block_operator=None,
    max_block_k: Optional[int] = None,
    store: Optional[CheckpointStore] = None,
    checkpoint_key: str = "randomized-eig",
    fingerprint: Optional[str] = None,
    resume: bool = False,
):
    """Randomized symmetric eigendecomposition of a PSD operator.

    ``operator`` maps (n,) -> (n,); returns (eigenvalues desc, vectors)
    of the best rank-``rank`` approximation (Halko-Martinsson-Tropp with
    optional power iterations for sharper decay separation).

    ``block_operator``, when given, maps an (n, j) matrix to the (n, j)
    matrix of column-wise operator actions in *one* call; the sketch,
    power iterations and projection then each cost a single blocked
    application (FFTMatvec's multi-RHS pipeline) instead of j vector
    actions.  ``operator`` may be None in that case.

    ``max_block_k`` chunks every blocked application through
    :func:`repro.util.blocking.chunk_ranges` — ``ceil(j / max_block_k)``
    calls of at most ``max_block_k`` columns each — bounding the
    engine-side workspace exactly like the grid engine's knob (None =
    one full-width block, the historical behaviour).  Chunk boundaries
    only regroup GEMM panels, so results match the full-width block to
    rounding.

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
    if operator is None and block_operator is None:
        raise ReproError("need operator or block_operator")
    max_block_k = validate_max_block_k(max_block_k)
    rng = rng if rng is not None else np.random.default_rng(0)
    k = min(n, rank + max(oversample, 0))

    if block_operator is not None:
        if max_block_k is None:
            apply_mat = block_operator
        else:
            def apply_mat(M: np.ndarray) -> np.ndarray:
                out = np.empty_like(M, dtype=np.float64)
                for j0, j1 in chunk_ranges(M.shape[1], max_block_k):
                    out[:, j0:j1] = block_operator(M[:, j0:j1])
                return out
    else:
        def apply_mat(M: np.ndarray) -> np.ndarray:
            return np.column_stack([operator(M[:, j]) for j in range(M.shape[1])])

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
        Y = apply_mat(omega)
        applies_done = 1
        _save_stage()
    total_stages = 1 + max(power_iters, 0)
    while applies_done < total_stages:
        Q, _ = np.linalg.qr(Y)
        Y = apply_mat(Q)
        applies_done += 1
        _save_stage()
    Q, _ = np.linalg.qr(Y)
    T = Q.T @ apply_mat(Q)
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
        oversample: int = 10,
        power_iters: int = 1,
        rng: Optional[np.random.Generator] = None,
        blocked: bool = True,
        max_block_k: Optional[int] = None,
        store: Optional[CheckpointStore] = None,
        checkpoint_key: str = "posterior-eig",
        resume: bool = False,
    ) -> "LowRankPosterior":
        """Randomized eigendecomposition of Ht with FFT matvec actions.

        With ``blocked`` (the default) every sketch/power/projection
        stage applies Ht to all probe vectors through *one*
        ``matmat``/``rmatmat`` pipeline pass; ``blocked=False`` keeps
        the historical one-vector-at-a-time path (same numbers, k times
        the pipeline overhead).  ``max_block_k`` chunks each blocked
        stage into ``ceil(width / max_block_k)`` passes to bound the
        engine workspace (matches the grid engine's knob).

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

        def ht_action(v: np.ndarray) -> np.ndarray:
            counter["n"] += 1
            z = v.reshape(nt, nm)
            w = problem.prior.apply_sqrt(z)
            fw = problem.p2o.apply(w, config=cfg) / problem.noise_std**2
            hw = problem.p2o.applyT(fw, config=cfg)
            return problem.prior.apply_sqrt_t(hw).ravel()

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
            None if blocked else ht_action,
            n,
            rank,
            oversample=oversample,
            power_iters=power_iters,
            rng=rng,
            block_operator=ht_block_action if blocked else None,
            max_block_k=max_block_k if blocked else None,
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
        # rows of Gp^{1/2} V: apply the sqrt factor to each eigenvector
        corr = np.zeros(nt * nm)
        for j in range(self.rank):
            col = self.problem.prior.apply_sqrt(
                self.eigenvectors[:, j].reshape(nt, nm)
            ).ravel()
            corr += weights[j] * col**2
        return prior_var - corr.reshape(nt, nm)

    def sample(
        self,
        rng: Optional[np.random.Generator] = None,
        n_samples: Optional[int] = None,
        max_block_k: Optional[int] = None,
    ) -> np.ndarray:
        """Draw zero-mean posterior samples (add the MAP point for full
        posterior draws).

        Uses the exact low-rank square root:
        Gp^{1/2} (I + V diag(1/sqrt(1+lam) - 1) V^T) z  with z ~ N(0, I).

        With ``n_samples=None`` one (nt, nm) draw is returned (historical
        behaviour); with ``n_samples=k`` the k draws are generated as a
        (nt, nm, k) block — the low-rank correction is a matrix-matrix
        product over the draws.  ``max_block_k`` processes the draws in
        chunks of at most that many columns (``ceil(k / max_block_k)``
        correction + prior-sqrt passes), bounding the workspace without
        changing the random stream: all k standard-normal draws are
        generated up front, chunking only regroups the GEMM panels.
        """
        rng = rng if rng is not None else np.random.default_rng()
        nt, nm = self.problem.p2o.nt, self.problem.p2o.nm
        single = n_samples is None
        k = 1 if single else int(n_samples)
        if k < 1:
            raise ReproError(f"n_samples must be >= 1, got {n_samples}")
        max_block_k = validate_max_block_k(max_block_k)
        Z = rng.standard_normal((nt * nm, k))
        scale = 1.0 / np.sqrt(1.0 + self.eigenvalues) - 1.0
        out = np.empty((nt, nm, k))
        for j0, j1 in chunk_ranges(k, max_block_k):
            Zc = Z[:, j0:j1]
            Zc = Zc + self.eigenvectors @ (
                scale[:, None] * (self.eigenvectors.T @ Zc)
            )
            out[:, :, j0:j1] = self.problem.prior.apply_sqrt_block(
                Zc.reshape(nt, nm, j1 - j0)
            )
        return out[:, :, 0] if single else out
