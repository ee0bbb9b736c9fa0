"""Tests for the low-rank posterior UQ machinery."""

import numpy as np
import pytest

from repro.inverse.bayes import LinearBayesianProblem
from repro.inverse.lti import HeatEquation1D
from repro.inverse.mesh import Grid1D
from repro.inverse.observation import ObservationOperator
from repro.inverse.p2o import P2OMap
from repro.inverse.posterior import LowRankPosterior, randomized_eig
from repro.inverse.prior import GaussianPrior
from repro.util.validation import ReproError


@pytest.fixture(scope="module")
def problem():
    grid = Grid1D(10)
    system = HeatEquation1D(grid, dt=0.05, kappa=0.25)
    obs = ObservationOperator(grid.n, [2, 7])
    p2o = P2OMap(system, obs, nt=6)
    prior = GaussianPrior(10, 6, gamma=1e-2, delta=3.0)
    return LinearBayesianProblem(p2o, prior, noise_std=0.05)


def dense_ht(problem):
    """Dense prior-preconditioned Hessian for cross-checking."""
    nt, nm = problem.p2o.nt, problem.p2o.nm
    n = nt * nm
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        z = e.reshape(nt, nm)
        w = problem.prior.apply_sqrt(z)
        fw = problem.p2o.apply(w) / problem.noise_std**2
        hw = problem.p2o.applyT(fw)
        H[:, i] = problem.prior.apply_sqrt_t(hw).ravel()
    return 0.5 * (H + H.T)


class TestPriorSqrt:
    def test_sqrt_times_sqrt_t_is_cov(self, problem, rng):
        prior = problem.prior
        z = rng.standard_normal((6, 10))
        via_sqrt = prior.apply_sqrt(prior.apply_sqrt_t(z))
        np.testing.assert_allclose(via_sqrt, prior.apply(z), rtol=1e-9, atol=1e-12)

    def test_variance_diag_matches_dense(self, problem):
        prior = problem.prior
        cov = np.linalg.inv(prior._Kinv.toarray())
        np.testing.assert_allclose(prior.variance_diag()[0], np.diag(cov), rtol=1e-10)


class TestRandomizedEig:
    def test_exact_for_lowrank_operator(self, rng):
        # a rank-3 PSD matrix is recovered exactly
        U = np.linalg.qr(rng.standard_normal((20, 3)))[0]
        lam_true = np.array([5.0, 2.0, 0.5])
        A = U @ np.diag(lam_true) @ U.T
        lam, V = randomized_eig(lambda v: A @ v, 20, 3, rng=rng)
        np.testing.assert_allclose(lam, lam_true, rtol=1e-8)
        np.testing.assert_allclose(V @ V.T @ U, U, atol=1e-7)

    def test_descending_order(self, rng):
        A = np.diag(np.arange(1.0, 11.0))
        lam, _ = randomized_eig(lambda v: A @ v, 10, 5, rng=rng)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_rank_exceeds_dim(self, rng):
        with pytest.raises(ReproError):
            randomized_eig(lambda v: v, 4, 5)

    def test_needs_an_operator(self):
        with pytest.raises(ReproError, match="need operator or block_operator"):
            randomized_eig(None, 4, 2)

    def test_vectors_orthonormal(self, rng):
        A = np.diag(np.linspace(1, 2, 12))
        _, V = randomized_eig(lambda v: A @ v, 12, 4, rng=rng)
        np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-10)


class TestLowRankPosterior:
    @pytest.fixture(scope="class")
    def post(self, problem):
        return LowRankPosterior.compute(
            problem, rank=12, rng=np.random.default_rng(0), power_iters=2
        )

    def test_eigenvalues_match_dense(self, problem, post):
        lam_dense = np.linalg.eigvalsh(dense_ht(problem))[::-1]
        np.testing.assert_allclose(
            post.eigenvalues[:6], lam_dense[:6], rtol=1e-6, atol=1e-10
        )

    def test_spectrum_decays(self, post):
        # sparse observations: data inform only a few directions
        assert post.eigenvalues[0] > 10 * max(post.eigenvalues[-1], 1e-12)

    def test_posterior_variance_below_prior(self, problem, post):
        # data can only reduce uncertainty
        post_var = post.pointwise_variance()
        prior_var = problem.prior.variance_diag()
        assert np.all(post_var <= prior_var + 1e-12)
        assert np.all(post_var > 0)

    def test_variance_reduced_most_near_sensors(self, problem, post):
        # uncertainty drops most where the data actually look
        reduction = problem.prior.variance_diag() - post.pointwise_variance()
        profile = reduction.sum(axis=0)
        assert profile[[2, 7]].min() > profile[[0, 9]].max() * 0.5

    def test_information_gain_positive(self, post):
        assert post.information_gain() > 0

    def test_sample_covariance(self, problem, post):
        rng = np.random.default_rng(3)
        samples = np.array([post.sample(rng).ravel() for _ in range(3000)])
        emp_var = samples.var(axis=0).reshape(6, 10)
        np.testing.assert_allclose(
            emp_var, post.pointwise_variance(), rtol=0.35, atol=1e-3
        )

    def test_hessian_action_count_recorded(self, post):
        assert post.hessian_actions >= post.rank

    def test_mixed_precision_agrees(self, problem):
        rng = np.random.default_rng(1)
        pd = LowRankPosterior.compute(problem, rank=6, rng=np.random.default_rng(5))
        ps = LowRankPosterior.compute(
            problem, rank=6, config="dssdd", rng=np.random.default_rng(5)
        )
        np.testing.assert_allclose(
            pd.eigenvalues, ps.eigenvalues, rtol=1e-4, atol=1e-8
        )


class TestChunkedBlockedPath:
    def test_eig_chunked_matches_full_width(self, problem):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        full = LowRankPosterior.compute(
            problem, rank=8, rng=rng_a, power_iters=1
        )
        chunked = LowRankPosterior.compute(
            problem, rank=8, rng=rng_b, power_iters=1, max_block_k=5
        )
        # Chunk boundaries only regroup GEMM panels: same spectrum to
        # rounding, same number of Hessian actions.
        np.testing.assert_allclose(
            chunked.eigenvalues, full.eigenvalues, rtol=1e-9, atol=1e-12
        )
        assert chunked.hessian_actions == full.hessian_actions

    def test_eig_chunk_count(self, problem):
        # rank 8 + oversample 10 = 18 probes -> ceil(18/5) = 4 matmat
        # passes per stage instead of 1 full-width pass.
        passes = {}
        for mbk in (None, 5):
            eng = problem.p2o.engine
            before = eng.matmat_count
            LowRankPosterior.compute(
                problem,
                rank=8,
                rng=np.random.default_rng(1),
                power_iters=0,
                max_block_k=mbk,
            )
            passes[mbk] = eng.matmat_count - before
        assert passes[5] == 4 * passes[None]

    def test_randomized_eig_chunked(self, rng):
        n = 40
        A = rng.standard_normal((n, 12))
        H = A @ A.T  # PSD, rank 12
        lam_full, V_full = randomized_eig(
            None, n, 10, rng=np.random.default_rng(2), block_operator=lambda M: H @ M
        )
        lam_chunk, V_chunk = randomized_eig(
            None,
            n,
            10,
            rng=np.random.default_rng(2),
            block_operator=lambda M: H @ M,
            max_block_k=4,
        )
        np.testing.assert_allclose(lam_chunk, lam_full, rtol=1e-9, atol=1e-11)

    def test_sample_chunked_same_random_stream(self, problem):
        # Chunking must not change the draws: all k normals are taken up
        # front, chunks only regroup the correction GEMM panels.
        post = LowRankPosterior.compute(
            problem, rank=8, rng=np.random.default_rng(0)
        )
        full = post.sample(rng=np.random.default_rng(3), n_samples=7)
        chunked = post.sample(
            rng=np.random.default_rng(3), n_samples=7, max_block_k=3
        )
        np.testing.assert_allclose(chunked, full, rtol=1e-12, atol=1e-14)

    def test_invalid_max_block_k_rejected(self, problem):
        with pytest.raises(ReproError):
            LowRankPosterior.compute(
                problem, rank=4, rng=np.random.default_rng(0), max_block_k=0
            )
