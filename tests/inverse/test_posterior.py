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
        w = problem.prior.apply_sqrt_block(e.reshape(nt, nm, 1))[:, :, 0]
        fw = problem.p2o.apply(w) / problem.noise_std**2
        hw = problem.p2o.applyT(fw)
        H[:, i] = problem.prior.apply_sqrt_t_block(hw[:, :, None]).ravel()
    return 0.5 * (H + H.T)


class TestPriorSqrt:
    def test_sqrt_times_sqrt_t_is_cov(self, problem, rng):
        prior = problem.prior
        z = rng.standard_normal((6, 10, 1))
        via_sqrt = prior.apply_sqrt_block(prior.apply_sqrt_t_block(z))[:, :, 0]
        np.testing.assert_allclose(via_sqrt, prior.apply(z[:, :, 0]), rtol=1e-9, atol=1e-12)

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

    def test_vectors_orthonormal(self, rng):
        A = np.diag(np.linspace(1, 2, 12))
        _, V = randomized_eig(lambda v: A @ v, 12, 4, rng=rng)
        np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-10)


class TestLowRankPosterior:
    @pytest.fixture(scope="class")
    def post(self, problem):
        return LowRankPosterior.compute(
            problem, rank=12, rng=np.random.default_rng(0)
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

    def test_pointwise_variance_is_the_per_eigenvector_loop(self, problem, post):
        # One blocked sqrt-factor pass equals applying Gp^{1/2} = L^{-T}
        # to each eigenvector in turn and summing the weighted squares.
        nt, nm = problem.p2o.nt, problem.p2o.nm
        L = problem.prior._chol()
        weights = post.eigenvalues / (1.0 + post.eigenvalues)
        corr = np.zeros(nt * nm)
        for j in range(post.rank):
            col = np.linalg.solve(L.T, post.eigenvectors[:, j].reshape(nt, nm).T).T
            corr += weights[j] * col.ravel() ** 2
        looped = problem.prior.variance_diag() - corr.reshape(nt, nm)
        np.testing.assert_allclose(post.pointwise_variance(), looped, rtol=0, atol=1e-13)

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
