"""Tests for the exact data-space posterior."""

import numpy as np
import pytest

from repro.inverse.bayes import LinearBayesianProblem
from repro.inverse.lti import HeatEquation1D
from repro.inverse.mesh import Grid1D
from repro.inverse.observation import ObservationOperator
from repro.inverse.p2o import P2OMap
from repro.inverse.posterior import DataSpacePosterior
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
        # Gamma^{T/2} = L^{-1}, L the precision's Cholesky factor
        H[:, i] = np.linalg.solve(problem.prior._chol(), hw.T).T.ravel()
    return 0.5 * (H + H.T)


class TestPriorSqrt:
    def test_sqrt_times_sqrt_t_is_cov(self, problem, rng):
        prior = problem.prior
        z = rng.standard_normal((6, 10, 1))
        sqrt_t = np.linalg.solve(prior._chol(), z[:, :, 0].T).T  # Gamma^{T/2} = L^{-1}
        via_sqrt = prior.apply_sqrt_block(sqrt_t[:, :, None])[:, :, 0]
        np.testing.assert_allclose(via_sqrt, prior.apply_block(z)[:, :, 0], rtol=1e-9, atol=1e-12)

    def test_variance_diag_matches_dense(self, problem):
        prior = problem.prior
        cov = np.linalg.inv(prior._Kinv.toarray())
        np.testing.assert_allclose(prior.variance_diag()[0], np.diag(cov), rtol=1e-10)


def dense_operators(problem):
    """The explicit F, (nt*Nd, nt*Nm), and Gp, (nt*Nm, nt*Nm)."""
    nt, nm = problem.p2o.nt, problem.p2o.nm
    F = np.stack(
        [problem.p2o.apply(e.reshape(nt, nm)).ravel() for e in np.eye(nt * nm)], axis=1
    )
    return F, np.kron(np.eye(nt), np.linalg.inv(problem.prior._Kinv.toarray()))


def dense_posterior(problem):
    """Dense Gamma_post = (F* F / sigma^2 + Gp^{-1})^{-1} and the EIG
    0.5 * log det (I + F Gp F* / sigma^2), from the explicit F."""
    nt, nm, nd = problem.p2o.nt, problem.p2o.nm, problem.p2o.nd
    F, Gp = dense_operators(problem)
    s2 = problem.noise_std**2
    cov = np.linalg.inv(F.T @ F / s2 + np.linalg.inv(Gp))
    eig = 0.5 * np.linalg.slogdet(np.eye(nt * nd) + F @ Gp @ F.T / s2)[1]
    return np.diag(cov).reshape(nt, nm), eig


class TestDataSpacePosterior:
    @pytest.fixture(scope="class")
    def post(self, problem):
        return DataSpacePosterior.compute(problem)

    def test_eigenvalues_match_dense(self, problem, post):
        # H_d's spectrum is the nonzero spectrum of the prior-preconditioned
        # Hessian: all nt * Nd of it, not a rank-r sketch.
        n = problem.p2o.nt * problem.p2o.nd
        lam_dense = np.linalg.eigvalsh(dense_ht(problem))[::-1]
        assert post.eigenvalues.shape == (n,)
        np.testing.assert_allclose(
            post.eigenvalues, lam_dense[:n], rtol=1e-6, atol=1e-10
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

    @pytest.mark.parametrize("config, rel", [("ddddd", 1e-12)])
    def test_matches_dense_posterior(self, problem, config, rel):
        var, eig = dense_posterior(problem)
        post = DataSpacePosterior.compute(problem, config=config)
        assert abs(post.information_gain() - eig) <= rel * eig
        np.testing.assert_allclose(post.pointwise_variance(), var, rtol=rel, atol=0)

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

    def test_sample_is_the_dense_kalman_update(self, problem, post):
        # x = m - Gp F* (F Gp F* + sigma^2 I)^{-1} (F m + eps) for the same
        # draws (m from z ~ N(0, I) first, then eps): covariance Gamma_post.
        nt, nm, nd = problem.p2o.nt, problem.p2o.nm, problem.p2o.nd
        sigma = problem.noise_std
        F, Gp = dense_operators(problem)
        draws = np.random.default_rng(11)
        z = draws.standard_normal((nt, nm, 1))
        eps = sigma * draws.standard_normal(nt * nd)
        m = problem.prior.apply_sqrt_block(z).ravel()
        gain = Gp @ F.T @ np.linalg.inv(F @ Gp @ F.T + sigma**2 * np.eye(nt * nd))
        want = m - gain @ (F @ m + eps)
        got = post.sample(np.random.default_rng(11)).ravel()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_sampler_runs_f_and_fstar_at_config(self, problem, post):
        # The sampler is the one place the posterior runs the engine: one F
        # and one F* per draw, at the posterior's configuration.
        mixed = DataSpacePosterior.compute(problem, config="dssdd")
        engine = problem.p2o.engine
        before = engine.matvec_count
        got = mixed.sample(np.random.default_rng(4))
        assert engine.matvec_count - before == 2
        want = post.sample(np.random.default_rng(4))
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


class TestTypedErrors:
    def test_nan_kernel_is_a_typed_error(self):
        # numpy's eigvalsh would raise "Eigenvalues did not converge".
        nt, nd, nm = 6, 2, 10
        blocks = np.random.default_rng(0).standard_normal((nt, nd, nm))
        blocks[3, 1, 4] = np.nan
        system = HeatEquation1D(Grid1D(nm), dt=0.05, kappa=0.25)
        p2o = P2OMap(system, ObservationOperator(nm, [2, 7]), nt, blocks=blocks)
        problem = LinearBayesianProblem(p2o, GaussianPrior(nm, nt), noise_std=0.05)
        with pytest.raises(ReproError, match="not finite"):
            DataSpacePosterior.compute(problem)

    def test_indefinite_hessian_is_a_typed_error(self, problem, monkeypatch):
        n = problem.p2o.nt * problem.p2o.nd
        W = np.zeros((problem.p2o.nm, n))
        monkeypatch.setattr(
            LinearBayesianProblem, "data_space_assembly",
            lambda self: (W, -2.0 * np.eye(n)),
        )
        with pytest.raises(ReproError, match="not positive definite"):
            DataSpacePosterior.compute(problem)
