"""Tests for the Gaussian prior and the matrix-free CG solver."""

import numpy as np
import pytest

from repro.inverse.cg import conjugate_gradient
from repro.inverse.prior import GaussianPrior
from repro.util.validation import ReproError


class TestGaussianPrior:
    @pytest.fixture
    def prior(self):
        return GaussianPrior(nm=12, nt=5, gamma=1e-2, delta=2.0)

    def test_apply_inverse_roundtrip(self, prior, rng):
        m = rng.standard_normal((5, 12))
        np.testing.assert_allclose(
            prior.apply_block(prior.apply_inv_block(m[:, :, None]))[:, :, 0],
            m, rtol=1e-10, atol=1e-12,
        )

    def test_precision_spd(self, prior, rng):
        m = rng.standard_normal((5, 12))
        assert np.sum(m * prior.apply_inv_block(m[:, :, None])[:, :, 0]) > 0

    def test_shape_validation(self, prior):
        with pytest.raises(ReproError):
            prior.apply_inv_block(np.zeros((4, 12, 1)))
        with pytest.raises(ReproError):
            prior.apply_inv_block(np.zeros((5, 12)))

    def test_invalid_params(self):
        with pytest.raises(ReproError):
            GaussianPrior(4, 4, delta=0.0)
        with pytest.raises(ReproError):
            GaussianPrior(4, 4, gamma=-1.0)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_seeded_sample_is_the_cholesky_draw(self, prior, seed):
        """Bitwise the draw of a fresh Cholesky and one triangular solve,
        ``L^T x = z``: the cached factor behind ``apply_sqrt_block``
        changes no bit of it."""
        z = np.random.default_rng(seed).standard_normal((5, 12))
        L = np.linalg.cholesky(prior._Kinv.toarray())
        want = prior.mean + np.linalg.solve(L.T, z.T).T
        np.testing.assert_array_equal(prior.sample(np.random.default_rng(seed)), want)

    def test_width_one_blocks_are_the_vector_formulas(self, prior, rng):
        """Each action at width 1 is bitwise the vector formula it
        replaced: one sparse product, one sparse solve per time step."""
        m = rng.standard_normal((5, 12))
        np.testing.assert_array_equal(
            prior.apply_inv_block(m[:, :, None])[:, :, 0], (prior._Kinv @ m.T).T
        )
        per_step = np.column_stack([prior._solve_prec(m[t]) for t in range(5)]).T
        np.testing.assert_array_equal(prior.apply_block(m[:, :, None])[:, :, 0], per_step)

    def test_sample_statistics(self):
        # empirical covariance of samples approximates Gamma_prior
        rng = np.random.default_rng(0)
        prior = GaussianPrior(nm=6, nt=1, gamma=1e-2, delta=1.0)
        samples = np.array([prior.sample(rng)[0] for _ in range(4000)])
        emp = samples.T @ samples / len(samples)
        cov = np.linalg.inv(prior._Kinv.toarray())
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.15

    def test_samples_are_zero_mean(self):
        rng = np.random.default_rng(1)
        prior = GaussianPrior(nm=4, nt=2, gamma=1e-3, delta=10.0)
        samples = np.mean([prior.sample(rng) for _ in range(500)], axis=0)
        np.testing.assert_allclose(samples, 0.0, atol=0.2)

    def test_smoothness_increases_with_gamma(self, rng):
        rough = GaussianPrior(nm=64, nt=1, gamma=1e-4, delta=1.0)
        smooth = GaussianPrior(nm=64, nt=1, gamma=1.0, delta=1.0)
        rs = np.random.default_rng(3)
        def roughness(prior):
            s = prior.sample(rs)[0]
            return np.linalg.norm(np.diff(s)) / np.linalg.norm(s)
        assert np.mean([roughness(smooth) for _ in range(20)]) < np.mean(
            [roughness(rough) for _ in range(20)]
        )


class TestConjugateGradient:
    def test_solves_dense_spd(self, rng):
        A = rng.standard_normal((10, 10))
        A = A @ A.T + 10 * np.eye(10)
        b = rng.standard_normal(10)
        res = conjugate_gradient(lambda x: A @ x, b, tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), rtol=1e-8)

    def test_block_shaped_operands(self, rng):
        # CG works directly on (nt, n) block vectors
        D = np.abs(rng.standard_normal((4, 6))) + 1.0
        b = rng.standard_normal((4, 6))
        res = conjugate_gradient(lambda x: D * x, b, tol=1e-12)
        np.testing.assert_allclose(res.x, b / D, rtol=1e-8)

    def test_exact_in_n_iterations(self, rng):
        A = rng.standard_normal((6, 6))
        A = A @ A.T + 5 * np.eye(6)
        res = conjugate_gradient(lambda x: A @ x, rng.standard_normal(6), tol=1e-10)
        assert res.iterations <= 6 + 1

    def test_zero_rhs(self):
        res = conjugate_gradient(lambda x: x, np.zeros(5))
        assert res.converged and np.all(res.x == 0)

    def test_residual_norms_decrease_overall(self, rng):
        A = rng.standard_normal((20, 20))
        A = A @ A.T + np.eye(20)
        res = conjugate_gradient(lambda x: A @ x, rng.standard_normal(20), tol=1e-10)
        assert res.residual_norms[-1] < res.residual_norms[0]

    def test_non_spd_detected(self, rng):
        res_op = lambda x: -x  # negative definite
        with pytest.raises(ReproError, match="curvature"):
            conjugate_gradient(res_op, rng.standard_normal(4))

    def test_maxiter_returns_unconverged(self, rng):
        A = rng.standard_normal((50, 50))
        A = A @ A.T + 0.01 * np.eye(50)
        res = conjugate_gradient(lambda x: A @ x, rng.standard_normal(50),
                                 tol=1e-14, maxiter=2)
        assert not res.converged
        assert res.iterations == 2

    def test_residual_history_has_one_norm_per_iteration(self, rng):
        A = np.eye(5) * 3
        res = conjugate_gradient(lambda x: A @ x, rng.standard_normal(5))
        assert res.converged and len(res.residual_norms) == res.iterations + 1
