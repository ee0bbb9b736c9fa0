"""Block CG and the blocked MAP / posterior wiring."""

import numpy as np
import pytest

from repro.inverse import (
    GaussianPrior,
    Grid1D,
    HeatEquation1D,
    LinearBayesianProblem,
    LowRankPosterior,
    ObservationOperator,
    P2OMap,
)
from repro.inverse.cg import block_conjugate_gradient, conjugate_gradient
from repro.util.validation import ReproError


@pytest.fixture(scope="module")
def bayes_problem():
    grid = Grid1D(24)
    system = HeatEquation1D(grid, dt=0.04, kappa=0.2)
    obs = ObservationOperator(grid.n, [4, 12, 19])
    p2o = P2OMap(system, obs, nt=16)
    prior = GaussianPrior(24, 16, gamma=5e-3, delta=4.0)
    return LinearBayesianProblem(p2o, prior, noise_std=0.05)


class TestBlockCGOnDenseSPD:
    def _spd_operator(self, rng, n=18):
        A = rng.standard_normal((n, n))
        A = A @ A.T + n * np.eye(n)

        def op(X):  # X is (1, n, k): block-vector convention
            return np.einsum("ij,ajk->aik", A, X)

        return A, op

    def test_matches_vector_cg_per_column(self, rng):
        A, op = self._spd_operator(rng)
        B = rng.standard_normal((1, 18, 4))
        res = block_conjugate_gradient(op, B, tol=1e-12, maxiter=200)
        assert res.all_converged
        for j in range(4):
            vec = conjugate_gradient(
                lambda x: np.einsum("ij,aj->ai", A, x),
                B[:, :, j],
                tol=1e-12,
                maxiter=200,
            )
            assert vec.converged
            np.testing.assert_allclose(
                res.X[:, :, j], vec.x, rtol=0, atol=1e-10
            )

    def test_matches_direct_solve(self, rng):
        A, op = self._spd_operator(rng)
        B = rng.standard_normal((1, 18, 3))
        res = block_conjugate_gradient(op, B, tol=1e-12, maxiter=200)
        want = np.linalg.solve(A, B[0])
        np.testing.assert_allclose(res.X[0], want, rtol=0, atol=1e-9)

    def test_mixed_convergence_freezes_columns(self, rng):
        A, op = self._spd_operator(rng)
        # Column 1 is zero: converges at iteration 0 and must stay zero.
        B = rng.standard_normal((1, 18, 3))
        B[:, :, 1] = 0.0
        res = block_conjugate_gradient(op, B, tol=1e-12, maxiter=200)
        assert res.all_converged
        np.testing.assert_array_equal(res.X[:, :, 1], 0.0)
        np.testing.assert_allclose(
            res.X[0, :, 0], np.linalg.solve(A, B[0, :, 0]), atol=1e-9
        )

    def test_residual_history_shapes(self, rng):
        A, op = self._spd_operator(rng)
        B = rng.standard_normal((1, 18, 2))
        res = block_conjugate_gradient(op, B, tol=1e-10)
        assert all(r.shape == (2,) for r in res.residual_norms)
        assert np.all(res.residual_norms[-1] <= 1e-10 * np.linalg.norm(B, axis=(0, 1)))

    def test_non_spd_raises(self, rng):
        def neg_op(X):
            return -X

        with pytest.raises(ReproError):
            block_conjugate_gradient(neg_op, rng.standard_normal((1, 6, 2)))

    def test_bad_inputs(self, rng):
        A, op = self._spd_operator(rng)
        with pytest.raises(ReproError):
            block_conjugate_gradient(op, np.zeros(5))

    def test_zero_rhs_column_reports_zero_residual(self, rng):
        A, op = self._spd_operator(rng)
        B = rng.standard_normal((1, 18, 2))
        B[:, :, 1] = 0.0
        res = block_conjugate_gradient(op, B, tol=1e-12, maxiter=200)
        assert res.all_converged
        np.testing.assert_array_equal(res.X[:, :, 1], 0.0)
        assert res.residual_norms[-1][1] == 0.0
        assert len(res.residual_norms) == res.iterations + 1


class TestBlockedPriorActions:
    def test_block_actions_match_per_column(self, rng):
        prior = GaussianPrior(24, 16, gamma=5e-3, delta=4.0)
        M = rng.standard_normal((16, 24, 5))
        L = prior._chol()  # Gamma^{1/2} = L^{-T}, Gamma^{T/2} = L^{-1}
        for block_fn, col_fn in (
            (prior.apply_inv_block, prior.apply_inv),
            (prior.apply_sqrt_block, lambda z: np.linalg.solve(L.T, z.T).T),
            (prior.apply_sqrt_t_block, lambda z: np.linalg.solve(L, z.T).T),
        ):
            out = block_fn(M)
            assert out.shape == M.shape
            for j in range(5):
                np.testing.assert_allclose(
                    out[:, :, j], col_fn(M[:, :, j]), rtol=0, atol=1e-12
                )

    def test_block_shape_validation(self, rng):
        prior = GaussianPrior(24, 16, gamma=5e-3, delta=4.0)
        with pytest.raises(ReproError):
            prior.apply_inv_block(rng.standard_normal((16, 24)))
        with pytest.raises(ReproError):
            prior.apply_sqrt_block(rng.standard_normal((24, 16, 2)))


class TestBlockedPosterior:
    def test_blocked_eig_uses_matmat(self, bayes_problem):
        engine = bayes_problem.p2o.engine
        before = engine.matmat_count
        LowRankPosterior.compute(bayes_problem, 6, rng=np.random.default_rng(1))
        # sketch + power iteration + projection = 3 blocked F and F* passes
        assert engine.matmat_count - before == 6

    def test_sample_shape_and_seed(self, bayes_problem):
        post = LowRankPosterior.compute(
            bayes_problem, 6, rng=np.random.default_rng(2)
        )
        one = post.sample(np.random.default_rng(5))
        assert one.shape == (16, 24)
        np.testing.assert_array_equal(one, post.sample(np.random.default_rng(5)))
