"""Block CG and the blocked MAP / posterior wiring."""

import numpy as np
import pytest

from repro.inverse import (
    GaussianPrior,
    Grid1D,
    HeatEquation1D,
    LinearBayesianProblem,
    DataSpacePosterior,
    ObservationOperator,
    P2OMap,
)
from repro.inverse.cg import (
    BlockCGState,
    CGBreakdownError,
    block_conjugate_gradient,
    conjugate_gradient,
)
from repro.util.checkpoint import CheckpointSchemaError
from repro.util.validation import ReproError
from tests.inverse.test_cg_resume import _stalled
from tests.inverse.test_residual_replacement import MAXITER, TOL, _system


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
        # Column 1 is zero: converges at iteration 0 and must stay +0.0,
        # bit for bit, while the others move through the shared space.
        B = rng.standard_normal((1, 18, 3))
        B[:, :, 1] = 0.0
        res = block_conjugate_gradient(op, B, tol=1e-12, maxiter=200)
        assert res.all_converged
        assert np.all(res.X[:, :, 1].view(np.uint64) == 0)
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


N_DENSE = 200


def _dense_spd(kappa, n=N_DENSE, seed=3):
    """A dense SPD matrix with eigenvalues log-spaced over ``[1, kappa]``."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * np.logspace(0, np.log10(kappa), n)) @ Q.T


def _true_rel_residual(A, X, B):
    return np.linalg.norm(A @ X - B, axis=0) / np.linalg.norm(B, axis=0)


class TestDegenerateBlocks:
    """One search space for all columns stays safe when the block is
    badly scaled or rank-deficient."""

    TOL = 1e-8

    def test_scaled_columns_each_meet_their_own_tolerance(self):
        # kappa 10 keeps the block's 24 iterations x 6 columns under n:
        # past n, counts only settle by rounding and move by up to 5
        # between runs, scaled or not.
        A = _dense_spd(10.0)
        B = np.random.default_rng(4).standard_normal((N_DENSE, 6))
        scaled = B * np.logspace(-12, 3, 6)
        base = block_conjugate_gradient(lambda X: A @ X, B, tol=self.TOL, maxiter=500)
        res = block_conjugate_gradient(lambda X: A @ X, scaled, tol=self.TOL, maxiter=500)
        assert base.all_converged and res.all_converged
        assert abs(res.iterations - base.iterations) <= 2
        assert np.all(res.residual_norms[-1] <= self.TOL * np.linalg.norm(scaled, axis=0))
        assert np.all(_true_rel_residual(A, res.X, scaled) <= 2 * self.TOL)

    def test_duplicate_and_dependent_columns_converge(self):
        A = _dense_spd(1e3)
        B = np.random.default_rng(5).standard_normal((N_DENSE, 5))
        B[:, 1] = B[:, 0]  # a duplicate
        B[:, 4] = B[:, 2] + B[:, 3]  # a sum of two others
        states = []
        res = block_conjugate_gradient(
            lambda X: A @ X, B, tol=self.TOL, maxiter=500,
            checkpoint_every=1, checkpoint=states.append,
        )
        assert res.all_converged
        assert np.all(_true_rel_residual(A, res.X, B) <= 2 * self.TOL)
        # Three independent columns: the directions never span more.
        assert max(s.rank for s in states) == 3

    def test_one_column_block_is_vector_cg(self):
        # The same Krylov space with other recurrence formulas: the counts
        # agree while CG needs fewer than n iterations.  Past n (kappa
        # 1e3 here takes ~225) both only converge by rounding, and the
        # block's drifts from the vector solver's by up to five.
        A = _dense_spd(1e2)
        for seed in range(3):
            b = np.random.default_rng(seed).standard_normal(N_DENSE)
            vec = conjugate_gradient(lambda x: A @ x, b, tol=self.TOL, maxiter=500)
            blk = block_conjugate_gradient(lambda X: A @ X, b[:, None], tol=self.TOL, maxiter=500)
            assert vec.converged and blk.all_converged
            assert abs(blk.iterations - vec.iterations) <= 1

    @pytest.mark.parametrize("kappa", [1e2, 1e4])
    def test_matches_a_direct_solve_to_kappa_times_tol(self, kappa):
        A = _dense_spd(kappa)
        B = np.random.default_rng(7).standard_normal((N_DENSE, 4))
        res = block_conjugate_gradient(lambda X: A @ X, B, tol=self.TOL, maxiter=2000)
        want = np.linalg.solve(A, B)
        err = np.linalg.norm(res.X - want, axis=0) / np.linalg.norm(want, axis=0)
        assert res.all_converged and np.all(err <= kappa * self.TOL)


class TestCoupledIterations:
    def test_preconditioned_k8_block_beats_its_slowest_column(self):
        eng, hess, _ = _system((64, 24, 96))
        data = np.random.default_rng(11).standard_normal((64, 24, 8))
        R = eng.rmatmat(data)
        blk = block_conjugate_gradient(hess.apply_block, R, tol=TOL, maxiter=MAXITER)
        assert blk.all_converged and blk.preconditioned
        slowest = max(
            conjugate_gradient(hess.apply, R[:, :, j], tol=TOL, maxiter=MAXITER).iterations
            for j in range(8)
        )
        # 30 against 45 (module docstring).
        assert blk.iterations <= 32 and blk.iterations <= 0.75 * slowest
        assert blk.exact_applies == blk.iterations + 1  # and one check of B - A X
        true = np.linalg.norm((hess.apply_block(blk.X) - R).reshape(-1, 8), axis=0)
        assert np.all(true <= TOL * np.linalg.norm(R.reshape(-1, 8), axis=0))


class TestConvergenceIsChecked:
    def test_a_drifted_recurrence_is_not_reported_converged(self):
        # A leak that is not linear in X: the recurrence meets tol while
        # B - op(X) misses it by 1e3.  One restart from B - op(X) does not
        # close that gap, so after two checks the solve returns, long
        # before maxiter, with the flags and norms of B - op(X).
        A = _dense_spd(1e2)
        B = np.random.default_rng(13).standard_normal((N_DENSE, 3))
        op = _stalled(A, 0)
        res = block_conjugate_gradient(op, B, tol=1e-8, maxiter=500)
        true = np.linalg.norm(B - op(res.X), axis=0)
        assert res.iterations < 500 and res.exact_applies == res.iterations + 2
        assert not res.all_converged
        np.testing.assert_allclose(res.residual_norms[-1], true, rtol=1e-12)
        assert np.array_equal(res.converged, true <= 1e-8 * np.linalg.norm(B, axis=0))


def _turns(A, healthy_calls, bad):
    """``A @ X`` for ``healthy_calls`` applies, then ``bad(A @ X)``."""
    calls = {"n": 0}

    def op(X):
        calls["n"] += 1
        Y = A @ X
        return Y if calls["n"] <= healthy_calls else bad(Y)

    return op


class TestTypedBreakdowns:
    def test_failed_cholesky_is_non_spd_with_the_last_healthy_state(self):
        A = _dense_spd(1e3)
        B = np.random.default_rng(8).standard_normal((N_DENSE, 3))
        full = block_conjugate_gradient(lambda X: A @ X, B, tol=1e-8, maxiter=500)
        with pytest.raises(CGBreakdownError) as ei:
            block_conjugate_gradient(_turns(A, 5, lambda Y: -Y), B, tol=1e-8, maxiter=500)
        err = ei.value
        assert err.kind == "non_spd" and "not SPD" in str(err)
        assert not isinstance(err, np.linalg.LinAlgError)
        assert isinstance(err.state, BlockCGState) and err.state.iteration == 5
        res = block_conjugate_gradient(lambda X: A @ X, B, tol=1e-8, maxiter=500, resume=err.state)
        assert res.iterations == full.iterations and np.array_equal(res.X, full.X)

    def test_non_finite_operator_is_rho_breakdown(self):
        A = _dense_spd(1e3)
        B = np.random.default_rng(9).standard_normal((N_DENSE, 3))
        with pytest.raises(CGBreakdownError) as ei:
            block_conjugate_gradient(
                _turns(A, 4, lambda Y: np.full_like(Y, np.inf)), B, tol=1e-8, maxiter=500
            )
        assert ei.value.kind == "rho_breakdown" and ei.value.state.iteration == 4
        assert np.all(np.isfinite(ei.value.state.X)) and np.all(np.isfinite(ei.value.state.R))

    def test_non_finite_rhs_is_rho_breakdown(self):
        # Without M nothing else would look at B before the Gram of its
        # columns is factored.
        A = _dense_spd(1e3)
        B = np.random.default_rng(12).standard_normal((N_DENSE, 3))
        B[5, 1] = np.nan
        with pytest.raises(CGBreakdownError) as ei:
            block_conjugate_gradient(lambda X: A @ X, B, tol=1e-8)
        assert ei.value.kind == "rho_breakdown"

    def test_a_per_column_state_is_refused(self):
        A = _dense_spd(1e3)
        B = np.random.default_rng(10).standard_normal((N_DENSE, 3))
        states = []
        block_conjugate_gradient(
            lambda X: A @ X, B, tol=1e-8, checkpoint_every=3, checkpoint=states.append
        )
        arrays = states[0].to_arrays()
        assert int(arrays["rank"]) == states[0].rank == 3
        old = {key: v for key, v in arrays.items() if key != "rank"}
        old["rs"] = np.ones(3)  # the independent-column loop's layout
        with pytest.raises(CheckpointSchemaError, match="BlockCGState"):
            BlockCGState.from_arrays(old)


class TestBlockedPriorActions:
    def test_block_actions_match_per_column(self, rng):
        prior = GaussianPrior(24, 16, gamma=5e-3, delta=4.0)
        M = rng.standard_normal((16, 24, 5))
        L = prior._chol()  # Gamma^{1/2} = L^{-T}
        K = prior._Kinv.toarray()  # the precision's spatial block, dense
        for block_fn, col_fn in (
            (prior.apply_inv_block, lambda m: (K @ m.T).T),
            (prior.apply_block, lambda m: np.linalg.solve(K, m.T).T),
            (prior.apply_sqrt_block, lambda z: np.linalg.solve(L.T, z.T).T),
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
    def test_sample_shape_and_seed(self, bayes_problem):
        post = DataSpacePosterior.compute(bayes_problem)
        one = post.sample(np.random.default_rng(5))
        assert one.shape == (16, 24)
        np.testing.assert_array_equal(one, post.sample(np.random.default_rng(5)))
