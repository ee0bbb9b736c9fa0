"""Tests for the linear Bayesian inverse problem (MAP + Hessian)."""

import numpy as np
import pytest

from repro.core.operator import ForwardOperator, GaussNewtonHessian, LinearOperator
from repro.inverse import oed
from repro.inverse.bayes import LinearBayesianProblem
from repro.inverse.cg import conjugate_gradient
from repro.inverse.lti import HeatEquation1D
from repro.inverse.mesh import Grid1D
from repro.inverse.observation import ObservationOperator
from repro.inverse.p2o import P2OMap
from repro.inverse.posterior import DataSpacePosterior
from repro.inverse.prior import GaussianPrior
from repro.util.validation import ReproError

from tests.conftest import rel_err


@pytest.fixture(scope="module")
def problem():
    grid = Grid1D(12)
    system = HeatEquation1D(grid, dt=0.05, kappa=0.2)
    obs = ObservationOperator(grid.n, [3, 8])
    p2o = P2OMap(system, obs, nt=8)
    prior = GaussianPrior(12, 8, gamma=1e-2, delta=4.0)
    return LinearBayesianProblem(p2o, prior, noise_std=0.05)


class TestConstruction:
    def test_dimension_mismatch(self, problem):
        bad_prior = GaussianPrior(10, 8)
        with pytest.raises(ReproError):
            LinearBayesianProblem(problem.p2o, bad_prior, 0.1)

    def test_noise_positive(self, problem):
        with pytest.raises(ReproError):
            LinearBayesianProblem(problem.p2o, problem.prior, 0.0)


class TestHessian:
    def test_spd(self, problem, rng):
        m = rng.standard_normal((8, 12))
        assert np.sum(m * problem.hessian_operator().apply(m)) > 0

    def test_matches_dense_construction(self, problem, rng):
        # H = F^T Gn^-1 F + Gp^-1, verified against dense matrices
        F = problem.p2o.matrix.dense()
        n = F.shape[1]
        Gp_inv_dense = np.zeros((n, n))
        for i in range(n):
            e = np.zeros((8, 12))
            e[i // 12, i % 12] = 1.0
            Gp_inv_dense[:, i] = problem.prior.apply_inv_block(e[:, :, None]).ravel()
        H_dense = F.T @ F / problem.noise_std**2 + Gp_inv_dense
        m = rng.standard_normal((8, 12))
        np.testing.assert_allclose(
            problem.hessian_operator().apply(m).ravel(), H_dense @ m.ravel(), rtol=1e-8
        )

    def test_symmetry(self, problem, rng):
        a = rng.standard_normal((8, 12))
        b = rng.standard_normal((8, 12))
        assert np.sum(b * problem.hessian_operator().apply(a)) == pytest.approx(
            np.sum(a * problem.hessian_operator().apply(b)), rel=1e-9
        )


class TestMAP:
    def test_map_satisfies_normal_equations(self, problem, rng):
        d = rng.standard_normal((8, 2))
        result = problem.solve_map(d, tol=1e-10, maxiter=500)
        assert result.cg.converged
        residual = problem.hessian_operator().apply(result.m_map) - problem.rhs(d)
        assert np.linalg.norm(residual) / np.linalg.norm(problem.rhs(d)) < 1e-8

    def test_map_matches_dense_solve(self, problem, rng):
        d = rng.standard_normal((8, 2))
        result = problem.solve_map(d, tol=1e-12, maxiter=800)
        F = problem.p2o.matrix.dense()
        n = F.shape[1]
        Gp_inv = np.zeros((n, n))
        for i in range(n):
            e = np.zeros((8, 12))
            e[i // 12, i % 12] = 1.0
            Gp_inv[:, i] = problem.prior.apply_inv_block(e[:, :, None]).ravel()
        H = F.T @ F / problem.noise_std**2 + Gp_inv
        rhs = F.T @ d.ravel() / problem.noise_std**2
        m_dense = np.linalg.solve(H, rhs)
        assert rel_err(result.m_map.ravel(), m_dense) < 1e-7

    def test_zero_data_zero_prior_mean_gives_zero_map(self, problem):
        result = problem.solve_map(np.zeros((8, 2)))
        assert np.linalg.norm(result.m_map) < 1e-10

    def test_noise_free_recovery_improves_with_small_noise(self, rng):
        # inverse crime setup: data generated by the same model
        grid = Grid1D(10)
        system = HeatEquation1D(grid, dt=0.05, kappa=0.2)
        obs = ObservationOperator(grid.n, [2, 5, 8])
        p2o = P2OMap(system, obs, nt=6)
        prior = GaussianPrior(10, 6, gamma=1e-3, delta=1.0)
        m_true = prior.sample(np.random.default_rng(5))
        d = p2o.apply(m_true)
        errs = []
        for noise in (1.0, 1e-3):
            prob = LinearBayesianProblem(p2o, prior, noise_std=noise)
            res = prob.solve_map(d, tol=1e-10, maxiter=1000)
            errs.append(rel_err(res.m_map, m_true))
        assert errs[1] < errs[0]  # more trusted data -> better recovery

    def test_mixed_precision_map_close_to_double(self, problem, rng):
        d = rng.standard_normal((8, 2))
        m_d = problem.solve_map(d, config="ddddd", tol=1e-9, maxiter=500).m_map
        m_s = problem.solve_map(d, config="dssdd", tol=1e-9, maxiter=500).m_map
        assert rel_err(m_s, m_d) < 1e-3

    def test_map_is_the_vector_formula_solve(self, problem, rng):
        """At ddddd the MAP point and its iteration count are bitwise those
        of CG on a Hessian whose prior precision is the per-vector sparse
        product ``(K m^T)^T`` (not the width-1 block action)."""

        class VectorPrecision(LinearOperator):
            def _apply(self, v):
                return (problem.prior._Kinv @ v.T).T

        shape = (problem.p2o.nt, problem.p2o.nm)
        sigma2 = problem.noise_std**2
        d = rng.standard_normal((problem.p2o.nt, problem.p2o.nd))
        hess = GaussNewtonHessian(
            ForwardOperator(problem.p2o.engine), problem.noise_std, VectorPrecision(shape, shape)
        )
        rhs = problem.p2o.applyT(d / sigma2) + (problem.prior._Kinv @ problem.prior.mean.T).T
        want = conjugate_gradient(hess.apply, rhs, tol=1e-8, maxiter=500)
        got = problem.solve_map(d)
        np.testing.assert_array_equal(got.m_map, want.x)
        assert got.cg.iterations == want.iterations

    def test_diagnostics_populated(self, problem, rng):
        d = rng.standard_normal((8, 2))
        res = problem.solve_map(d)
        assert res.misfit >= 0 and res.reg >= 0
        assert res.config == "ddddd"


class TestDataSpaceHessian:
    def test_symmetric_psd(self, problem):
        H = problem.data_space_hessian()
        assert H.shape == (16, 16)
        np.testing.assert_allclose(H, H.T, atol=1e-10)
        w = np.linalg.eigvalsh(0.5 * (H + H.T))
        assert w.min() > -1e-10

    def test_scales_with_noise(self, problem):
        H1 = problem.data_space_hessian()
        noisy = LinearBayesianProblem(problem.p2o, problem.prior,
                                      noise_std=problem.noise_std * 2)
        H2 = noisy.data_space_hessian()
        np.testing.assert_allclose(H2, H1 / 4, rtol=1e-8)

    def test_blocked_matches_per_column_assembly(self, problem):
        # The engine's per-column F* / F reference at ddddd.
        H = problem.data_space_hessian()
        nt, nd = problem.p2o.nt, problem.p2o.nd
        ref = np.empty((nt * nd, nt * nd))
        for col in range(nt * nd):
            e = np.zeros((nt, nd))
            e[col // nd, col % nd] = 1.0 / problem.noise_std
            v = problem.prior.apply_block(problem.p2o.applyT(e)[:, :, None])[:, :, 0]
            ref[:, col] = (problem.p2o.apply(v) / problem.noise_std).ravel()
        assert np.linalg.norm(H - ref) / np.linalg.norm(ref) < 1e-14

    def test_shifted_w_is_the_per_column_adjoint(self, problem):
        # V = Gp F* / sigma is never stored: its column (j, d) at time s is
        # W's column (j - s, d), and zero before the datum's time.
        W, _ = problem.data_space_assembly()
        nt, nm, nd = problem.p2o.nt, problem.p2o.nm, problem.p2o.nd
        assert W.shape == (nm, nt * nd)
        for col in range(nt * nd):
            e = np.zeros((nt, nd))
            e[col // nd, col % nd] = 1.0 / problem.noise_std
            v = problem.prior.apply_block(problem.p2o.applyT(e)[:, :, None])[:, :, 0]
            j = col // nd
            shifted = np.zeros((nt, nm))
            shifted[: j + 1] = W[:, col - np.arange(j + 1) * nd].T
            assert np.linalg.norm(shifted - v) <= 1e-14 * np.linalg.norm(v)

    @pytest.mark.parametrize("t", [1, 2, 5, 7])
    def test_time_prefix_identity(self, problem, t):
        # F is causal and Gp block-diagonal in time, so the problem cut to
        # t steps has the leading (t*Nd)^2 block of H_d as its H_d.
        p2o, prior = problem.p2o, problem.prior
        cut = LinearBayesianProblem(
            P2OMap(p2o.system, p2o.obs, t, blocks=p2o.matrix.blocks[:t]),
            GaussianPrior(prior.nm, t, gamma=prior.gamma, delta=prior.delta),
            problem.noise_std,
        )
        lead = problem.data_space_hessian()[: t * p2o.nd, : t * p2o.nd]
        H_t = cut.data_space_hessian()
        assert np.linalg.norm(H_t - lead) <= 1e-15 * np.linalg.norm(lead)

    @pytest.mark.parametrize("reader", ["assembly", "posterior", "greedy"])
    def test_outer_loop_runs_no_engine_action(self, reader, monkeypatch):
        # The assembly, the posterior's factor and the greedy loop read the
        # kernel: no F/F* action, no arena buffer.
        system = HeatEquation1D(Grid1D(12), dt=0.05, kappa=0.2)
        prior = GaussianPrior(12, 6, gamma=1e-2, delta=4.0)
        built = []

        class RecordingP2OMap(P2OMap):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        if reader == "greedy":
            monkeypatch.setattr(oed, "P2OMap", RecordingP2OMap)
            oed.greedy_sensor_placement(system, [2, 6, 10], 2, 6, prior, 0.05)
        else:
            p2o = RecordingP2OMap(system, ObservationOperator(12, [3, 8]), 6)
            problem = LinearBayesianProblem(p2o, prior, 0.05)
            if reader == "assembly":
                problem.data_space_assembly()
            else:
                DataSpacePosterior.compute(problem)
        (engine,) = [p.engine for p in built]
        assert (engine.matvec_count, engine.matmat_count) == (0, 0)
        stats = engine.workspace.stats()
        assert (stats.nbytes, stats.checkout_count) == (0, 0)
