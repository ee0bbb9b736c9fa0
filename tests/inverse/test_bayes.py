"""Tests for the linear Bayesian inverse problem (MAP + Hessian)."""

import numpy as np
import pytest

from repro.inverse import bayes
from repro.inverse.bayes import LinearBayesianProblem
from repro.inverse.lti import HeatEquation1D
from repro.inverse.mesh import Grid1D
from repro.inverse.observation import ObservationOperator
from repro.inverse.p2o import P2OMap
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
            Gp_inv_dense[:, i] = problem.prior.apply_inv(e).ravel()
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
            Gp_inv[:, i] = problem.prior.apply_inv(e).ravel()
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
        H = problem.data_space_hessian()
        nt, nd = problem.p2o.nt, problem.p2o.nd
        ref = np.empty((nt * nd, nt * nd))
        for col in range(nt * nd):
            e = np.zeros((nt, nd))
            e[col // nd, col % nd] = 1.0 / problem.noise_std
            v = problem.prior.apply(problem.p2o.applyT(e))
            ref[:, col] = (problem.p2o.apply(v) / problem.noise_std).ravel()
        np.testing.assert_allclose(H, ref, rtol=1e-10, atol=1e-12)

    def test_assembles_through_blocked_pipeline_only(self, problem):
        # The outer loop's assembly must ride matmat passes, not column
        # loops: one F* and one F pass per chunk of columns.
        engine = problem.p2o.engine
        mv0, mm0 = engine.matvec_count, engine.matmat_count
        problem.data_space_hessian()
        n = problem.p2o.nt * problem.p2o.nd
        assert engine.matmat_count - mm0 == 2 * -(-n // bayes._ASSEMBLY_COLUMNS)
        assert engine.matvec_count - mv0 == 2 * n  # all logical actions blocked

    def test_ragged_chunks_match_per_column_assembly(self, problem, monkeypatch):
        # Five-column chunks over 16 columns: three full, one ragged.
        monkeypatch.setattr(bayes, "_ASSEMBLY_COLUMNS", 5)
        engine = problem.p2o.engine
        mm0 = engine.matmat_count
        V, H = problem.data_space_assembly()
        assert engine.matmat_count - mm0 == 2 * 4
        nt, nm, nd = problem.p2o.nt, problem.p2o.nm, problem.p2o.nd
        for col in range(nt * nd):
            e = np.zeros((nt, nd))
            e[col // nd, col % nd] = 1.0 / problem.noise_std
            v = problem.prior.apply(problem.p2o.applyT(e))
            np.testing.assert_allclose(V[:, :, col], v, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(
                H[:, col], (problem.p2o.apply(v) / problem.noise_std).ravel(),
                rtol=1e-10, atol=1e-12,
            )
        assert np.array_equal(problem.data_space_hessian(), H)

    def test_engine_arena_stays_bounded(self):
        # (64, 24, 96): one pass over all 1536 columns left a 482 MB
        # arena for an 18.9 MB result; chunked assembly stays at 64 MB.
        nt, nd, nm = 64, 24, 96
        blocks = np.random.default_rng(0).standard_normal((nt, nd, nm))
        blocks *= np.exp(-0.05 * np.arange(nt))[:, None, None]
        obs = ObservationOperator(nm, list(range(2, nm, 4)))
        p2o = P2OMap(HeatEquation1D(Grid1D(nm), dt=0.05, kappa=0.25), obs, nt, blocks=blocks)
        H = LinearBayesianProblem(p2o, GaussianPrior(nm, nt), 0.5).data_space_hessian()
        assert H.shape == (nt * nd, nt * nd)
        assert p2o.engine.workspace.nbytes <= 64 * 2**20
