"""MAP solves refined in double: ``solve_map`` on a lowered Hessian.

Mixed-precision refinement lives in the solver: ``solve_map`` hands CG
its Gauss-Newton Hessian, and on an operator whose double spectrum is
worth halving (here (32, 24, 96): 1.2 MB) CG iterates at ``ddsdd`` and
converges on residuals recomputed in double.
"""

import numpy as np
import pytest

from repro.inverse.bayes import LinearBayesianProblem
from repro.inverse.cg import conjugate_gradient
from repro.inverse.lti import HeatEquation1D
from repro.inverse.mesh import Grid1D
from repro.inverse.observation import ObservationOperator
from repro.inverse.p2o import P2OMap
from repro.inverse.prior import GaussianPrior

from tests.conftest import rel_err

NT, ND, NM = 32, 24, 96


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((NT, ND, NM)) * np.exp(-0.05 * np.arange(NT))[:, None, None]
    grid = Grid1D(NM)
    obs = ObservationOperator(NM, list(range(2, NM, 4)))
    p2o = P2OMap(HeatEquation1D(grid, dt=0.05, kappa=0.25), obs, NT, blocks=blocks)
    prior = GaussianPrior(NM, NT, gamma=1e-2, delta=1.0)
    return LinearBayesianProblem(p2o, prior, noise_std=0.5)


def _true_residual(problem, d, m) -> float:
    b = problem.rhs(d, config="ddddd")
    return float(np.linalg.norm(b - problem.hessian_operator().apply(m)) / np.linalg.norm(b))


class TestLoweredMAP:
    def test_reaches_double_accuracy(self, problem, rng):
        d = rng.standard_normal((NT, ND))
        res = problem.solve_map(d, tol=1e-10)
        assert res.cg.converged and res.cg.iteration_config == "ddsdd"
        assert _true_residual(problem, d, res.m_map) <= 1e-10
        assert res.cg.residual_norms[-1] < res.cg.residual_norms[0]

    def test_matches_full_double_solve(self, problem, rng):
        d = rng.standard_normal((NT, ND))
        lowered = problem.solve_map(d, tol=1e-11)
        hess = problem.hessian_operator()
        direct = conjugate_gradient(lambda m: hess.apply(m), problem.rhs(d), tol=1e-12, maxiter=800)
        assert direct.iteration_config is None  # a lambda runs the plain loop
        assert rel_err(lowered.m_map, direct.x) < 1e-8

    def test_beats_flat_mixed_solve_accuracy(self, problem, rng):
        # CG run *entirely* at ddsdd stalls at the matvec error floor;
        # residual replacement punches through it
        d = rng.standard_normal((NT, ND))
        flat = problem.solve_map(d, config="ddsdd", tol=1e-12, maxiter=300)
        lowered = problem.solve_map(d, tol=1e-10)
        assert flat.cg.iteration_config == "ddsdd" and flat.cg.exact_applies == flat.cg.iterations + 1
        assert _true_residual(problem, d, lowered.m_map) < 1e-3 * _true_residual(
            problem, d, flat.m_map
        )

    def test_zero_data(self, problem):
        res = problem.solve_map(np.zeros((NT, ND)))
        assert res.cg.converged
        assert np.all(res.m_map == 0)

    def test_records_the_configs(self, problem, rng):
        d = rng.standard_normal((NT, ND))
        res = problem.solve_map(d, tol=1e-9)
        assert res.config == "ddddd" and res.cg.iteration_config == "ddsdd"
        assert 1 <= res.cg.exact_applies <= 8 and not res.cg.escalated
        mixed = problem.solve_map(d, config="ddssd", tol=1e-4)
        assert mixed.config == mixed.cg.iteration_config == "ddssd"
