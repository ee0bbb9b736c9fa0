"""Tests for the LTI PDE solvers."""

import numpy as np
import pytest

from repro.inverse.lti import AdvectionDiffusion1D, HeatEquation1D
from repro.inverse.mesh import Grid1D
from repro.util.validation import ReproError


@pytest.fixture
def heat():
    return HeatEquation1D(Grid1D(20), dt=0.01, kappa=0.5)


class TestStepping:
    def test_step_solves_implicit_euler(self, heat, rng):
        # (I - dt A) u_new = u_old  (no source)
        u0 = rng.standard_normal(20)
        u1 = heat.step(u0)
        A = heat._A.toarray()
        lhs = (np.eye(20) - heat.dt * A) @ u1
        np.testing.assert_allclose(lhs, u0, rtol=1e-10, atol=1e-12)

    def test_source_contributes(self, heat):
        u = heat.step(np.zeros(20), source=np.ones(20))
        assert np.all(u > 0)

    def test_zero_is_fixed_point(self, heat):
        u = heat.step(np.zeros(20))
        np.testing.assert_array_equal(u, 0)

    def test_shape_validation(self, heat):
        with pytest.raises(ReproError):
            heat.step(np.zeros(19))
        with pytest.raises(ReproError):
            heat.step(np.zeros(20), source=np.zeros(5))

    def test_invalid_dt(self):
        with pytest.raises(ReproError):
            HeatEquation1D(Grid1D(4), dt=0.0)

    @pytest.mark.parametrize("cls", [HeatEquation1D, AdvectionDiffusion1D])
    def test_invalid_kappa(self, cls):
        with pytest.raises(ReproError, match="kappa must be positive"):
            cls(Grid1D(4), dt=0.1, kappa=0.0)


class TestPhysics:
    def test_heat_decays(self, heat, rng):
        # homogeneous Dirichlet diffusion: energy decays without source
        u = np.abs(rng.standard_normal(20))
        norms = []
        for _ in range(20):
            u = heat.step(u)
            norms.append(np.linalg.norm(u))
        assert norms[-1] < norms[0]

    def test_implicit_euler_unconditionally_stable(self):
        # huge dt must not blow up
        sys_big = HeatEquation1D(Grid1D(20), dt=10.0, kappa=1.0)
        u = np.ones(20)
        for _ in range(5):
            u = sys_big.step(u)
        assert np.linalg.norm(u) < np.sqrt(20)

    def test_maximum_principle(self, heat):
        # diffusion of a positive bump stays positive (M-matrix property)
        u = np.zeros(20)
        u[10] = 1.0
        for _ in range(10):
            u = heat.step(u)
            assert np.all(u >= -1e-12)

    def test_advection_transports_downstream(self):
        grid = Grid1D(40)
        sys_a = AdvectionDiffusion1D(grid, dt=0.005, kappa=1e-3, velocity=1.0)
        u = np.zeros(40)
        u[10] = 1.0
        com0 = np.sum(grid.points * u) / np.sum(u)
        for _ in range(20):
            u = sys_a.step(u)
        com1 = np.sum(grid.points * u) / np.sum(u)
        assert com1 > com0  # center of mass moved with the flow

    def test_negative_velocity_upwinding(self):
        sys_a = AdvectionDiffusion1D(Grid1D(30), dt=0.005, kappa=1e-3, velocity=-1.0)
        u = np.zeros(30)
        u[20] = 1.0
        for _ in range(20):
            u = sys_a.step(u)
        grid = Grid1D(30)
        assert np.sum(grid.points * u) / np.sum(u) < grid.points[20]


class TestEvolveAndImpulse:
    def test_evolve_shape(self, heat, rng):
        out = heat.evolve(5, m=rng.standard_normal((5, 20)))
        assert out.shape == (5, 20)

    def test_evolve_matches_manual_steps(self, heat, rng):
        m = rng.standard_normal((3, 20))
        out = heat.evolve(3, m=m)
        u = np.zeros(20)
        for k in range(3):
            u = heat.step(u, m[k])
            np.testing.assert_allclose(out[k], u, rtol=1e-14)

    def test_evolve_with_initial_condition(self, heat, rng):
        u0 = rng.standard_normal(20)
        out = heat.evolve(1, u0=u0)
        np.testing.assert_allclose(out[0], heat.step(u0), rtol=1e-14)

    def test_evolve_shape_validation(self, heat):
        with pytest.raises(ReproError):
            heat.evolve(2, m=np.zeros((3, 20)))

    def test_evolve_initial_condition_validation(self, heat):
        with pytest.raises(ReproError, match=r"u0 must have shape \(20,\)"):
            heat.evolve(2, u0=np.zeros(19))

    def test_impulse_response_superposition(self, heat):
        # linearity: response to e_i + e_j = sum of impulse responses
        r5 = heat.impulse_response(5, 4)
        r9 = heat.impulse_response(9, 4)
        src = np.zeros((4, 20))
        src[0, 5] = 1.0 / heat.dt
        src[0, 9] = 1.0 / heat.dt
        both = heat.evolve(4, m=src)
        np.testing.assert_allclose(both, r5 + r9, rtol=1e-12, atol=1e-12)

    def test_impulse_location_validated(self, heat):
        with pytest.raises(ReproError):
            heat.impulse_response(20, 4)

    def test_time_invariance(self, heat):
        # the property that makes the p2o map Toeplitz: delaying the
        # impulse by k steps delays the response by k steps
        nt = 8
        early = heat.impulse_response(10, nt)
        src = np.zeros((nt, 20))
        src[3, 10] = 1.0 / heat.dt
        late = heat.evolve(nt, m=src)
        np.testing.assert_allclose(late[3:], early[: nt - 3], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(late[:3], 0, atol=1e-14)
