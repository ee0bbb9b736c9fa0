"""Tests for the parameter-to-observable map."""

import numpy as np
import pytest

from repro.core.toeplitz import BlockTriangularToeplitz
from repro.inverse.lti import AdvectionDiffusion1D, HeatEquation1D
from repro.inverse.mesh import Grid1D
from repro.inverse.observation import ObservationOperator
from repro.inverse.p2o import P2OMap, build_p2o_blocks
from repro.util.validation import ReproError

from tests.conftest import rel_err


@pytest.fixture(scope="module")
def setup():
    grid = Grid1D(16)
    system = HeatEquation1D(grid, dt=0.02, kappa=0.3)
    obs = ObservationOperator(grid.n, [2, 8, 13])
    return grid, system, obs


def _forward_blocks(system, obs, nt):
    """The kernel by Nm forward impulse solves, one per parameter point."""
    blocks = np.empty((nt, obs.nd, system.n))
    for j in range(system.n):
        blocks[:, :, j] = system.dt * obs.observe(system.impulse_response(j, nt))
    return blocks


class TestBuildBlocks:
    def test_shape(self, setup):
        _, system, obs = setup
        blocks = build_p2o_blocks(system, obs, nt=6)
        assert blocks.shape == (6, 3, 16)

    def test_adjoint_solves_agree_with_forward_solves(self, setup):
        # Nd < Nm: Nd adjoint solves build the kernel Nm forward solves do
        _, system, obs = setup
        ba = build_p2o_blocks(system, obs, 6)
        np.testing.assert_allclose(ba, _forward_blocks(system, obs, 6), rtol=1e-10, atol=1e-12)

    def test_every_point_observed_builds_by_forward_solves(self, setup):
        _, system, _ = setup
        obs = ObservationOperator(system.n, range(system.n))
        np.testing.assert_array_equal(
            build_p2o_blocks(system, obs, 4), _forward_blocks(system, obs, 4)
        )

    def test_mismatched_operator(self, setup):
        _, system, _ = setup
        with pytest.raises(ReproError):
            build_p2o_blocks(system, ObservationOperator(5, [1]), 4)

    def test_advection_system_works_too(self):
        grid = Grid1D(12)
        system = AdvectionDiffusion1D(grid, dt=0.01, kappa=0.05, velocity=0.5)
        obs = ObservationOperator(grid.n, [9])
        ba = build_p2o_blocks(system, obs, 5)
        np.testing.assert_allclose(ba, _forward_blocks(system, obs, 5), rtol=1e-9, atol=1e-12)


class TestP2OMap:
    def test_fft_path_matches_pde(self, setup, rng):
        _, system, obs = setup
        p2o = P2OMap(system, obs, nt=10)
        m = rng.standard_normal((10, 16))
        assert rel_err(p2o.apply(m), obs.observe(system.evolve(10, m=m))) < 1e-11

    def test_this_is_the_toeplitz_structure(self, setup, rng):
        # time invariance: the dense p2o matrix is block-Toeplitz
        _, system, obs = setup
        p2o = P2OMap(system, obs, nt=8)
        D = p2o.matrix.dense()
        nd, nm = 3, 16
        for i in range(1, 8):
            for j in range(1, i + 1):
                np.testing.assert_allclose(
                    D[i * nd : (i + 1) * nd, j * nm : (j + 1) * nm],
                    D[(i - 1) * nd : i * nd, (j - 1) * nm : j * nm],
                    rtol=1e-12,
                    atol=1e-14,
                )

    def test_adjoint_via_engine(self, setup, rng):
        _, system, obs = setup
        p2o = P2OMap(system, obs, nt=10)
        m = rng.standard_normal((10, 16))
        d = rng.standard_normal((10, 3))
        lhs = np.vdot(p2o.apply(m), d)
        rhs = np.vdot(m, p2o.applyT(d))
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_mixed_precision_config_flows_through(self, setup, rng):
        _, system, obs = setup
        p2o = P2OMap(system, obs, nt=10)
        m = rng.standard_normal((10, 16))
        d_double = p2o.apply(m, config="ddddd")
        d_mixed = p2o.apply(m, config="dssdd")
        err = rel_err(d_mixed, d_double)
        assert 0 < err < 1e-4

    def test_dimensions(self, setup):
        _, system, obs = setup
        p2o = P2OMap(system, obs, nt=10)
        assert p2o.nm == 16 and p2o.nd == 3

    def test_smoothing_kernel_decays(self, setup):
        # a stable dissipative system's impulse response decays in time
        _, system, obs = setup
        p2o = P2OMap(system, obs, nt=30)
        n0 = np.linalg.norm(p2o.matrix.blocks[1])
        n_late = np.linalg.norm(p2o.matrix.blocks[-1])
        assert n_late < n0
