"""Remark-1 benches: the "outer-loop" workloads that motivate the paper.

A single matvec takes milliseconds; the payoff of mixed precision is in
workloads that take millions of them — dense data-space Hessian
assembly, optimal sensor placement, posterior UQ.  These benches run
those workloads end to end (real numerics at laptop scale) and model the
time the mixed configuration saves at paper scale.
"""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import MI250X_GCD, MI300X
from repro.inverse import (
    GaussianPrior,
    Grid1D,
    HeatEquation1D,
    LinearBayesianProblem,
    LowRankPosterior,
    ObservationOperator,
    P2OMap,
)
from repro.perf.memory_model import min_gpus_for_problem
from repro.perf.phase_model import modeled_timing
from repro.util.timing import HostModel


@pytest.fixture(scope="module")
def bayes_problem():
    grid = Grid1D(24)
    system = HeatEquation1D(grid, dt=0.04, kappa=0.2)
    obs = ObservationOperator(grid.n, [4, 12, 19])
    p2o = P2OMap(system, obs, nt=16)
    prior = GaussianPrior(24, 16, gamma=5e-3, delta=4.0)
    return LinearBayesianProblem(p2o, prior, noise_std=0.05)


class TestHessianAssembly:
    def test_dense_hessian_with_overlap(self, benchmark, rng):
        # Section 4.2.2: dense-operator assembly overlaps matvecs with
        # host vector generation/saving — one F* action per unit vector
        # on a 1x1 grid, whose host stream carries the generate/save work
        matrix = BlockTriangularToeplitz.random(32, 4, 64, rng=rng, decay=0.05)
        engine = ParallelFFTMatvec(
            matrix, ProcessGrid(1, 1), spec=MI250X_GCD,
            host=HostModel(20e-6, 50e-6), max_block_k=1,
        )
        units = np.zeros((32, 4, 32))
        for j in range(32):
            units[j // 4, j % 4, j] = 1.0

        def assemble():
            walls = {}
            for fused in (False, True):
                cols = engine.rmatmat(units, overlap_host=fused)
                walls[fused] = engine.last_timing.wall
            return cols.reshape(32 * 64, 32), walls[False], walls[True]

        cols, serial, overlapped = benchmark(assemble)
        print(f"\n32 adjoint matvecs: serial {serial * 1e3:.2f} ms -> overlapped "
              f"{overlapped * 1e3:.2f} ms ({serial / overlapped:.2f}x)")
        assert serial / overlapped > 1.0
        assert cols.shape == (32 * 64, 32)

    def test_remark1_scale_projection(self, benchmark):
        # the paper's O(1e5) matvecs for a sensor-placement Hessian:
        # project the mixed-precision saving at paper scale
        def project():
            n_matvecs = 2 * 100 * 1000  # Nd * Nt actions of F and F*
            t_double = modeled_timing(5000, 100, 1000, "ddddd", MI250X_GCD).total
            t_mixed = modeled_timing(5000, 100, 1000, "dssdd", MI250X_GCD).total
            return n_matvecs * t_double, n_matvecs * t_mixed

        t_d, t_m = benchmark(project)
        print(f"\nre-assembling one dense data-space Hessian "
              f"(2*Nd*Nt = 200k matvecs): {t_d / 60:.1f} min double -> "
              f"{t_m / 60:.1f} min mixed ({t_d / t_m:.2f}x)")
        assert t_d / t_m > 1.5  # the Remark-1 payoff


class TestPosteriorUQ:
    def test_lowrank_posterior(self, benchmark, bayes_problem):
        post = benchmark.pedantic(
            LowRankPosterior.compute,
            args=(bayes_problem, 16),
            kwargs={"rng": np.random.default_rng(0)},
            rounds=1,
            iterations=1,
        )
        print(f"\nrank-16 posterior: {post.hessian_actions} Hessian actions, "
              f"EIG {post.information_gain():.2f} nats, "
              f"lam_1={post.eigenvalues[0]:.2f}")
        assert post.information_gain() > 0
        var = post.pointwise_variance()
        assert np.all(var > 0)


class TestIterativeRefinement:
    @pytest.fixture(scope="class")
    def lowered_problem(self):
        # (32, 24, 96): a 1.2 MB double spectrum, so CG iterates at ddsdd
        # and refines its residual in double.
        nt, nd, nm = 32, 24, 96
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((nt, nd, nm)) * np.exp(-0.05 * np.arange(nt))[:, None, None]
        obs = ObservationOperator(nm, list(range(2, nm, 4)))
        p2o = P2OMap(HeatEquation1D(Grid1D(nm), dt=0.05, kappa=0.25), obs, nt, blocks=blocks)
        return LinearBayesianProblem(p2o, GaussianPrior(nm, nt), noise_std=0.5)

    def test_refinement_vs_double_cg(self, benchmark, lowered_problem, rng):
        d = rng.standard_normal((32, 24))
        res = benchmark(lowered_problem.solve_map, d, tol=1e-10)
        print(f"\nMAP solve: {res.cg.iterations} iterations at "
              f"{res.cg.iteration_config}, {res.cg.exact_applies} double applies, "
              f"final residual {res.cg.final_residual:.1e}")
        assert res.cg.converged and res.cg.iteration_config == "ddsdd"


class TestCapacityPlanning:
    def test_billion_parameter_sizing(self, benchmark):
        # Section 4.2.2's capacity discussion across GPU generations
        def size():
            out = {}
            for spec in (MI250X_GCD, MI300X):
                out[spec.name] = min_gpus_for_problem(
                    1_000_000, 600, 1000, spec
                )
            return out

        counts = benchmark(size)
        print(f"\nGPUs needed for the 1B-parameter problem of [21]: {counts}")
        assert counts["MI300X"] < counts["MI250X (Single GCD)"]
