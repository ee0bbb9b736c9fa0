"""Remark-1 benches: the "outer-loop" workloads that motivate the paper.

A single matvec takes milliseconds; the payoff of mixed precision is in
workloads that take millions of them — in the paper, dense data-space
Hessian assembly, optimal sensor placement, posterior UQ.  These benches
run those workloads end to end (real numerics at laptop scale) and model
the time the mixed configuration saves at paper scale.  The package's
own data-space assembly reads ``H_d`` from the held kernel with no
matvec (``inverse/bayes.py``); the Remark-1 projection below prices the
paper's engine assembly, and the MAP solve still runs FFTMatvec.
"""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.core.operator import ForwardOperator, GaussNewtonHessian, IdentityOperator
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import MI250X_GCD, MI300X
from repro.inverse import (
    GaussianPrior,
    Grid1D,
    HeatEquation1D,
    LinearBayesianProblem,
    DataSpacePosterior,
    ObservationOperator,
    P2OMap,
)
from repro.inverse.cg import block_conjugate_gradient, conjugate_gradient
from repro.inverse.oed import expected_information_gain
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
        # on a 1x1 grid, whose host stream carries the generate/save work.
        # The serial baseline is the host-less wall plus every vector's
        # generate + save.
        matrix = BlockTriangularToeplitz.random(32, 4, 64, rng=rng, decay=0.05)
        host = HostModel(20e-6, 50e-6)
        engines = {
            fused: ParallelFFTMatvec(
                matrix, ProcessGrid(1, 1), spec=MI250X_GCD,
                host=host if fused else None, max_block_k=1,
            )
            for fused in (False, True)
        }
        units = np.zeros((32, 4, 32))
        for j in range(32):
            units[j // 4, j % 4, j] = 1.0

        def assemble():
            walls = {}
            for fused, engine in engines.items():
                cols = engine.rmatmat(units)
                walls[fused] = engine.last_timing.wall
            serial = walls[False] + 32 * host.per_vector
            return cols.reshape(32 * 64, 32), serial, walls[True]

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
    def test_exact_posterior(self, benchmark, bayes_problem):
        post = benchmark.pedantic(
            DataSpacePosterior.compute,
            args=(bayes_problem,),
            rounds=1,
            iterations=1,
        )
        # The dense oracle: Gamma_post = (F* F / sigma^2 + Gp^{-1})^{-1}.
        p2o, prior = bayes_problem.p2o, bayes_problem.prior
        nt, nm = p2o.nt, p2o.nm
        F = np.stack(
            [p2o.apply(e.reshape(nt, nm)).ravel() for e in np.eye(nt * nm)], axis=1
        )
        prec = np.kron(np.eye(nt), prior._Kinv.toarray())
        var = np.diag(np.linalg.inv(F.T @ F / bayes_problem.noise_std**2 + prec))
        eig = expected_information_gain(bayes_problem.data_space_hessian())
        print(f"\nexact posterior: {len(post.eigenvalues)}x{len(post.eigenvalues)} factor, "
              f"EIG {post.information_gain():.2f} nats, lam_1={post.eigenvalues[0]:.2f}")
        assert abs(post.information_gain() - eig) <= 1e-12 * eig
        np.testing.assert_allclose(post.pointwise_variance().ravel(), var, rtol=1e-12)


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
              f"final residual {res.cg.final_residual:.1e} "
              f"(preconditioned: {res.cg.preconditioned} — the prior precision is no ridge)")
        assert res.cg.converged and res.cg.iteration_config == "ddsdd"
        assert not res.cg.preconditioned

    def test_iterations_with_and_without_m(self, benchmark, lowered_problem, rng):
        # The same engine under a ridge: M is admitted, and both solvers
        # are measured with it and without it (a lambda hides M).
        engine = lowered_problem.p2o.engine
        forward = ForwardOperator(engine)
        hess = GaussNewtonHessian(
            forward, lowered_problem.noise_std, 1e-8 * IdentityOperator(forward.in_shape)
        )
        rhs = engine.rmatmat(rng.standard_normal((32, 24, 4))) / lowered_problem.noise_std**2
        res = benchmark(conjugate_gradient, hess.apply, rhs[:, :, 0], tol=1e-10, maxiter=500)
        plain = conjugate_gradient(lambda v: hess.apply(v), rhs[:, :, 0], tol=1e-10, maxiter=500)
        blk = block_conjugate_gradient(hess.apply_block, rhs, tol=1e-10, maxiter=500)
        blk_plain = block_conjugate_gradient(
            lambda V: hess.apply_block(V), rhs, tol=1e-10, maxiter=500
        )
        print(f"\nridge solve: CG {plain.iterations} -> {res.iterations} iterations with M "
              f"({res.iteration_config}, {res.exact_applies} double applies); "
              f"block CG k=4 {blk_plain.iterations} -> {blk.iterations}")
        assert res.converged and res.preconditioned and not plain.preconditioned
        assert blk.all_converged and blk.preconditioned
        assert res.iterations < plain.iterations and blk.iterations < blk_plain.iterations


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
