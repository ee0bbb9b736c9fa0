"""Cross-layer integration tests: the full FFTMatvec deployment story.

Each test walks one of the paper's end-to-end workflows across package
boundaries — hipify build -> runtime -> engine -> collectives -> inverse
problem — the way the real application composes them.
"""

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.pareto import optimal_config, sweep_configs
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import A100, MI250X_GCD, MI300X
from repro.hip.build import OnTheFlyBuildSystem
from repro.hip.runtime import GPURuntime
from repro.inverse import (
    GaussianPrior,
    Grid1D,
    HeatEquation1D,
    LinearBayesianProblem,
    ObservationOperator,
    P2OMap,
)
from repro.perf.phase_model import modeled_timing
from repro.util.dtypes import fill_low_mantissa

from tests.conftest import rel_err

FFTMATVEC_CUDA = """\
#include <cuda_runtime.h>
#include <cublas_v2.h>
#include <cufft.h>
#include <nccl.h>
#include <cutensor.h>

void setup(double* in, double* out, cufftHandle plan) {
    cutensorPermute(in, out);
    cufftExecD2Z(plan, (cufftDoubleReal*)out, (cufftDoubleComplex*)in);
    cutensorPermute(in, out);
}

void matvec(cublasHandle_t h, cufftHandle plan, ncclComm_t comm,
            cudaStream_t stream, double* m, cufftDoubleComplex* work) {
    cufftExecD2Z(plan, m, work);
    cublasZgemvStridedBatched(h, CUBLAS_OP_N, 100, 5000, nullptr,
                              (cuDoubleComplex*)work, 100, 500000,
                              (cuDoubleComplex*)work, 1, 5000, nullptr,
                              (cuDoubleComplex*)work, 1, 100, 1001);
    cufftExecZ2D(plan, work, m);
    ncclReduce(m, m, 100000, ncclDouble, ncclSum, 0, comm, stream);
    cudaStreamSynchronize(stream);
}
"""


class TestPortabilityPipeline:
    """CUDA source -> hipify -> build -> run on both vendors."""

    def test_full_port_and_run(self, rng):
        build = OnTheFlyBuildSystem(
            custom_overrides={"cutensorPermute": "fftmatvec_permute_kernel"}
        )
        build.add_source("fft_matvec.cu", FFTMATVEC_CUDA)

        # NVIDIA path: CUDA compiles as-is.
        exe_nv = build.build(A100)
        rt_nv = GPURuntime(SimulatedDevice(A100), exe_nv)

        # AMD path: hipified at compile time.
        exe_amd = build.build(MI300X)
        assert "hipblasZgemvStridedBatched" in exe_amd.translated["fft_matvec.cu"]
        assert "fftmatvec_permute_kernel" in exe_amd.translated["fft_matvec.cu"]
        rt_amd = GPURuntime(SimulatedDevice(MI300X), exe_amd)

        # The same engine workload runs against either runtime's device.
        matrix = BlockTriangularToeplitz.random(16, 3, 24, rng=rng)
        m = rng.standard_normal((16, 24))
        out_nv = FFTMatvec(matrix, device=rt_nv.device).matvec(m)
        out_amd = FFTMatvec(matrix, device=rt_amd.device).matvec(m)
        np.testing.assert_array_equal(out_nv, out_amd)  # numerics identical
        assert rt_nv.device.clock.now > 0 and rt_amd.device.clock.now > 0

    def test_vendor_specific_performance_from_same_source(self, rng):
        # the portability payoff: one source, architecture-appropriate
        # performance on each target
        t_a100 = modeled_timing(5000, 100, 1000, "ddddd", A100).total
        t_mi300 = modeled_timing(5000, 100, 1000, "ddddd", MI300X).total
        # MI300X has 2.65x the bandwidth of A100; times must reflect it
        assert t_mi300 < t_a100
        assert t_a100 / t_mi300 == pytest.approx(2.65, rel=0.35)


class TestDistributedInverseProblem:
    """LTI p2o map distributed over a grid, solved with mixed precision."""

    def test_distributed_p2o_matches_serial(self, rng):
        grid1d = Grid1D(24)
        system = HeatEquation1D(grid1d, dt=0.03, kappa=0.2)
        obs = ObservationOperator(grid1d.n, [4, 12, 20])
        p2o = P2OMap(system, obs, nt=16)

        pgrid = ProcessGrid(1, 4, net=FRONTIER_NETWORK)
        par = ParallelFFTMatvec(p2o.matrix, pgrid, spec=MI250X_GCD)
        m = fill_low_mantissa(rng.standard_normal((16, 24)))

        serial = p2o.apply(m)
        distributed = par.matvec(m)
        assert rel_err(distributed, serial) < 1e-12

        mixed = par.matvec(m, config="dssdd")
        assert 0 < rel_err(mixed, serial) < 1e-5

    def test_pareto_selected_config_safe_for_map_solve(self, rng):
        # select the config with the Pareto workflow, then use it in the
        # full Bayesian solve and confirm the MAP is noise-level close
        grid1d = Grid1D(16)
        system = HeatEquation1D(grid1d, dt=0.05, kappa=0.25)
        obs = ObservationOperator(grid1d.n, [3, 9, 13])
        p2o = P2OMap(system, obs, nt=12, device=SimulatedDevice(MI300X))
        prior = GaussianPrior(16, 12, gamma=5e-3, delta=4.0)
        problem = LinearBayesianProblem(p2o, prior, noise_std=0.05)

        points = sweep_configs(
            p2o.engine,
            rng=rng,
            time_model=lambda c: modeled_timing(5000, 100, 1000, c, MI300X).total,
        )
        best = optimal_config(points, 1e-7)

        d = rng.standard_normal((12, 3))
        m_mixed = problem.solve_map(d, config=best.config, tol=1e-9).m_map
        m_double = problem.solve_map(d, config="ddddd", tol=1e-9).m_map
        assert rel_err(m_mixed, m_double) < 1e-3  # far below the 5% noise


class TestCommunicatorBackedReduction:
    """Phase-5 reduction through the simulated communicator, timed on one clock."""

    def test_manual_spmd_matvec_with_row_reduce(self, rng):
        # hand-rolled data-parallel matvec: each rank owns a column
        # block, partial results tree-reduce to the root of one grid row
        nt, nd, nm, p = 12, 3, 16, 4
        matrix = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng)
        m = rng.standard_normal((nt, nm))

        grid = ProcessGrid(1, p, net=FRONTIER_NETWORK)
        row = grid.row_comm(0)
        partials = []
        for c0, c1 in ProcessGrid.split_extent(nm, p):
            local = BlockTriangularToeplitz(matrix.blocks[:, :, c0:c1])
            partials.append(FFTMatvec(local).matvec(m[:, c0:c1]))

        total = row.reduce(partials)
        ref = FFTMatvec(matrix).matvec(m)
        assert rel_err(total, ref) < 1e-12
        assert grid.clock.now > 0  # the collective charged simulated time
