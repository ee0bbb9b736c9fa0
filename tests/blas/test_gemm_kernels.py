"""SBGEMM kernels and the blocked dispatcher path."""

import numpy as np
import pytest

from repro.blas.dispatch import _PROBE_ROWS, _PROBE_SKEW, SBGEMVDispatcher
from repro.blas.gemm_kernels import (
    OptimizedSBGEMM,
    RocblasSBGEMM,
    gemm_strided_batched_reference,
)
from repro.blas.gemv_kernels import gemv_strided_batched_reference
from repro.blas.types import BlasDatatype, GemmProblem, GemvProblem, Operation
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import MI250X_GCD, MI300X, get_gpu
from repro.util.validation import ReproError


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _as_gemv(p):
    """The single-RHS GEMV problem with ``p``'s matrix and operation."""
    return GemvProblem(m=p.m, n=p.n, batch=p.batch, datatype=p.datatype, operation=p.operation)


class TestGemmProblem:
    def test_shapes_and_bytes(self):
        p = GemmProblem(m=64, n=512, k=16, batch=257,
                        datatype=BlasDatatype.Z, operation=Operation.C)
        assert p.out_rows == 512 and p.in_rows == 64
        assert p.matrix_bytes == 64 * 512 * 257 * 16
        assert p.total_bytes == p.matrix_bytes + p.panel_bytes
        assert p.is_short_wide

    def test_blocked_traffic_beats_looped_gemv(self):
        p = GemmProblem(m=64, n=512, k=16, batch=257,
                        datatype=BlasDatatype.Z, operation=Operation.C)
        # The point of the blocked path: the matrix is read once, not k
        # times, so total traffic is several times smaller.
        assert p.k * _as_gemv(p).total_bytes > 3 * p.total_bytes

    def test_conjugate_requires_complex(self):
        with pytest.raises(ReproError):
            GemmProblem(m=4, n=4, k=2, batch=1,
                        datatype=BlasDatatype.D, operation=Operation.C)


class TestReferenceNumerics:
    @pytest.mark.parametrize("op", [Operation.N, Operation.T, Operation.C])
    def test_matches_gemv_per_column(self, rng, op):
        A = _random_complex(rng, (5, 8, 12))
        in_rows = 12 if op is Operation.N else 8
        B = _random_complex(rng, (5, in_rows, 3))
        C = gemm_strided_batched_reference(A, B, op)
        assert C.shape == (5, 12 if op is not Operation.N else 8, 3)
        for j in range(3):
            y = gemv_strided_batched_reference(A, B[:, :, j], op)
            np.testing.assert_allclose(C[:, :, j], y, rtol=0, atol=1e-13)

    def test_shape_validation(self, rng):
        A = _random_complex(rng, (5, 8, 12))
        with pytest.raises(ReproError):
            gemm_strided_batched_reference(A, _random_complex(rng, (5, 12)), "C")
        with pytest.raises(ReproError):
            gemm_strided_batched_reference(A, _random_complex(rng, (5, 12, 3)), "C")


class TestKernelModels:
    def setup_method(self):
        self.rocblas = RocblasSBGEMM()
        self.optimized = OptimizedSBGEMM()

    def _prob(self, m, n, k, dt=BlasDatatype.Z, op=Operation.C):
        return GemmProblem(m=m, n=n, k=k, batch=100, datatype=dt, operation=op)

    def test_optimized_transpose_only(self):
        p = self._prob(64, 512, 8, op=Operation.N)
        assert not self.optimized.supports(p)
        with pytest.raises(ReproError):
            self.optimized.efficiency(p, MI300X)

    def test_optimized_wins_short_wide_small_k(self):
        p = self._prob(64, 512, 8)
        assert (self.optimized.modeled_time(p, MI300X)
                < self.rocblas.modeled_time(p, MI300X))

    def test_rocblas_wins_wide_rhs(self):
        p = self._prob(512, 512, 64)
        assert (self.rocblas.modeled_time(p, MI300X)
                < self.optimized.modeled_time(p, MI300X))

    def test_efficiency_bounded(self):
        for k in (1, 4, 16, 64):
            for m in (64, 512, 2048):
                p = self._prob(m, 8 * m, k)
                for kern in (self.rocblas, self.optimized):
                    e = kern.efficiency(p, MI300X)
                    assert 0.0 < e <= 0.95

    def test_gemm_beats_looped_gemv_model(self):
        # The acceptance-criterion regime: FFTMatvec Phase 3 at k = 16.
        p = GemmProblem(m=64, n=512, k=16, batch=257,
                        datatype=BlasDatatype.Z, operation=Operation.C)
        disp = SBGEMVDispatcher(MI300X)
        t_block = disp.select_gemm(p).modeled_time(p, MI300X)
        t_gemv = disp.select(_as_gemv(p)).modeled_time(_as_gemv(p), MI300X)
        assert 16 * t_gemv > 3 * t_block

    def test_run_charges_device_and_validates_dtype(self, rng):
        dev = SimulatedDevice(MI300X)
        p = self._prob(16, 64, 4)
        A = _random_complex(rng, (100, 16, 64))
        B = _random_complex(rng, (100, 16, 4))
        t0 = dev.clock.now
        C = self.optimized.run(A, B, p, device=dev, phase="sbgemv")
        assert dev.clock.now > t0
        assert C.shape == (100, 64, 4)
        with pytest.raises(ReproError):
            self.optimized.run(A.astype(np.complex64), B, p, device=dev)


class TestDispatcherGemm:
    def test_transition_points_cached_and_monotone_in_k(self):
        disp = SBGEMVDispatcher(MI300X)
        tp_small = disp.gemm_transition_point("z", "C", 4)
        tp_large = disp.gemm_transition_point("z", "C", 64)
        assert tp_small >= tp_large  # wide RHS favours the vendor GEMM
        assert ("z" not in disp._gemm_transition)  # keys are parsed enums
        assert disp.gemm_transition_point(BlasDatatype.Z, Operation.C, 4) == tp_small

    def test_non_transpose_dispatches_rocblas(self):
        disp = SBGEMVDispatcher(MI300X)
        p = GemmProblem(m=64, n=64, k=8, batch=10,
                        datatype=BlasDatatype.Z, operation=Operation.N)
        assert disp.select_gemm(p) is disp.rocblas_gemm
        assert disp.gemm_transition_point("z", "N", 8) == 0

    def test_gemm_strided_batched_counts_and_matches_reference(self, rng):
        disp = SBGEMVDispatcher(MI250X_GCD)
        A = _random_complex(rng, (20, 8, 64))
        B = _random_complex(rng, (20, 8, 6))
        C = disp.gemm_strided_batched(A, B, Operation.C)
        ref = gemm_strided_batched_reference(A, B, Operation.C)
        np.testing.assert_allclose(C, ref, rtol=0, atol=1e-13)
        assert sum(
            disp.dispatch_counts[k.name]
            for k in (disp.rocblas_gemm, disp.optimized_gemm)
        ) == 1

    def test_k1_degenerates_to_gemv_dispatch(self, rng):
        disp = SBGEMVDispatcher(MI300X)
        A = _random_complex(rng, (20, 8, 64))
        B = _random_complex(rng, (20, 8, 1))
        C = disp.gemm_strided_batched(A, B, Operation.C)
        assert C.shape == (20, 64, 1)
        # The GEMV kernels (not the GEMM ones) handled it.
        assert (disp.dispatch_counts[disp.rocblas.name]
                + disp.dispatch_counts[disp.optimized.name]) == 1
        assert disp.dispatch_counts[disp.rocblas_gemm.name] == 0
        assert disp.dispatch_counts[disp.optimized_gemm.name] == 0

    @pytest.mark.parametrize("dt", "sdcz")
    @pytest.mark.parametrize("gpu", ["MI250X", "MI300X", "MI355X"])
    def test_transition_points_are_the_model_probe(self, gpu, dt):
        # The probe is the one source of GEMM transition points: no table
        # can be installed over it.  Per RHS bucket the point is the
        # largest probed row count whose short-and-wide problem the
        # optimized SBGEMM models faster, and dispatch at the probe shapes
        # follows it.
        spec = get_gpu(gpu)
        disp = SBGEMVDispatcher(spec)
        assert not hasattr(disp, "set_gemm_transition_points")
        datatype = BlasDatatype.parse(dt)
        op = Operation.C if datatype.is_complex else Operation.T
        for k in (2, 4, 8, 16, 64):
            probes = [
                GemmProblem(m=m, n=m * _PROBE_SKEW, k=k, batch=100,
                            datatype=datatype, operation=op)
                for m in _PROBE_ROWS
            ]
            wins = [
                p.m for p in probes
                if disp.optimized_gemm.modeled_time(p, spec)
                < disp.rocblas_gemm.modeled_time(p, spec)
            ]
            point = disp.gemm_transition_point(dt, op, k)
            assert point == max(wins, default=0), k
            for p in probes:
                want = disp.optimized_gemm if p.m <= point else disp.rocblas_gemm
                assert disp.select_gemm(p) is want, (k, p.m)
