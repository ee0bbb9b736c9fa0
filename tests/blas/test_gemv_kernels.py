"""Tests for the SBGEMV kernel numerics and performance models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.gemv_kernels import (
    OptimizedSBGEMV,
    RocblasSBGEMV,
    gemv_strided_batched_reference,
)
from repro.blas.types import BlasDatatype, GemvProblem, Operation
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import MI250X_GCD, MI300X, MI355X
from repro.util.validation import ReproError


def _loop_reference(A, x, op):
    """Per-batch explicit loop for cross-checking the vectorized path."""
    out = []
    for Ai, xi in zip(A, x):
        if op is Operation.N:
            out.append(Ai @ xi)
        elif op is Operation.T:
            out.append(Ai.T @ xi)
        else:
            out.append(Ai.conj().T @ xi)
    return np.stack(out)


class TestNumerics:
    @pytest.mark.parametrize("dt", list(BlasDatatype))
    @pytest.mark.parametrize("opname", ["N", "T", "C"])
    def test_matches_loop_reference(self, dt, opname, rng):
        op = Operation.parse(opname)
        if op is Operation.C and not dt.is_complex:
            pytest.skip("conjugate transpose only for complex")
        batch, m, n = 5, 7, 13
        if dt.is_complex:
            A = (rng.standard_normal((batch, m, n))
                 + 1j * rng.standard_normal((batch, m, n))).astype(dt.dtype)
        else:
            A = rng.standard_normal((batch, m, n)).astype(dt.dtype)
        xlen = m if op.is_transposed else n
        if dt.is_complex:
            x = (rng.standard_normal((batch, xlen))
                 + 1j * rng.standard_normal((batch, xlen))).astype(dt.dtype)
        else:
            x = rng.standard_normal((batch, xlen)).astype(dt.dtype)
        got = gemv_strided_batched_reference(A, x, op)
        want = _loop_reference(A, x, op)
        rtol = 1e-4 if dt.precision.char == "s" else 1e-12
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol)

    def test_shape_validation(self, rng):
        A = rng.standard_normal((2, 3, 4))
        with pytest.raises(ReproError):
            gemv_strided_batched_reference(A, rng.standard_normal((2, 3)), Operation.N)
        with pytest.raises(ReproError):
            gemv_strided_batched_reference(A, rng.standard_normal((2, 4)), Operation.T)
        with pytest.raises(ReproError):
            gemv_strided_batched_reference(rng.standard_normal((3, 4)), rng.standard_normal((3,)), Operation.N)

    def test_single_precision_stays_single(self, rng):
        A = rng.standard_normal((2, 3, 4)).astype(np.complex64)
        x = rng.standard_normal((2, 4)).astype(np.complex64)
        assert gemv_strided_batched_reference(A, x, Operation.N).dtype == np.complex64

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 8), st.integers(0, 10**6))
    def test_property_adjoint_consistency(self, batch, m, n, seed):
        # <A x, y> == <x, A^H y> per batch element
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((batch, m, n)) + 1j * rng.standard_normal((batch, m, n))
        x = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
        y = rng.standard_normal((batch, m)) + 1j * rng.standard_normal((batch, m))
        Ax = gemv_strided_batched_reference(A, x, Operation.N)
        Ahy = gemv_strided_batched_reference(A, y, Operation.C)
        lhs = np.sum(Ax * np.conj(y))
        rhs = np.sum(x * np.conj(Ahy))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestKernelRun:
    def _problem(self, op=Operation.C, m=16, n=256, batch=10):
        return GemvProblem(m=m, n=n, batch=batch, datatype=BlasDatatype.Z, operation=op)

    def test_run_charges_device(self, rng):
        dev = SimulatedDevice(MI300X)
        p = self._problem()
        A = (rng.standard_normal((10, 16, 256)) + 0j)
        x = rng.standard_normal((10, 16)) + 0j
        y = OptimizedSBGEMV().run(A, x, p, device=dev, phase="sbgemv")
        assert y.shape == (10, 256)
        assert dev.clock.now > 0

    def test_dtype_mismatch_rejected(self, rng):
        p = self._problem()
        A = rng.standard_normal((10, 16, 256)).astype(np.complex64)
        x = rng.standard_normal((10, 16)).astype(np.complex64)
        with pytest.raises(ReproError, match="dtype"):
            OptimizedSBGEMV().run(A, x, p)

    def test_optimized_rejects_nontranspose(self, rng):
        p = self._problem(op=Operation.N)
        A = rng.standard_normal((10, 16, 256)) + 0j
        x = rng.standard_normal((10, 256)) + 0j
        with pytest.raises(ReproError):
            OptimizedSBGEMV().run(A, x, p)

    def test_rocblas_supports_everything(self):
        assert RocblasSBGEMV().supports(self._problem(op=Operation.N))
        assert RocblasSBGEMV().supports(self._problem(op=Operation.C))
        assert not OptimizedSBGEMV().supports(self._problem(op=Operation.N))


class TestLaunchGeometry:
    def test_rocblas_transpose_one_block_per_column(self):
        # Section 3.1.1: grid = Nm x 1 x (Nt+1) for the transpose kernel
        p = GemvProblem(m=100, n=5000, batch=1001,
                        datatype=BlasDatatype.Z, operation=Operation.C)
        grid, _ = RocblasSBGEMV().launch_geometry(p, MI300X)
        assert grid.as_tuple() == (5000, 1, 1001)

    def test_rocblas_nontranspose_grid(self):
        # grid = ceil(Nd/64) x 1 x (Nt+1)
        p = GemvProblem(m=100, n=5000, batch=1001,
                        datatype=BlasDatatype.Z, operation=Operation.N)
        grid, _ = RocblasSBGEMV().launch_geometry(p, MI300X)
        assert grid.as_tuple() == (2, 1, 1001)

    def test_optimized_tiles_columns(self):
        p = GemvProblem(m=100, n=5000, batch=1001,
                        datatype=BlasDatatype.Z, operation=Operation.C)
        grid, block = OptimizedSBGEMV().launch_geometry(p, MI300X)
        assert grid.x == -(-5000 // 64)
        assert block.y > 1  # 2-D threadblock


class TestPerformanceModel:
    def test_optimized_wins_short_wide(self):
        # the paper's headline: short-and-wide transpose problems
        for dt in BlasDatatype:
            op = Operation.C if dt.is_complex else Operation.T
            p = GemvProblem(m=128, n=4096, batch=100, datatype=dt, operation=op)
            t_old = RocblasSBGEMV().modeled_time(p, MI300X)
            t_new = OptimizedSBGEMV().modeled_time(p, MI300X)
            assert t_new < t_old, dt

    def test_rocblas_improves_with_m(self):
        # larger m -> more work per block -> better rocBLAS efficiency
        effs = []
        for m in (128, 256, 512, 1024):
            p = GemvProblem(m=m, n=8 * m, batch=100,
                            datatype=BlasDatatype.S, operation=Operation.T)
            effs.append(RocblasSBGEMV().efficiency(p, MI300X))
        assert effs == sorted(effs)

    def test_calibration_anchors_fig1(self):
        # model reproduces the paper's bar annotations at tabled shapes
        p = GemvProblem(m=128, n=4096, batch=100,
                        datatype=BlasDatatype.S, operation=Operation.T)
        assert RocblasSBGEMV().efficiency(p, MI300X) == pytest.approx(0.150, abs=0.01)
        assert OptimizedSBGEMV().efficiency(p, MI300X) == pytest.approx(0.835, abs=0.01)

    def test_architecture_rescaling(self):
        p = GemvProblem(m=128, n=4096, batch=100,
                        datatype=BlasDatatype.Z, operation=Operation.C)
        e300 = OptimizedSBGEMV().efficiency(p, MI300X)
        e355 = OptimizedSBGEMV().efficiency(p, MI355X)
        assert e355 < e300  # CDNA4 kernels not yet tuned

    def test_nontranspose_near_arch_fraction(self):
        # FFTMatvec's F-direction SBGEMV achieves ~the tuned fraction
        p = GemvProblem(m=100, n=5000, batch=1001,
                        datatype=BlasDatatype.Z, operation=Operation.N)
        eff = RocblasSBGEMV().efficiency(p, MI250X_GCD)
        assert eff == pytest.approx(0.70, abs=0.05)

    def test_modeled_bandwidth_consistent(self):
        p = GemvProblem(m=256, n=2048, batch=100,
                        datatype=BlasDatatype.D, operation=Operation.T)
        k = OptimizedSBGEMV()
        # rocblas-bench's metric: problem bytes / modeled time.
        bw = p.total_bytes / k.modeled_time(p, MI300X)
        assert bw == pytest.approx(k.efficiency(p, MI300X) * MI300X.peak_bandwidth)
        assert bw < MI300X.peak_bandwidth
