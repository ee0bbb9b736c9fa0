"""Tests for the custom 3-D permutation kernel (cuTENSOR replacement)."""

import numpy as np
import pytest

from repro.blas.permute import (
    PERMUTE_KERNEL_NAME,
    permute3d,
    permute_launch,
    tiled_launch_geometry,
)
from repro.gpu.device import SimulatedDevice
from repro.gpu.kernel import Dim3, KernelLaunch, LaunchConfigError
from repro.gpu.specs import MI300X
from repro.util.dtypes import Precision
from repro.util.validation import ReproError


def naive_launch_geometry(shape):
    """Jodra-style direct mapping, one block axis per tensor axis — the
    launch the custom kernel replaces (it overflows grid.y / grid.z)."""
    a, b, c = shape
    return Dim3(x=max(1, -(-c // 256)), y=max(1, b), z=max(1, a))


class TestNumerics:
    @pytest.mark.parametrize("perm", [(0, 1, 2), (1, 2, 0), (2, 0, 1),
                                      (0, 2, 1), (2, 1, 0), (1, 0, 2)])
    def test_all_permutations(self, rng, perm):
        t = rng.standard_normal((3, 4, 5))
        out = permute3d(t, perm)
        np.testing.assert_array_equal(out, np.transpose(t, perm))
        assert out.flags["C_CONTIGUOUS"]

    def test_complex_supported(self, rng):
        # the cuTENSOR gap was specifically complex double permutations
        t = rng.standard_normal((4, 3, 6)) + 1j * rng.standard_normal((4, 3, 6))
        out = permute3d(t, (2, 0, 1))
        np.testing.assert_array_equal(out, np.transpose(t, (2, 0, 1)))
        assert out.dtype == np.complex128

    def test_roundtrip(self, rng):
        t = rng.standard_normal((5, 6, 7))
        fwd = permute3d(t, (1, 2, 0))
        back = permute3d(fwd, (2, 0, 1))
        np.testing.assert_array_equal(back, t)

    def test_invalid_perm(self, rng):
        with pytest.raises(ReproError):
            permute3d(rng.standard_normal((2, 2, 2)), (0, 1, 1))

    def test_rank_checked(self, rng):
        with pytest.raises(ReproError):
            permute3d(rng.standard_normal((2, 2)), (0, 1, 2))

    def test_into_strided_out(self, rng):
        t = rng.standard_normal((3, 4, 5))
        big = np.zeros((7, 3, 4))
        got = permute3d(t, (2, 0, 1), out=big[1:6])
        assert got.base is big
        np.testing.assert_array_equal(big[1:6], np.transpose(t, (2, 0, 1)))
        assert not big[0].any() and not big[6].any()
        with pytest.raises(ReproError):
            permute3d(t, (2, 0, 1), out=big)


class TestLaunchGeometry:
    def test_naive_overflows_at_fftmatvec_scale(self):
        # the p2o spectrum tensor on a large run: (Nt+1, Nd, Nm) with
        # Nm = 80000 in the middle after permuting: grid.y > 65535
        geometry = naive_launch_geometry((1001, 80000, 100))
        kernel = KernelLaunch(
            name="naive_permute", grid=geometry, block=Dim3(x=256)
        )
        with pytest.raises(LaunchConfigError):
            kernel.validate(MI300X)

    def test_tiled_fits_at_fftmatvec_scale(self):
        geometry = tiled_launch_geometry((1001, 80000, 100), MI300X)
        KernelLaunch(
            name=PERMUTE_KERNEL_NAME, grid=geometry, block=Dim3(x=256)
        ).validate(MI300X)

    def test_tiled_covers_all_elements(self):
        # folded grid must still have >= ceil(c/tile)*b*a blocks' worth
        shape = (70000, 70000, 10)
        g = tiled_launch_geometry(shape, MI300X)
        assert g.y <= 65535 and g.z <= 65535
        blocks = g.x * g.y * g.z
        needed = -(-shape[2] // 256) * shape[1] * shape[0]
        assert blocks >= needed / 256  # folding preserves coverage

    def test_small_tensors_identical(self):
        # below the limits the tiled geometry degenerates to the naive one
        shape = (10, 20, 3000)
        assert tiled_launch_geometry(shape, MI300X) == naive_launch_geometry(shape)


class TestDeviceExecution:
    def test_charges_setup_phase(self):
        dev = SimulatedDevice(MI300X, record_launches=True)
        with dev.clock.phase("setup"):
            dev.launch(permute_launch((8, 8, 8), 8, dev.spec), phase="setup")
        assert dev.clock.phase_total("setup") > 0
        assert dev.launch_log[0].name == PERMUTE_KERNEL_NAME

    def test_used_by_engine_setup(self, rng):
        from repro.core.matvec import FFTMatvec
        from repro.core.toeplitz import BlockTriangularToeplitz

        dev = SimulatedDevice(MI300X, record_launches=True)
        FFTMatvec(BlockTriangularToeplitz.random(8, 2, 4, rng=rng), device=dev)
        names = [r.name for r in dev.launch_log]
        assert names.count(PERMUTE_KERNEL_NAME) == 2  # before + after FFT
        assert dev.clock.phase_total("setup") > 0

    def test_setup_time_recorded(self, rng):
        from repro.core.matvec import FFTMatvec
        from repro.core.toeplitz import BlockTriangularToeplitz

        dev = SimulatedDevice(MI300X)
        eng = FFTMatvec(BlockTriangularToeplitz.random(8, 2, 4, rng=rng), device=dev)
        assert eng.setup_time > 0

    def test_setup_spectrum_matches_direct_rfft(self, rng):
        # the permute->FFT->permute flow must equal the direct transform
        from repro.core.matvec import FFTMatvec
        from repro.core.toeplitz import BlockTriangularToeplitz

        matrix = BlockTriangularToeplitz.random(12, 3, 5, rng=rng)
        eng = FFTMatvec(matrix)
        padded = np.concatenate([matrix.blocks, np.zeros_like(matrix.blocks)])
        direct = np.fft.rfft(padded, axis=0) * (1.0 / 24.0)
        assert np.array_equal(eng.spectrum(Precision.DOUBLE), direct)
