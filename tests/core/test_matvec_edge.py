"""Edge cases and failure injection for the FFTMatvec engine."""

import numpy as np
import pytest

from repro.core.matvec import FFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.util.dtypes import Precision
from repro.util.validation import ReproError

from tests.conftest import rel_err


def make(nt=16, nd=3, nm=10, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return FFTMatvec(BlockTriangularToeplitz.random(nt, nd, nm, rng=rng), **kw), rng


class TestDegenerateShapes:
    def test_nt_1(self, rng):
        # a single time step: F is just the dense block F_0
        blocks = rng.standard_normal((1, 3, 5))
        eng = FFTMatvec(blocks)
        m = rng.standard_normal((1, 5))
        np.testing.assert_allclose(eng.matvec(m), m @ blocks[0].T, rtol=1e-12)

    def test_single_sensor_single_param(self, rng):
        blocks = rng.standard_normal((8, 1, 1))
        eng = FFTMatvec(blocks)
        m = rng.standard_normal((8, 1))
        ref = BlockTriangularToeplitz(blocks).matvec_reference(m)
        assert rel_err(eng.matvec(m), ref) < 1e-12

    def test_wide_and_tall(self):
        for nt, nd, nm in [(4, 1, 50), (4, 50, 1)]:
            eng, rng = make(nt, nd, nm, seed=nt + nd)
            m = rng.standard_normal((nt, nm))
            ref = eng.matrix.matvec_reference(m)
            assert rel_err(eng.matvec(m), ref) < 1e-11


class TestSpecialValues:
    def test_zero_input_zero_output(self):
        eng, _ = make()
        out = eng.matvec(np.zeros((16, 10)))
        np.testing.assert_array_equal(out, 0.0)
        # and in mixed precision too
        out = eng.matvec(np.zeros((16, 10)), config="sssss")
        np.testing.assert_array_equal(out, 0.0)

    def test_nan_input_propagates(self):
        eng, rng = make()
        m = rng.standard_normal((16, 10))
        m[3, 4] = np.nan
        out = eng.matvec(m)
        assert np.isnan(out).any()  # garbage in, NaN out — never silent

    def test_zero_matrix(self, rng):
        eng = FFTMatvec(np.zeros((8, 2, 4)))
        out = eng.matvec(rng.standard_normal((8, 4)))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_float32_overflow_in_single_config(self):
        # values beyond float32 range overflow to inf in single configs
        # instead of silently wrapping — the engine must surface that
        eng, rng = make(seed=3)
        m = rng.standard_normal((16, 10)) * 1e38
        out_d = eng.matvec(m, config="ddddd")
        assert np.all(np.isfinite(out_d))
        with np.errstate(over="ignore", invalid="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out_s = eng.matvec(m, config="sssss")
        assert not np.all(np.isfinite(out_s))

    def test_tiny_values_survive_double(self):
        eng, rng = make(seed=4)
        m = rng.standard_normal((16, 10)) * 1e-200
        out = eng.matvec(m)
        ref = eng.matrix.matvec_reference(m)
        assert rel_err(out, ref) < 1e-10


class TestIdentityKernel:
    def test_identity_f0(self, rng):
        # F_0 = I, rest zero: F m == m
        blocks = np.zeros((8, 4, 4))
        blocks[0] = np.eye(4)
        eng = FFTMatvec(blocks)
        m = rng.standard_normal((8, 4))
        assert rel_err(eng.matvec(m), m) < 1e-13

    def test_pure_delay(self, rng):
        # F_2 = I, rest zero: F m == m delayed by two steps
        blocks = np.zeros((8, 4, 4))
        blocks[2] = np.eye(4)
        eng = FFTMatvec(blocks)
        m = rng.standard_normal((8, 4))
        out = eng.matvec(m)
        np.testing.assert_allclose(out[2:], m[:-2], rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(out[:2], 0, atol=1e-12)


class TestEngineReuse:
    def test_interleaved_configs_consistent(self):
        # switching configurations must not leak state between calls
        eng, rng = make(seed=5)
        m = rng.standard_normal((16, 10))
        first_d = eng.matvec(m, config="ddddd")
        first_s = eng.matvec(m, config="sssss")
        for _ in range(3):
            np.testing.assert_array_equal(eng.matvec(m, config="sssss"), first_s)
            np.testing.assert_array_equal(eng.matvec(m, config="ddddd"), first_d)

    def test_forward_and_adjoint_interleaved(self):
        eng, rng = make(seed=6)
        m = rng.standard_normal((16, 10))
        d = rng.standard_normal((16, 3))
        f1 = eng.matvec(m)
        a1 = eng.rmatvec(d)
        np.testing.assert_array_equal(eng.matvec(m), f1)
        np.testing.assert_array_equal(eng.rmatvec(d), a1)

    def test_matvec_count(self):
        eng, rng = make(device=SimulatedDevice("MI300X"), seed=7)
        m = rng.standard_normal((16, 10))
        for _ in range(4):
            eng.matvec(m)
        assert eng.matvec_count == 4

    def test_input_not_mutated(self):
        eng, rng = make(seed=8)
        m = rng.standard_normal((16, 10))
        copy = m.copy()
        eng.matvec(m, config="sssss")
        np.testing.assert_array_equal(m, copy)


class TestInvalidLaunch:
    def test_raises_on_every_apply_and_keeps_no_record(self):
        # Phase 3 batches over grid.z = Nt + 1; a device that cannot
        # launch it refuses while the apply is prepared — every time,
        # with nothing booked and no record left behind.
        from dataclasses import replace

        from repro.gpu.kernel import LaunchConfigError
        from repro.gpu.specs import MI300X

        nt = 16
        x, y, _ = MI300X.max_grid
        dev = SimulatedDevice(replace(MI300X, max_grid=(x, y, nt)))
        eng, rng = make(nt=nt, device=dev)
        before = (dev.clock.now, dev.stats.launches)
        m, D = rng.standard_normal((nt, 10)), rng.standard_normal((nt, 3, 4))
        for _ in range(3):
            with pytest.raises(LaunchConfigError, match="exceeds device max"):
                eng.matvec(m)
            with pytest.raises(LaunchConfigError, match="exceeds device max"):
                eng.rmatmat(D, deterministic=True)
        assert not eng._plans and not eng.workspace.in_use
        assert (dev.clock.now, dev.stats.launches) == before


class TestInputValidation:
    def test_wrong_shapes_raise(self):
        eng, rng = make()
        with pytest.raises(ReproError):
            eng.matvec(rng.standard_normal((16, 11)))
        with pytest.raises(ReproError):
            eng.rmatvec(rng.standard_normal((15, 3)))
        with pytest.raises(ReproError):
            eng.matvec(rng.standard_normal(159))

    def test_bad_config_string(self):
        eng, rng = make()
        with pytest.raises(ReproError):
            eng.matvec(rng.standard_normal((16, 10)), config="dsxdd")

    @pytest.mark.parametrize("reduction", ["tree", "PAIRWISE"])
    def test_unknown_reduction(self, reduction):
        with pytest.raises(ReproError, match="reduction must be 'fast' or 'pairwise'"):
            make(reduction=reduction)
