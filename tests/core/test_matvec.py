"""Tests for the FFTMatvec engine — the paper's core algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matvec import FFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.util.dtypes import Precision, fill_low_mantissa

from tests.conftest import rel_err


def make_engine(nt=16, nd=3, nm=10, seed=0, device=None, **kw):
    rng = np.random.default_rng(seed)
    matrix = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng)
    return FFTMatvec(matrix, device=device, **kw), rng


class TestCorrectness:
    @pytest.mark.parametrize("nt,nd,nm", [(1, 1, 1), (2, 1, 3), (8, 2, 5),
                                          (16, 4, 4), (33, 3, 7), (64, 1, 1)])
    def test_forward_matches_reference(self, nt, nd, nm):
        eng, rng = make_engine(nt, nd, nm)
        m = rng.standard_normal((nt, nm))
        assert rel_err(eng.matvec(m), eng.matrix.matvec_reference(m)) < 1e-12

    @pytest.mark.parametrize("nt,nd,nm", [(2, 2, 2), (8, 2, 5), (17, 5, 3)])
    def test_adjoint_matches_reference(self, nt, nd, nm):
        eng, rng = make_engine(nt, nd, nm)
        d = rng.standard_normal((nt, nd))
        assert rel_err(eng.rmatvec(d), eng.matrix.rmatvec_reference(d)) < 1e-12

    def test_adjoint_dot_test(self):
        eng, rng = make_engine(24, 4, 9)
        m = rng.standard_normal((24, 9))
        d = rng.standard_normal((24, 4))
        lhs = np.vdot(eng.matvec(m), d)
        rhs = np.vdot(m, eng.rmatvec(d))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_linearity(self):
        eng, rng = make_engine()
        a, b = rng.standard_normal((16, 10)), rng.standard_normal((16, 10))
        assert rel_err(
            eng.matvec(a + 3 * b), eng.matvec(a) + 3 * eng.matvec(b)
        ) < 1e-12

    def test_flat_input_accepted(self):
        eng, rng = make_engine()
        m = rng.standard_normal(16 * 10)
        np.testing.assert_array_equal(eng.matvec(m), eng.matvec(m.reshape(16, 10)))

    def test_output_always_double(self):
        eng, rng = make_engine()
        m = rng.standard_normal((16, 10))
        for cfg in ("ddddd", "sssss", "dssdd"):
            assert eng.matvec(m, config=cfg).dtype == np.float64

    def test_raw_block_array_constructor(self, rng):
        blocks = rng.standard_normal((4, 2, 3))
        eng = FFTMatvec(blocks)
        assert eng.nt == 4

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 3), st.integers(1, 6),
           st.integers(0, 10**6))
    def test_property_fft_equals_dense(self, nt, nd, nm, seed):
        rng = np.random.default_rng(seed)
        M = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng)
        eng = FFTMatvec(M)
        m = rng.standard_normal((nt, nm))
        dense = (M.dense() @ m.ravel()).reshape(nt, nd)
        assert rel_err(eng.matvec(m), dense) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 3), st.integers(1, 6),
           st.integers(0, 10**6))
    def test_property_adjoint_consistency(self, nt, nd, nm, seed):
        rng = np.random.default_rng(seed)
        M = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng)
        eng = FFTMatvec(M)
        m = rng.standard_normal((nt, nm))
        d = rng.standard_normal((nt, nd))
        lhs = np.vdot(eng.matvec(m), d)
        rhs = np.vdot(m, eng.rmatvec(d))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestMixedPrecision:
    def test_all_32_configs_run_and_bound_error(self):
        eng, rng = make_engine(32, 3, 12, seed=1)
        m = fill_low_mantissa(rng.standard_normal((32, 12)))
        ref = eng.matvec(m, config="ddddd")
        for cfg in PrecisionConfig.all_configs():
            out = eng.matvec(m, config=cfg)
            err = rel_err(out, ref)
            if cfg.is_all_double:
                assert err == 0.0
            else:
                # single anywhere: error at eps_s scale, never worse than 1e-4
                assert err < 1e-4, str(cfg)

    def test_single_sbgemv_error_scale(self):
        eng, rng = make_engine(32, 3, 12, seed=2)
        m = fill_low_mantissa(rng.standard_normal((32, 12)))
        err = eng.relative_error("ddsdd", m)
        assert 1e-9 < err < 1e-5

    def test_double_phases_commit_no_error(self):
        # with every phase double the pipeline is deterministic
        eng, rng = make_engine()
        m = rng.standard_normal((16, 10))
        a = eng.matvec(m, config="ddddd")
        b = eng.matvec(m, config="ddddd")
        np.testing.assert_array_equal(a, b)

    def test_more_single_phases_more_error(self):
        eng, rng = make_engine(64, 2, 16, seed=3)
        m = fill_low_mantissa(rng.standard_normal((64, 16)))
        e_one = eng.relative_error("ddsdd", m)
        e_all = eng.relative_error("sssss", m)
        assert e_all >= e_one * 0.5  # not strictly monotone, but same scale

    def test_pad_single_rounds_input(self):
        # with mantissa-filled input, a single-precision Phase 1 alone
        # must produce nonzero error (the paper's initialization trick)
        eng, rng = make_engine(16, 2, 8, seed=4)
        m = fill_low_mantissa(rng.standard_normal((16, 8)))
        assert eng.relative_error("sdddd", m) > 1e-9

    def test_without_mantissa_fill_pad_single_free(self):
        # float32-representable input: pad in single commits no error
        eng, rng = make_engine(16, 2, 8, seed=5)
        m = rng.standard_normal((16, 8)).astype(np.float32).astype(np.float64)
        assert eng.relative_error("sdddd", m) == 0.0

    def test_adjoint_mixed_configs(self):
        eng, rng = make_engine(32, 3, 12, seed=6)
        d = fill_low_mantissa(rng.standard_normal((32, 3)))
        ref = eng.rmatvec(d, config="ddddd")
        for cfg in ("ddssd", "dssds", "sssss"):
            assert rel_err(eng.rmatvec(d, config=cfg), ref) < 1e-4

    def test_spectrum_caching(self):
        eng, _ = make_engine()
        s1 = eng.spectrum(Precision.SINGLE)
        s2 = eng.spectrum(Precision.SINGLE)
        assert s1 is s2
        assert s1.dtype == np.complex64

    def test_spectrum_normalization(self):
        eng, _ = make_engine(8, 2, 3)
        unscaled = eng.matrix.spectrum()
        np.testing.assert_allclose(
            eng.spectrum(Precision.DOUBLE), unscaled / 16.0, rtol=1e-14
        )


class TestDeviceTiming:
    def test_timing_recorded(self):
        dev = SimulatedDevice("MI300X")
        eng, rng = make_engine(device=dev)
        eng.matvec(rng.standard_normal((16, 10)))
        t = eng.last_timing
        assert t is not None
        assert set(t.phases) == {"pad", "fft", "sbgemv", "ifft", "unpad"}
        assert t.total > 0

    def test_timing_resets_per_call(self):
        dev = SimulatedDevice("MI300X")
        eng, rng = make_engine(device=dev)
        m = rng.standard_normal((16, 10))
        eng.matvec(m)
        t1 = eng.last_timing.total
        eng.matvec(m)
        t2 = eng.last_timing.total
        assert t1 == pytest.approx(t2, rel=0.01)

    def test_no_device_no_timing(self):
        eng, rng = make_engine()
        eng.matvec(rng.standard_normal((16, 10)))
        assert eng.last_timing is None
        assert eng.matvec_count == 1

    def test_single_cheaper_than_double(self):
        dev = SimulatedDevice("MI300X")
        eng, rng = make_engine(64, 4, 256, device=dev)
        m = rng.standard_normal((64, 256))
        eng.matvec(m, config="ddddd")
        t_d = eng.last_timing.total
        eng.matvec(m, config="sssss")
        t_s = eng.last_timing.total
        assert t_s < t_d

    def test_plans_cached(self):
        eng, rng = make_engine()
        m = rng.standard_normal((16, 10))
        eng.matvec(m)
        eng.matvec(m)
        n_plans = len(eng._plans)
        eng.matvec(m)
        assert len(eng._plans) == n_plans
