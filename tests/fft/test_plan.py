"""Tests for the cuFFT-style batched FFT plans."""

import numpy as np
import pytest

from repro.fft.error import fft_error_bound
from repro.fft.plan import FFTPlan, FFTType, plan_many
from repro.gpu.device import SimulatedDevice
from repro.util.dtypes import Precision, machine_eps
from repro.util.validation import ReproError


class TestFFTType:
    def test_precisions(self):
        assert FFTType.D2Z.precision is Precision.DOUBLE
        assert FFTType.R2C.precision is Precision.SINGLE
        assert FFTType.C2C.precision is Precision.SINGLE

    def test_constructors(self):
        assert FFTType.real_forward(Precision.DOUBLE) is FFTType.D2Z
        assert FFTType.real_forward(Precision.SINGLE) is FFTType.R2C
        assert FFTType.real_inverse(Precision.DOUBLE) is FFTType.Z2D
        assert FFTType.complex_complex(Precision.DOUBLE) is FFTType.Z2Z


class TestForward:
    def test_matches_numpy_rfft_double(self, rng):
        x = rng.standard_normal((5, 64))
        plan = FFTPlan(64, 5, FFTType.D2Z)
        out = plan.execute(x)
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, np.fft.rfft(x, axis=1), rtol=1e-13)

    def test_single_precision_native(self, rng):
        x = rng.standard_normal((3, 128)).astype(np.float32)
        plan = FFTPlan(128, 3, FFTType.R2C)
        out = plan.execute(x)
        assert out.dtype == np.complex64  # computed in single, not cast down

    @pytest.mark.parametrize("kind", ["R2C", "C2C", "C2R"])
    def test_single_precision_has_single_error(self, rng, kind):
        # A single-precision plan computes in single: its output is not
        # the double transform rounded once at the end (which is what
        # np.fft.rfft/np.fft.fft return for float32/complex64 input), and
        # its error against the double transform of the same input sits
        # in the single-precision band — at least a quarter ulp (a
        # double-then-round result has ~0.2 ulp), at most the Van Loan
        # bound the error model charges the phase.
        n, batch = 1024, 2
        if kind == "R2C":
            x = rng.standard_normal((batch, n)).astype(np.float32)
            got = FFTPlan(n, batch, FFTType.R2C).execute(x)
            exact = np.fft.rfft(x.astype(np.float64), axis=1)
        elif kind == "C2C":
            x = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
            x = x.astype(np.complex64)
            got = FFTPlan(n, batch, FFTType.C2C).execute(x)
            exact = np.fft.fft(x.astype(np.complex128), axis=1)
        else:
            x = np.fft.rfft(rng.standard_normal((batch, n)), axis=1).astype(np.complex64)
            got = FFTPlan(n, batch, FFTType.C2R).inverse(x)
            exact = np.fft.irfft(x.astype(np.complex128), n=n, axis=1) * n
        assert got.dtype == (np.float32 if kind == "C2R" else np.complex64)
        assert not np.array_equal(got, exact.astype(got.dtype))
        err = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        eps = machine_eps(Precision.SINGLE)
        assert eps / 4 <= err <= fft_error_bound(n, Precision.SINGLE)

    def test_double_plans_are_the_numpy_transform_bitwise(self, rng):
        # The provider split is by dtype: double plans never left np.fft.
        x = rng.standard_normal((3, 96))
        X = FFTPlan(96, 3, FFTType.D2Z).execute(x)
        assert np.array_equal(X, np.fft.rfft(x, axis=1))
        back = FFTPlan(96, 3, FFTType.Z2D).inverse(X)
        assert np.array_equal(back, np.fft.irfft(X, n=96, axis=1) * np.float64(96))

    def test_numpy_float32_rfft_canary(self, rng, record_property):
        # Why single-precision plans run on scipy.fft: numpy (2.4)
        # computes rfft of float32 input in double and rounds the result.
        # Recorded, not asserted — a numpy that computes in single is an
        # improvement, and the day this flips the provider split in
        # repro.backend.numpy_backend can be retired.
        x = rng.standard_normal((4, 1024)).astype(np.float32)
        via_double = np.fft.rfft(x.astype(np.float64), axis=1).astype(np.complex64)
        in_double = bool(np.array_equal(np.fft.rfft(x, axis=1), via_double))
        record_property("np_fft_rfft_float32_computes_in_double", in_double)
        record_property("numpy_version", np.__version__)
        print(f"numpy {np.__version__}: rfft(float32) computes in double: {in_double}")

    def test_half_spectrum_length(self):
        plan = FFTPlan(100, 1, FFTType.D2Z)
        assert plan.half_len == 51
        out = plan.execute(np.ones(100))
        assert out.shape == (1, 51)

    def test_complex_forward(self, rng):
        x = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
        out = FFTPlan(32, 4, FFTType.Z2Z).execute(x)
        np.testing.assert_allclose(out, np.fft.fft(x, axis=1), rtol=1e-13)

    def test_shape_validation(self, rng):
        plan = FFTPlan(64, 5, FFTType.D2Z)
        with pytest.raises(ReproError):
            plan.execute(rng.standard_normal((4, 64)))  # wrong batch
        with pytest.raises(ReproError):
            plan.execute(rng.standard_normal((5, 32)))  # wrong length

    def test_1d_input_needs_batch_1(self, rng):
        plan = FFTPlan(64, 1, FFTType.D2Z)
        out = plan.execute(rng.standard_normal(64))
        assert out.shape == (1, 33)
        plan5 = FFTPlan(64, 5, FFTType.D2Z)
        with pytest.raises(ReproError):
            plan5.execute(rng.standard_normal(64))

    def test_inverse_only_plan_rejects_execute(self):
        plan = FFTPlan(64, 1, FFTType.Z2D)
        with pytest.raises(ReproError, match="inverse-only"):
            plan.execute(np.ones(64))


class TestInverse:
    def test_unnormalized_roundtrip(self, rng):
        # cuFFT convention: IFFT(FFT(x)) == n * x
        n = 128
        x = rng.standard_normal((3, n))
        fwd = FFTPlan(n, 3, FFTType.D2Z)
        inv = FFTPlan(n, 3, FFTType.Z2D)
        back = inv.inverse(fwd.execute(x))
        np.testing.assert_allclose(back, n * x, rtol=1e-12)

    def test_inverse_dtype_single(self, rng):
        spec = np.fft.rfft(rng.standard_normal((2, 64)), axis=1).astype(np.complex64)
        out = FFTPlan(64, 2, FFTType.C2R).inverse(spec)
        assert out.dtype == np.float32

    def test_forward_only_plan_rejects_inverse(self):
        plan = FFTPlan(64, 1, FFTType.D2Z)
        with pytest.raises(ReproError, match="forward-only"):
            plan.inverse(np.ones(33, dtype=np.complex128))

    def test_inverse_shape_validation(self):
        plan = FFTPlan(64, 2, FFTType.Z2D)
        with pytest.raises(ReproError):
            plan.inverse(np.ones((2, 64), dtype=np.complex128))  # needs half_len


class TestDeviceCharging:
    def test_execution_advances_clock(self, rng):
        dev = SimulatedDevice("MI300X")
        plan = FFTPlan(1024, 16, FFTType.D2Z, device=dev)
        plan.execute(rng.standard_normal((16, 1024)), phase="fft")
        assert dev.clock.now > 0
        assert dev.clock.phase_total("fft") == 0  # phases open at caller level

    def test_bigger_batch_costs_more(self, rng):
        d1, d2 = SimulatedDevice("MI300X"), SimulatedDevice("MI300X")
        FFTPlan(512, 4, FFTType.D2Z, device=d1).execute(rng.standard_normal((4, 512)))
        FFTPlan(512, 64, FFTType.D2Z, device=d2).execute(rng.standard_normal((64, 512)))
        assert d2.clock.now > d1.clock.now

    def test_single_cheaper_than_double(self, rng):
        d1, d2 = SimulatedDevice("MI300X"), SimulatedDevice("MI300X")
        x = rng.standard_normal((64, 2048))
        FFTPlan(2048, 64, FFTType.D2Z, device=d1).execute(x)
        FFTPlan(2048, 64, FFTType.R2C, device=d2).execute(x.astype(np.float32))
        assert d2.clock.now < d1.clock.now

    def test_execution_counter(self, rng):
        plan = FFTPlan(64, 1, FFTType.D2Z)
        plan.execute(rng.standard_normal(64))
        plan.execute(rng.standard_normal(64))
        assert plan.executions == 2


class TestOutAndRowSlabs:
    """``out=``: the numpy double path writes there; a row slab of the
    batch gives the bits of the whole call; the execution is booked once."""

    TYPES = [
        (FFTType.D2Z, FFTType.Z2D),
        (FFTType.R2C, FFTType.C2R),
        (FFTType.Z2Z, FFTType.Z2Z),
        (FFTType.C2C, FFTType.C2C),
    ]

    @pytest.mark.parametrize("fwd_type,inv_type", TYPES)
    def test_slab_by_slab_is_one_execution(self, rng, fwd_type, inv_type):
        n, batch = 24, 7
        double = fwd_type.precision is Precision.DOUBLE
        x = rng.standard_normal((batch, n))
        if not fwd_type.is_real_forward:
            x = x + 1j * rng.standard_normal((batch, n))
            x = x.astype(np.complex128 if double else np.complex64)
        elif not double:
            x = x.astype(np.float32)
        dev_whole, dev_slabs = (
            SimulatedDevice("MI300X", record_launches=True) for _ in range(2)
        )
        src = x
        for kind, phase, ftype in (("execute", "fft", fwd_type), ("inverse", "ifft", inv_type)):
            whole = FFTPlan(n, batch, ftype, device=dev_whole)
            slabs = FFTPlan(n, batch, ftype, device=dev_slabs)
            want = getattr(whole, kind)(src, phase=phase)
            scratch = np.empty((3, want.shape[1]), dtype=want.dtype)
            got = np.empty_like(want)
            for r0 in range(0, batch, 3):  # 3 + 3 + 1 rows
                rows = min(3, batch - r0)
                res = getattr(slabs, kind)(
                    src[r0 : r0 + rows],
                    phase=phase if r0 == 0 else None,
                    out=scratch[:rows],
                )
                # np.fft honours out=; scipy.fft returns a temporary.
                assert np.shares_memory(res, scratch) == double
                got[r0 : r0 + rows] = res
            assert np.array_equal(got, want)
            assert slabs.executions == whole.executions == 1
            src = want
        assert dev_slabs.launch_log == dev_whole.launch_log
        assert dev_slabs.stats == dev_whole.stats

    def test_whole_batch_out_is_written_in_place(self, rng):
        plan = FFTPlan(32, 4, FFTType.D2Z)
        x = rng.standard_normal((4, 32))
        out = np.empty((4, 17), dtype=np.complex128)
        assert plan.execute(x, out=out) is out
        assert np.array_equal(out, FFTPlan(32, 4, FFTType.D2Z).execute(x))
        back = np.empty((4, 32))
        inv = FFTPlan(32, 4, FFTType.Z2D)
        assert inv.inverse(out, out=back) is back
        np.testing.assert_allclose(back, 32 * x, rtol=1e-12)

    def test_a_slab_needs_its_out(self, rng):
        plan = FFTPlan(32, 4, FFTType.D2Z)
        with pytest.raises(ReproError):  # fewer rows than the batch, no out=
            plan.execute(rng.standard_normal((3, 32)))
        with pytest.raises(ReproError):  # rows must be out's rows
            plan.execute(rng.standard_normal((3, 32)), out=np.empty((2, 17), complex))
        with pytest.raises(ReproError):  # never more rows than the batch
            plan.execute(rng.standard_normal((5, 32)), out=np.empty((5, 17), complex))


class TestPlanMany:
    def test_defaults(self):
        plan = plan_many(128, 10)
        assert plan.fft_type is FFTType.D2Z

    def test_inverse_single(self):
        plan = plan_many(128, 10, precision=Precision.SINGLE, forward=False)
        assert plan.fft_type is FFTType.C2R

    def test_complex(self):
        plan = plan_many(128, 10, real=False)
        assert plan.fft_type is FFTType.Z2Z

    def test_invalid_sizes(self):
        with pytest.raises(Exception):
            plan_many(0, 1)
        with pytest.raises(Exception):
            plan_many(8, -1)
