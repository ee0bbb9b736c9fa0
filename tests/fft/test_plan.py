"""Tests for the cuFFT-style batched FFT plans."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import repro

from repro.core.error_model import phase_error_terms
from repro.fft.plan import FFTPlan, FFTType
from repro.gpu.device import SimulatedDevice
from repro.util.dtypes import Precision, complex_dtype, machine_eps, real_dtype
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
        assert FFTType.real_inverse(Precision.SINGLE) is FFTType.C2R


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
        phase, cfg = ("ifft", "dddsd") if kind == "C2R" else ("fft", "dsddd")
        assert eps / 4 <= err <= phase_error_terms(cfg, nt=n, nm=1, nd=1)[phase]

    def test_double_plans_are_the_numpy_transform_bitwise(self, rng):
        # The typed transform at double is np.fft's own call, bit for bit.
        x = rng.standard_normal((3, 96))
        X = FFTPlan(96, 3, FFTType.D2Z).execute(x)
        assert np.array_equal(X, np.fft.rfft(x, axis=1))
        back = FFTPlan(96, 3, FFTType.Z2D).inverse(X)
        assert np.array_equal(back, np.fft.irfft(X, n=96, axis=1, norm="forward"))

    @pytest.mark.parametrize("n", [48, 64, 200, 512])
    @pytest.mark.parametrize("kind", ["Z2D", "C2R"])
    def test_unnormalized_inverse_is_the_scaled_inverse(self, rng, n, kind):
        # The inverse asks the backend for the unnormalized transform
        # instead of scaling the normalized one back by n: the same bits
        # at a power-of-two n (both scalings are exact), one rounding
        # fewer elsewhere.
        dtype = np.complex128 if kind == "Z2D" else np.complex64
        X = np.fft.rfft(rng.standard_normal((3, n)), axis=1).astype(dtype)
        got = FFTPlan(n, 3, FFTType[kind]).inverse(X)
        lib = np.fft if kind == "Z2D" else scipy.fft
        scaled = lib.irfft(X, n=n, axis=1)
        scaled *= scaled.dtype.type(n)
        if n & (n - 1) == 0:
            assert np.array_equal(got, scaled)
        else:
            eps = np.finfo(scaled.dtype).eps
            assert np.linalg.norm(got - scaled) <= eps * np.linalg.norm(scaled)

    def test_numpy_float32_rfft_canary(self, rng, record_property):
        # Why the numpy backend types the scale it hands pocketfft:
        # np.fft.rfft (numpy 2.4) computes float32 input in double and
        # rounds the result.  Recorded, not asserted — a numpy that
        # computes in single is an improvement, and the day this flips
        # repro.backend.numpy_backend could call np.fft again.
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


class TestOperatorNorms:
    """The Van Loan facts Eq. (6) rests on: the unnormalized DFT scales
    every vector's 2-norm by sqrt(n), and so does the cuFFT-style
    unnormalized inverse."""

    COMPLEX = [(FFTType.Z2Z, 1e-12), (FFTType.C2C, 1e-5)]

    @pytest.mark.parametrize("fft_type,rtol", COMPLEX, ids=["Z2Z", "C2C"])
    def test_forward_scales_norm_by_sqrt_n(self, rng, fft_type, rtol):
        n, batch = 2000, 3
        x = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
        x = x.astype(complex_dtype(fft_type.precision))
        X = FFTPlan(n, batch, fft_type).execute(x)
        np.testing.assert_allclose(
            np.linalg.norm(X, axis=1), np.sqrt(n) * np.linalg.norm(x, axis=1), rtol=rtol
        )

    @pytest.mark.parametrize("fft_type,rtol", COMPLEX, ids=["Z2Z", "C2C"])
    def test_unnormalized_inverse_scales_norm_by_sqrt_n(self, rng, fft_type, rtol):
        n, batch = 2000, 3
        X = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
        X = X.astype(complex_dtype(fft_type.precision))
        x = FFTPlan(n, batch, fft_type).inverse(X)
        np.testing.assert_allclose(
            np.linalg.norm(x, axis=1), np.sqrt(n) * np.linalg.norm(X, axis=1), rtol=rtol
        )

    @pytest.mark.parametrize("fft_type", [FFTType.D2Z, FFTType.R2C], ids=["D2Z", "R2C"])
    def test_constant_vector_lands_in_bin_zero(self, fft_type):
        # All of a constant input's energy goes to the DC bin: X[0] = n.
        n = 128
        X = FFTPlan(n, 1, fft_type).execute(np.ones(n, dtype=real_dtype(fft_type.precision)))
        assert X[0, 0] == n
        assert np.all(np.abs(X[0, 1:]) < 1e-3)


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
    """``out=``: the numpy backend writes there at both tiers; a row slab
    of the batch gives the bits of the whole call; the execution is
    booked once."""

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
                dst = scratch[: min(3, batch - r0)]
                res = getattr(slabs, kind)(
                    src[r0 : r0 + len(dst)],
                    phase=phase if r0 == 0 else None,
                    out=dst,
                )
                # Both tiers honour out=: no slab returns a temporary.
                assert res is dst
                got[r0 : r0 + len(dst)] = res
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

    @pytest.mark.parametrize("ftype", ["D2Z", "R2C", "C2R"])
    def test_no_plan_imports_scipy_fft(self, ftype):
        # Both tiers are numpy's own pocketfft: building a plan and
        # executing it slab by slab on two threads, as an engine's slabs
        # do, imports no further FFT library (scipy.fft cost a single-
        # precision process ~20 MB of resident memory).
        code = f"""
import sys, threading
import numpy as np
from repro.fft.plan import FFTPlan, FFTType
plan = FFTPlan(64, 4, FFTType.{ftype})
fwd = plan.fft_type.is_real_forward
x = np.ones((4, 64 if fwd else 33), plan._rdt if fwd else plan._cdt)
out = np.empty((4, 33 if fwd else 64), plan._cdt if fwd else plan._rdt)
run = plan.execute if fwd else plan.inverse
threads = [threading.Thread(target=run, args=(x[r:r + 2],),
                            kwargs=dict(phase=None, out=out[r:r + 2])) for r in (0, 2)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
    assert not t.is_alive()
assert np.array_equal(out, run(x))
print('scipy.fft' in sys.modules)
"""
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src}, timeout=120,
        ).stdout
        assert out.strip() == "False"

    def test_a_slab_needs_its_out(self, rng):
        plan = FFTPlan(32, 4, FFTType.D2Z)
        with pytest.raises(ReproError):  # fewer rows than the batch, no out=
            plan.execute(rng.standard_normal((3, 32)))
        with pytest.raises(ReproError):  # rows must be out's rows
            plan.execute(rng.standard_normal((3, 32)), out=np.empty((2, 17), complex))
        with pytest.raises(ReproError):  # never more rows than the batch
            plan.execute(rng.standard_normal((5, 32)), out=np.empty((5, 17), complex))
