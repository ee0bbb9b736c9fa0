"""Blocked multi-RHS matvec bench: one pipeline pass for k vectors.

The acceptance benchmark for the SBGEMM path: at ``k = 16`` right-hand
sides, ``FFTMatvec.matmat`` must beat 16 sequential ``matvec`` calls by
at least 3x in *modeled device time*, while matching the looped results
to 1e-12 at the all-double configuration.  The real wall clock of both
paths is timed and printed, not gated (that is ``bench/``'s job).

The shape mirrors FFTMatvec's Phase-3 regime (short-wide per-frequency
blocks, Nd << Nm) where the spectrum dominates the traffic — the matrix
is read once per GEMM instead of once per GEMV, which is where the
blocked path's speedup lives.
"""

import time

import numpy as np
import pytest

from repro.core.matvec import FFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import MI300X

# Shape choice: Phase 3 must dominate (the regime the paper optimizes —
# wide parameter blocks, many sensors), so the matrix-reuse win of the
# GEMM shows up in wall-clock and not just in the device model.
NT, ND, NM, K = 64, 384, 2048, 16


@pytest.fixture(scope="module")
def problem(rng=None):
    rng = np.random.default_rng(1234)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.02)
    block = rng.standard_normal((NT, NM, K))
    return matrix, block


class TestBlockedSpeedup:
    def test_modeled_device_time_3x(self, problem):
        matrix, block = problem
        engine = FFTMatvec(matrix, device=SimulatedDevice(MI300X))
        clock = engine.device.clock

        t0 = clock.now
        blocked = engine.matmat(block)
        t_blocked = clock.now - t0

        t0 = clock.now
        looped = np.stack(
            [engine.matvec(block[:, :, j]) for j in range(K)], axis=-1
        )
        t_looped = clock.now - t0

        speedup = t_looped / t_blocked
        print(f"\nmodeled device time, k={K}: looped {t_looped * 1e3:.3f} ms "
              f"-> blocked {t_blocked * 1e3:.3f} ms ({speedup:.2f}x)")
        assert np.abs(blocked - looped).max() < 1e-12
        assert speedup >= 3.0

    def test_wall_clock_3x(self, problem):
        matrix, block = problem
        engine = FFTMatvec(matrix)  # no device: pure numerics wall-clock

        # Warm both paths (FFT plan construction, dispatch tables).
        engine.matmat(block[:, :, :2])
        engine.matvec(block[:, :, 0])

        best_blocked = min(
            _timeit(lambda: engine.matmat(block)) for _ in range(3)
        )
        best_looped = min(
            _timeit(
                lambda: [engine.matvec(block[:, :, j]) for j in range(K)]
            )
            for _ in range(3)
        )
        speedup = best_looped / best_blocked
        print(f"\nwall-clock, k={K}: looped {best_looped * 1e3:.1f} ms -> "
              f"blocked {best_blocked * 1e3:.1f} ms ({speedup:.2f}x)")
        # Reported, not gated: a ratio of two walls on a shared runner is
        # host weather, and every gain on the k = 1 path shrinks it
        # (ROADMAP 1(a)).  The modeled 3x above and ``bench/`` carry the
        # claim; this test pins that both paths ran.
        assert speedup > 0

    def test_blocked_matches_looped_1e12(self, problem):
        matrix, block = problem
        engine = FFTMatvec(matrix)
        blocked = engine.matmat(block, config="ddddd")
        for j in range(K):
            looped = engine.matvec(block[:, :, j], config="ddddd")
            assert np.abs(blocked[:, :, j] - looped).max() < 1e-12

    def test_adjoint_blocked_speedup(self, problem):
        matrix, _ = problem
        rng = np.random.default_rng(99)
        data = rng.standard_normal((NT, ND, K))
        engine = FFTMatvec(matrix, device=SimulatedDevice(MI300X))
        clock = engine.device.clock

        t0 = clock.now
        blocked = engine.rmatmat(data)
        t_blocked = clock.now - t0
        t0 = clock.now
        looped = np.stack(
            [engine.rmatvec(data[:, :, j]) for j in range(K)], axis=-1
        )
        t_looped = clock.now - t0
        print(f"\nadjoint modeled, k={K}: {t_looped / t_blocked:.2f}x")
        assert np.abs(blocked - looped).max() < 1e-12
        assert t_looped / t_blocked >= 3.0

    def test_phase_breakdown_shows_sbgemv_win(self, problem):
        matrix, block = problem
        engine = FFTMatvec(matrix, device=SimulatedDevice(MI300X))
        engine.matmat(block)
        blocked_phases = dict(engine.last_timing.phases)
        engine.matvec(block[:, :, 0])
        looped_phases = {p: K * t for p, t in engine.last_timing.phases.items()}
        print("\nphase breakdown (ms), blocked vs k looped:")
        for p in ("pad", "fft", "sbgemv", "ifft", "unpad"):
            print(f"  {p:7s} {blocked_phases[p] * 1e3:8.3f} "
                  f"{looped_phases[p] * 1e3:8.3f}")
        # Phase 3 carries the big win (matrix read once, not k times)...
        assert looped_phases["sbgemv"] / blocked_phases["sbgemv"] > 4.0
        # ...and no phase regresses versus the looped path.
        for p in blocked_phases:
            assert blocked_phases[p] <= looped_phases[p] * 1.01


def _timeit(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class TestBlockedBench:
    def test_benchmark_blocked_matmat(self, benchmark, problem):
        matrix, block = problem
        engine = FFTMatvec(matrix)
        engine.matmat(block[:, :, :2])  # warm plans
        result = benchmark.pedantic(
            lambda: engine.matmat(block), rounds=3, iterations=1
        )
        assert result.shape == (NT, ND, K)
