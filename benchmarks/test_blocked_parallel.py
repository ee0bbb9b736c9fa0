"""Blocked grid matmat bench: batched collectives across the 2-D grid.

The acceptance benchmark for the distributed blocked path: at ``k = 16``
on a 2x2 grid, ``ParallelFFTMatvec.matmat`` must

* perform exactly **one** column-broadcast and **one** row-reduce per
  chunk (vs 16 each when looping ``matvec``) — asserted on the timed
  communicators' operation counters,
* be at least **3x faster in modeled time** (simulated device compute +
  tree-collective cost) than the looped grid matvec,
* match the looped per-rank numerics (bitwise for single-column chunks,
  to 1e-12 for wide GEMM panels, whose BLAS column accumulation differs
  from a GEMV's at rounding level).

It also reports real wall-clock for both paths and emits a
``BENCH_parallel_blocked.json`` artifact next to this file, then reads
it back and asserts the collective counts and the modeled speedup.
``REPRO_BENCH_TINY=1`` shrinks the problem; the assertions are the same.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import MI300X

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
# Phase-3-dominated shape (wide parameter blocks) so the matrix-reuse
# win shows up in wall-clock, scaled down under REPRO_BENCH_TINY.
NT, ND, NM = (16, 8, 48) if TINY else (48, 64, 384)
PR, PC, K = 2, 2, 16

ARTIFACT = Path(__file__).parent / "BENCH_parallel_blocked.json"


def make_engine(spec=MI300X, max_block_k=None):
    rng = np.random.default_rng(1234)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
    grid = ProcessGrid(PR, PC, net=FRONTIER_NETWORK)
    eng = ParallelFFTMatvec(matrix, grid, spec=spec, max_block_k=max_block_k)
    block = rng.standard_normal((NT, NM, K))
    return eng, grid, matrix, block


def _best_of(fn, reps: int = 3) -> float:
    """Min wall-clock over a few repetitions (noise-tolerant timing)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestBlockedGridSpeedup:
    def test_collectives_numerics_and_speedup_with_artifact(self):
        eng, grid, matrix, block = make_engine()
        col0, row0 = grid.col_comm(0), grid.row_comm(0)

        # --- counters + modeled time from one run of each path (the
        # simulated clock is deterministic; wall-clock is timed apart).
        bcasts0, reduces0 = col0.op_counts["bcast"], row0.op_counts["reduce"]
        t0 = grid.clock.now
        blocked = eng.matmat(block)
        modeled_blocked = grid.clock.now - t0
        bcasts_blocked = col0.op_counts["bcast"] - bcasts0
        reduces_blocked = row0.op_counts["reduce"] - reduces0
        assert bcasts_blocked == 1  # one chunk -> one timed broadcast
        assert reduces_blocked == 1

        bcasts0, reduces0 = col0.op_counts["bcast"], row0.op_counts["reduce"]
        t0 = grid.clock.now
        looped = np.stack(
            [eng.matvec(block[:, :, j]) for j in range(K)], axis=-1
        )
        modeled_looped = grid.clock.now - t0
        assert col0.op_counts["bcast"] - bcasts0 == K
        assert row0.op_counts["reduce"] - reduces0 == K

        # --- wall-clock: best of 3 per path so one scheduler stall on a
        # shared runner cannot flip the ratio.
        wall_blocked = _best_of(lambda: eng.matmat(block))
        wall_looped = _best_of(
            lambda: [eng.matvec(block[:, :, j]) for j in range(K)]
        )

        # --- identical numerics (GEMM panel rounding only) and speedups.
        assert np.abs(blocked - looped).max() < 1e-12
        modeled_speedup = modeled_looped / modeled_blocked
        wall_speedup = wall_looped / wall_blocked
        print(
            f"\ngrid {PR}x{PC}, k={K}: modeled {modeled_looped * 1e3:.3f} ms"
            f" -> {modeled_blocked * 1e3:.3f} ms ({modeled_speedup:.2f}x),"
            f" wall {wall_looped * 1e3:.1f} ms -> {wall_blocked * 1e3:.1f} ms"
            f" ({wall_speedup:.2f}x)"
        )
        assert modeled_speedup >= 3.0
        # The wall ratio goes to the artifact, not through a gate: it is
        # host weather over two walls, and a faster k = 1 path shrinks it
        # (ROADMAP 1(a)); ``bench/`` measures the grid on the wall clock.
        assert wall_speedup > 0

        ARTIFACT.write_text(json.dumps({
            "bench": "parallel_blocked",
            "grid": f"{PR}x{PC}",
            "shape": {"nt": NT, "nd": ND, "nm": NM, "k": K},
            "modeled_looped_s": modeled_looped,
            "modeled_blocked_s": modeled_blocked,
            "modeled_speedup": modeled_speedup,
            "wall_looped_s": wall_looped,
            "wall_blocked_s": wall_blocked,
            "wall_speedup": wall_speedup,
            "timed_bcasts_blocked": bcasts_blocked,
            "timed_reduces_blocked": reduces_blocked,
            "timed_bcasts_looped": K,
            "timed_reduces_looped": K,
        }, indent=2) + "\n")
        data = json.loads(ARTIFACT.read_text())
        assert data["timed_bcasts_blocked"] == 1 and data["timed_reduces_blocked"] == 1, data
        assert data["modeled_speedup"] >= 3.0, data

    def test_chunked_collective_count(self):
        for max_block_k, chunks in ((4, 4), (6, 3), (16, 1)):
            eng, grid, _, block = make_engine(spec=None, max_block_k=max_block_k)
            col0, row0 = grid.col_comm(0), grid.row_comm(0)
            b0, r0 = col0.op_counts["bcast"], row0.op_counts["reduce"]
            eng.matmat(block)
            assert col0.op_counts["bcast"] - b0 == chunks
            assert row0.op_counts["reduce"] - r0 == chunks

    def test_per_rank_partials_match_local_engine_bitwise(self):
        # The collective layer must add nothing: each rank's blocked
        # partial equals FFTMatvec.matmat on its local sub-block exactly.
        eng, grid, matrix, block = make_engine(spec=None)
        r0, r1 = eng._row_ranges[0]
        c0, c1 = eng._col_ranges[1]
        local = FFTMatvec(BlockTriangularToeplitz(
            matrix.blocks[:, r0:r1, c0:c1]
        ))
        expected = local.matmat(block[:, c0:c1, :])
        got = eng.engines[(0, 1)]._pipeline_block(
            block[:, c0:c1, :], PrecisionConfig.parse("ddddd"), adjoint=False
        )
        assert np.array_equal(got, expected)

    def test_adjoint_blocked_matches_looped(self):
        eng, grid, _, _ = make_engine(spec=None)
        rng = np.random.default_rng(9)
        data = rng.standard_normal((NT, ND, K))
        blocked = eng.rmatmat(data)
        looped = np.stack(
            [eng.rmatvec(data[:, :, j]) for j in range(K)], axis=-1
        )
        assert np.abs(blocked - looped).max() < 1e-12


class TestBlockedGridBench:
    def test_benchmark_grid_matmat(self, benchmark):
        eng, _, _, block = make_engine(spec=None)
        eng.matmat(block[:, :, :2])  # warm plans
        result = benchmark.pedantic(
            lambda: eng.matmat(block), rounds=3, iterations=1
        )
        assert result.shape == (NT, ND, K)
