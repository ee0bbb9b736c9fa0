"""Workspace-arena hot path bench: allocation-free repeated applies.

The acceptance benchmark for the arena: on repeated ``k = 16`` blocked
applies the workspace-backed engine must

* record its wall-clock ratio over the allocate-per-call reference
  (``speedup`` in the artifact; 1.2-1.6x at full size, where the
  reference's per-phase buffers sit above glibc's adaptive
  mmap-threshold cap, so every apply pays fresh page-faulted maps —
  exactly the churn the production code avoids with persistent device
  buffers).  The ratio is reported, not asserted: a raw ratio of two
  walls measured 1.21-1.64 over twelve isolated runs on one box, and
  tier-1 asserts no raw wall-clock number (ROADMAP item 1(a)),
* allocate **zero** new arena buffers after the one-apply warmup
  (steady state), with the caller-supplied ``out=`` keeping even the
  result buffer reused,
* return **bitwise-identical** results to the reference on both the
  single-device engine and a 2x2 grid.

It emits ``BENCH_workspace.json`` next to this file; full size and CI's
tiny smoke (``REPRO_BENCH_TINY=1``) assert the same things — the
schema, the bitwise identity and zero steady-state growth.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import MI300X

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
# Full size: the pad/reorder buffers are ~50 MB — above glibc's adaptive
# mmap-threshold cap (32 MB), so the reference path's allocation churn
# is physical, not a cold-heap artifact.
NT, ND, NM = (16, 8, 48) if TINY else (256, 24, 768)
K = 16
APPLIES = 3 if TINY else 8
REPS = 1 if TINY else 3

ARTIFACT = Path(__file__).parent / "BENCH_workspace.json"


def build(workspace: bool) -> FFTMatvec:
    rng = np.random.default_rng(42)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
    return FFTMatvec(matrix, workspace=workspace)


def time_applies(engine: FFTMatvec, B: np.ndarray, out=None) -> float:
    """Best-of-REPS mean seconds per blocked apply (post-warmup)."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        for _ in range(APPLIES):
            if out is None:
                engine.matmat(B)
            else:
                engine.matmat(B, out=out)
        best = min(best, (time.perf_counter() - t0) / APPLIES)
    return best


class TestWorkspaceBench:
    def test_arena_vs_reference_with_artifact(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((NT, NM, K))

        ref = build(workspace=False)
        arena = build(workspace=True)

        # Bitwise identity (also the warmup apply for both engines).
        ref_out = ref.matmat(B)
        arena_first = arena.matmat(B)
        bitwise = bool(np.array_equal(ref_out, arena_first))
        assert bitwise

        # Steady state: zero arena growth across the timed applies, and
        # out= keeps even the result buffer out of the allocator.
        frozen_allocs = arena.workspace.alloc_count
        out = np.empty((NT, ND, K))
        t_ref = time_applies(ref, B)
        t_arena = time_applies(arena, B, out=out)
        steady_allocs = arena.workspace.alloc_count - frozen_allocs
        assert steady_allocs == 0
        assert np.array_equal(out, ref_out)

        speedup = t_ref / t_arena

        # Grid rider: same contract on a 2x2 grid (bitwise + zero
        # growth); the wall ratio is recorded on the single device only.
        g_ref, g_arena = (
            ParallelFFTMatvec(
                BlockTriangularToeplitz.random(
                    NT, ND, NM, rng=np.random.default_rng(42), decay=0.05
                ),
                ProcessGrid(2, 2, net=FRONTIER_NETWORK),
                spec=MI300X,
                max_block_k=K // 2,
                workspace=ws,
            )
            for ws in (False, True)
        )
        grid_ref_out = g_ref.matmat(B)
        grid_bitwise = bool(np.array_equal(grid_ref_out, g_arena.matmat(B)))
        assert grid_bitwise
        grid_frozen = g_arena.workspace.alloc_count + sum(
            e.workspace.alloc_count for e in g_arena.engines.values()
        )
        g_out = np.empty((NT, ND, K))
        for _ in range(3):
            g_arena.matmat(B, out=g_out)
        grid_steady = (
            g_arena.workspace.alloc_count
            + sum(e.workspace.alloc_count for e in g_arena.engines.values())
            - grid_frozen
        )
        assert grid_steady == 0
        assert np.array_equal(g_out, grid_ref_out)
        grid_report = g_arena.workspace_report()

        print(
            f"\nk={K} blocked applies at ({NT}, {ND}, {NM}): reference "
            f"{t_ref * 1e3:.1f} ms/apply -> arena {t_arena * 1e3:.1f} ms/apply "
            f"({speedup:.3f}x), {steady_allocs} steady-state arena allocations; "
            f"arena {arena.workspace.nbytes / 1e6:.1f} MB in "
            f"{arena.workspace.buffer_count} buffers"
        )

        ARTIFACT.write_text(json.dumps({
            "bench": "workspace",
            "tiny": TINY,
            "shape": {"nt": NT, "nd": ND, "nm": NM, "k": K},
            "applies": APPLIES,
            "wall_reference_s": t_ref,
            "wall_arena_s": t_arena,
            "speedup": speedup,
            "steady_state_allocations": steady_allocs,
            "bitwise_identical": bitwise,
            "arena": {
                "buffers": arena.workspace.buffer_count,
                "nbytes": arena.workspace.nbytes,
                "alloc_count": arena.workspace.alloc_count,
                "cast_noops_counted": arena.cast_noop_count,
            },
            "grid": {
                "grid": "2x2",
                "bitwise_identical": grid_bitwise,
                "steady_state_allocations": grid_steady,
                "grid_arena_bytes": grid_report["grid_arena_bytes"],
                "total_arena_bytes": grid_report["total_arena_bytes"],
            },
        }, indent=2) + "\n")

        data = json.loads(ARTIFACT.read_text())
        assert data["bitwise_identical"]
        assert data["steady_state_allocations"] == 0
        assert data["grid"]["bitwise_identical"]
        assert data["grid"]["steady_state_allocations"] == 0
        assert data["speedup"] > 0 and data["wall_arena_s"] > 0, data

    def test_device_footprint_registered(self):
        # The modeled device peak is exactly the arena's registered
        # footprint — peak bytes as a first-class report field.
        from repro.gpu.device import SimulatedDevice

        dev = SimulatedDevice(MI300X)
        rng = np.random.default_rng(42)
        matrix = BlockTriangularToeplitz.random(
            NT // 2 or 8, ND, NM // 4 or 8, rng=rng, decay=0.05
        )
        eng = FFTMatvec(matrix, device=dev, workspace=True)
        eng.matmat(rng.standard_normal((matrix.nt, matrix.nm, K)))
        assert dev.allocator.peak == eng.workspace.registered_bytes > 0
