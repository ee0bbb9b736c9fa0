"""Workspace-arena hot path bench: allocation-free repeated applies.

Every engine runs from its arena, as the paper's production FFTMatvec
runs out of persistent device buffers.  On repeated ``k = 16`` blocked
applies with a caller-supplied ``out=`` this bench gates three facts:

* the warm apply is **bitwise** the engine's cold first apply (what an
  apply leaves in the arena never shows in the next one) and within
  ``DENSE_TOL`` of the dense product of ``core/toeplitz.py``,
* the arena allocates **zero** new buffers after the first apply
  (steady state), on the single-device engine and on a 2x2 grid,
* the grid's ``workspace_report()`` is present for every rank.

The seconds per warm apply (``wall_arena_s``) are recorded, not
asserted: tier-1 asserts no raw wall-clock number (ROADMAP item 1(a));
wall-clock claims live in ``bench/``.  It emits ``BENCH_workspace.json``
next to this file; full size and CI's tiny smoke
(``REPRO_BENCH_TINY=1``) assert the same things.
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
# Full size: the pad/reorder buffers are ~50 MB, above glibc's adaptive
# mmap-threshold cap (32 MB) — what a per-apply allocation would fault in.
NT, ND, NM = (16, 8, 48) if TINY else (256, 24, 768)
K = 16
APPLIES = 3 if TINY else 8
REPS = 1 if TINY else 3
# The dense product is O(Nt^2) einsums: 0.7 s a column at full size, so
# full size checks the first and the last column, tiny all of them.
DENSE_COLUMNS = range(K) if TINY else (0, K - 1)
DENSE_TOL = 1e-12  # ddddd; the FFT route reads ~1e-15

ARTIFACT = Path(__file__).parent / "BENCH_workspace.json"


def operator() -> BlockTriangularToeplitz:
    return BlockTriangularToeplitz.random(
        NT, ND, NM, rng=np.random.default_rng(42), decay=0.05
    )


def time_applies(engine: FFTMatvec, B: np.ndarray, out: np.ndarray) -> float:
    """Best-of-REPS mean seconds per blocked apply into ``out``."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        for _ in range(APPLIES):
            engine.matmat(B, out=out)
        best = min(best, (time.perf_counter() - t0) / APPLIES)
    return best


def total_allocs(grid: ParallelFFTMatvec) -> int:
    return grid.workspace.alloc_count + sum(
        e.workspace.alloc_count for e in grid.engines.values()
    )


class TestWorkspaceBench:
    def test_warm_applies_with_artifact(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((NT, NM, K))
        eng = FFTMatvec(operator())

        # The cold first apply grows the arena and prepares the records;
        # the timed warm applies write the caller's ``out``.
        cold = eng.matmat(B)
        frozen_allocs = eng.workspace.alloc_count
        out = np.empty((NT, ND, K))
        t_arena = time_applies(eng, B, out)
        steady_allocs = eng.workspace.alloc_count - frozen_allocs
        warm_equals_cold = bool(np.array_equal(out, cold))
        dense = {j: eng.matrix.matvec_reference(B[:, :, j]) for j in DENSE_COLUMNS}
        dense_rel_err = max(
            float(np.linalg.norm(out[:, :, j] - want) / np.linalg.norm(want))
            for j, want in dense.items()
        )

        # Grid rider: zero growth and warm == cold on a 2x2 grid, whose
        # report covers the grid arena and every rank's.
        grid = ParallelFFTMatvec(
            operator(),
            ProcessGrid(2, 2, net=FRONTIER_NETWORK),
            spec=MI300X,
            max_block_k=K // 2,
        )
        grid_cold = grid.matmat(B)
        grid_frozen = total_allocs(grid)
        g_out = np.empty((NT, ND, K))
        for _ in range(3):
            grid.matmat(B, out=g_out)
        grid_steady = total_allocs(grid) - grid_frozen
        grid_warm_equals_cold = bool(np.array_equal(g_out, grid_cold))
        grid_report = grid.workspace_report()

        print(
            f"\nk={K} blocked applies at ({NT}, {ND}, {NM}): "
            f"{t_arena * 1e3:.1f} ms/apply, {steady_allocs} steady-state arena "
            f"allocations, dense rel err {dense_rel_err:.1e}; arena "
            f"{eng.workspace.nbytes / 1e6:.1f} MB in {eng.workspace.buffer_count} buffers"
        )

        ARTIFACT.write_text(json.dumps({
            "bench": "workspace",
            "tiny": TINY,
            "shape": {"nt": NT, "nd": ND, "nm": NM, "k": K},
            "applies": APPLIES,
            "wall_arena_s": t_arena,
            "steady_state_allocations": steady_allocs,
            "warm_equals_cold": warm_equals_cold,
            "dense_rel_err": dense_rel_err,
            "arena": {
                "buffers": eng.workspace.buffer_count,
                "nbytes": eng.workspace.nbytes,
                "alloc_count": eng.workspace.alloc_count,
                "cast_noops_counted": eng.cast_noop_count,
            },
            "grid": {
                "grid": "2x2",
                "warm_equals_cold": grid_warm_equals_cold,
                "steady_state_allocations": grid_steady,
                "rank_arenas": len(grid_report["rank_arenas"]),
                "grid_arena_bytes": grid_report["grid_arena_bytes"],
                "total_arena_bytes": grid_report["total_arena_bytes"],
            },
        }, indent=2) + "\n")

        data = json.loads(ARTIFACT.read_text())
        assert data["warm_equals_cold"]
        assert data["dense_rel_err"] < DENSE_TOL, data
        assert data["steady_state_allocations"] == 0
        assert data["grid"]["warm_equals_cold"]
        assert data["grid"]["steady_state_allocations"] == 0
        assert data["grid"]["rank_arenas"] == 4 and data["grid"]["grid_arena_bytes"] > 0, data

    def test_device_footprint_registered(self):
        # The modeled device peak is exactly the arena's registered
        # footprint — peak bytes as a first-class report field.
        from repro.gpu.device import SimulatedDevice

        dev = SimulatedDevice(MI300X)
        rng = np.random.default_rng(42)
        matrix = BlockTriangularToeplitz.random(
            NT // 2 or 8, ND, NM // 4 or 8, rng=rng, decay=0.05
        )
        eng = FFTMatvec(matrix, device=dev)
        eng.matmat(rng.standard_normal((matrix.nt, matrix.nm, K)))
        assert dev.allocator.peak == eng.workspace.registered_bytes > 0
