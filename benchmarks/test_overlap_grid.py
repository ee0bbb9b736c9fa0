"""Overlapped grid matmat bench: prefetch broadcasts behind compute.

The acceptance benchmark for the event-timeline schedule: at ``k = 16``
on a 2x2 grid, ``ParallelFFTMatvec.matmat`` with ``overlap=True`` must

* return **bitwise-identical** results to the serial (``overlap=False``)
  schedule — the timeline decides what time costs, never what is
  computed,
* charge **strictly less modeled time** than the serial schedule
  (compute covers the prefetched chunk broadcasts; only chunk 0's
  broadcast and the last reduce stay exposed),
* report the overlapped wall in ``last_timing.wall`` while the phase
  sum still accounts for every second of work charged.

It emits a ``BENCH_overlap_grid.json`` artifact next to this file and
asserts the overlap win on what it wrote, at full size and at tiny
sizes (``REPRO_BENCH_TINY=1``).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.comm.partition import skewed_extents
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import MI300X

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
NT, ND, NM = (16, 8, 48) if TINY else (48, 64, 384)
PR, PC, K, MBK = 2, 2, 16, 4

ARTIFACT = Path(__file__).parent / "BENCH_overlap_grid.json"


def make_engine(**kw):
    rng = np.random.default_rng(1234)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
    grid = ProcessGrid(PR, PC, net=FRONTIER_NETWORK)
    eng = ParallelFFTMatvec(matrix, grid, spec=MI300X, max_block_k=MBK, **kw)
    block = rng.standard_normal((NT, NM, K))
    return eng, grid, matrix, block


class TestOverlapGridBench:
    def test_overlap_vs_serial_with_artifact(self):
        eng, grid, _, block = make_engine()

        t0 = grid.clock.now
        serial = eng.matmat(block, overlap=False)
        t_serial = grid.clock.now - t0

        t0 = grid.clock.now
        overlapped = eng.matmat(block, overlap=True)
        t_overlap = grid.clock.now - t0
        wall = eng.last_timing.wall
        work = eng.last_timing.total

        # Bitwise-identical numerics, strictly lower modeled time.
        assert np.array_equal(overlapped, serial)
        assert t_overlap < t_serial
        assert wall == pytest.approx(t_overlap)
        assert work > t_overlap  # overlap hides charged work

        # Skew rider: an irregular partition of the same problem charges
        # more wall time than the balanced one.
        eng_skew, grid_skew, _, _ = (
            lambda r: make_engine(row_ranges=r)
        )(skewed_extents(ND, PR, skew=0.5))
        t0 = grid_skew.clock.now
        eng_skew.matmat(block, overlap=True)
        t_skew = grid_skew.clock.now - t0
        assert t_skew > t_overlap

        hidden = t_serial - t_overlap
        print(
            f"\ngrid {PR}x{PC}, k={K}, chunks of {MBK}: serial "
            f"{t_serial * 1e3:.3f} ms -> overlapped {t_overlap * 1e3:.3f} ms "
            f"({t_serial / t_overlap:.3f}x, {hidden * 1e6:.1f} us hidden); "
            f"skewed partition {t_skew * 1e3:.3f} ms"
        )

        ARTIFACT.write_text(json.dumps({
            "bench": "overlap_grid",
            "grid": f"{PR}x{PC}",
            "shape": {"nt": NT, "nd": ND, "nm": NM, "k": K, "max_block_k": MBK},
            "modeled_serial_s": t_serial,
            "modeled_overlapped_s": t_overlap,
            "modeled_skewed_s": t_skew,
            "hidden_s": hidden,
            "overlap_speedup": t_serial / t_overlap,
            "skew_penalty": t_skew / t_overlap,
            "bitwise_identical": True,
        }, indent=2) + "\n")
        data = json.loads(ARTIFACT.read_text())
        assert data["bitwise_identical"], data
        assert data["overlap_speedup"] > 1.0, data
        assert data["skew_penalty"] > 1.0, data

    def test_counters_identical_between_schedules(self):
        # The overlap is pure scheduling: collective counts and payload
        # bytes must not change.
        eng, grid, _, block = make_engine()
        col0, row0 = grid.col_comm(0), grid.row_comm(0)
        stats = {}
        for mode in (False, True):
            col0.reset_op_counts()
            row0.reset_op_counts()
            eng.matmat(block, overlap=mode)
            stats[mode] = (
                col0.op_counts["bcast"],
                row0.op_counts["reduce"],
                col0.op_bytes["bcast"],
                row0.op_bytes["reduce"],
            )
        assert stats[False] == stats[True]
        assert stats[True][0] == K // MBK  # one bcast per chunk
