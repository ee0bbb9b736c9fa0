"""Determinism bench: pairwise reduction is bitwise at any partition.

The ISSUE-8 acceptance benchmark: at ``k = 16`` on a 2x2 grid with
``reduction="pairwise"``, the blocked apply must

* return **bitwise-identical** results across at least three distinct
  column partitions — including one with a width-1 part (``min_part=1``,
  which fast-mode rebalancing had to forbid),
* match the single-device pairwise engine bitwise (the grid adds no
  regrouping),
* charge a modeled overhead over the fast reduction of **at most 15%**
  on the blocked apply — the determinism tax the paper's fleet pays for
  run-to-run reproducibility.

Next to the modeled tax it records what the wall clock says about the
same blocked apply — ``wall_fast_s`` / ``wall_pairwise_s`` (medians of
interleaved runs) and their ``wall_ratio`` — with no threshold: at tiny
sizes the ratio is Python overhead, but the modeled-vs-measured gap is
now visible in every run.

Emits ``BENCH_determinism.json`` so CI's smoke step can assert the
bitwise guarantee and the overhead bound at tiny sizes
(``REPRO_BENCH_TINY=1``).
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.specs import MI300X

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
NT, ND, NM = (16, 8, 48) if TINY else (32, 32, 192)
PR, PC, K, MBK = 2, 2, 16, 4

ARTIFACT = Path(__file__).parent / "BENCH_determinism.json"


def partitions():
    """Three distinct column partitions, one with a width-1 part."""
    third = NM // 3
    return [
        None,  # the even split
        [(0, third), (third, NM)],
        [(0, 1), (1, NM)],  # width-1: legal only under pairwise
    ]


def make_problem():
    rng = np.random.default_rng(77)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
    block = rng.standard_normal((NT, NM, K))
    return matrix, block


def make_engine(matrix, reduction="pairwise", **kw):
    grid = ProcessGrid(PR, PC, net=FRONTIER_NETWORK)
    return (
        ParallelFFTMatvec(
            matrix, grid, spec=MI300X, max_block_k=MBK,
            reduction=reduction, **kw
        ),
        grid,
    )


def wall_medians(matrix, block, reps=7):
    """Real-clock medians of one blocked grid apply, fast vs pairwise,
    interleaved so host drift hits both alike."""
    engines = {r: make_engine(matrix, reduction=r)[0] for r in ("fast", "pairwise")}
    samples = {r: [] for r in engines}
    for rep in range(reps + 1):
        for reduction, eng in engines.items():
            t0 = time.perf_counter()
            eng.matmat(block)
            if rep:  # the first round warms plans and caches
                samples[reduction].append(time.perf_counter() - t0)
    return {r: statistics.median(v) for r, v in samples.items()}


class TestDeterminismBench:
    def test_bitwise_across_partitions_with_artifact(self):
        matrix, block = make_problem()
        single = FFTMatvec(matrix, reduction="pairwise").matmat(block)

        outputs, walls = [], []
        for cols in partitions():
            eng, grid = make_engine(matrix, col_ranges=cols)
            t0 = grid.clock.now
            out = eng.matmat(block)
            walls.append(grid.clock.now - t0)
            outputs.append(out)
        for out in outputs:
            assert np.array_equal(out, single)

        # Determinism tax, both schedules on the same even partition:
        # the serial walls compare pure charged work (the tax is always
        # positive there); the overlapped walls are what a caller
        # actually pays — the double-buffered schedule can hide part or
        # all of the slower reduce behind compute.
        def wall(reduction, overlap):
            eng, grid = make_engine(matrix, reduction=reduction)
            t0 = grid.clock.now
            out = eng.matmat(block, overlap=overlap)
            return grid.clock.now - t0, out

        t_fast_serial, out_fast = wall("fast", overlap=False)
        t_pw_serial, _ = wall("pairwise", overlap=False)
        t_fast, _ = wall("fast", overlap=True)
        t_pairwise = walls[0]
        overhead_serial = t_pw_serial / t_fast_serial - 1.0
        overhead = t_pairwise / t_fast - 1.0
        assert 0.0 < overhead_serial <= 0.15
        assert overhead <= 0.15
        # Sanity on the fast path itself: close, but a different grouping.
        rel = np.linalg.norm(out_fast - single) / np.linalg.norm(single)
        assert rel < 1e-12

        wall = wall_medians(matrix, block)
        wall_ratio = wall["pairwise"] / wall["fast"]

        print(
            f"\ngrid {PR}x{PC}, k={K}: pairwise bitwise across "
            f"{len(outputs)} partitions (incl. width-1); serial "
            f"{t_fast_serial * 1e3:.3f} -> {t_pw_serial * 1e3:.3f} ms "
            f"({overhead_serial * 100:.2f}% tax), overlapped "
            f"{t_fast * 1e3:.3f} -> {t_pairwise * 1e3:.3f} ms "
            f"({overhead * 100:.2f}%); wall clock "
            f"{wall['fast'] * 1e3:.2f} -> {wall['pairwise'] * 1e3:.2f} ms "
            f"({wall_ratio:.2f}x)"
        )

        ARTIFACT.write_text(json.dumps({
            "bench": "determinism",
            "grid": f"{PR}x{PC}",
            "shape": {"nt": NT, "nd": ND, "nm": NM, "k": K, "max_block_k": MBK},
            "partitions_checked": len(outputs),
            "includes_width_one_part": True,
            "bitwise_across_partitions": True,
            "bitwise_vs_single_device": True,
            "modeled_fast_serial_s": t_fast_serial,
            "modeled_pairwise_serial_s": t_pw_serial,
            "overhead_fraction_serial": overhead_serial,
            "modeled_fast_s": t_fast,
            "modeled_pairwise_s": t_pairwise,
            "overhead_fraction": overhead,
            "overhead_bound": 0.15,
            "wall_fast_s": wall["fast"],
            "wall_pairwise_s": wall["pairwise"],
            "wall_ratio": wall_ratio,
        }, indent=2) + "\n")
        data = json.loads(ARTIFACT.read_text())
        assert data["bitwise_across_partitions"]
        assert data["overhead_fraction"] <= data["overhead_bound"]
        assert data["overhead_fraction_serial"] <= data["overhead_bound"]
        assert min(data["wall_fast_s"], data["wall_pairwise_s"], data["wall_ratio"]) > 0

    def test_fast_mode_regroups_where_pairwise_does_not(self):
        # The control: under the fast reduction, repartitioning is
        # allowed to (and at these sizes does) move bits — the pairwise
        # guarantee is not vacuous.
        matrix, block = make_problem()
        outs = []
        for cols in (None, [(0, NM // 3), (NM // 3, NM)]):
            eng, _ = make_engine(matrix, reduction="fast", col_ranges=cols)
            outs.append(eng.matmat(block))
        rel = np.linalg.norm(outs[0] - outs[1]) / np.linalg.norm(outs[0])
        assert rel < 1e-12  # still correct
        # No bitwise assertion either way for fast mode: that is the point.

    def test_adjoint_bitwise_across_partitions(self):
        matrix, _ = make_problem()
        rng = np.random.default_rng(78)
        D = rng.standard_normal((NT, ND, K))
        single = FFTMatvec(matrix, reduction="pairwise").rmatmat(D)
        for cols in partitions():
            eng, _ = make_engine(matrix, col_ranges=cols)
            assert np.array_equal(eng.rmatmat(D), single)
