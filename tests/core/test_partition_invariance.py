"""Property tests: what a grid apply may *not* depend on.

* The partition (ISSUE-8): with ``reduction="pairwise"`` the grid
  engine's matmat/rmatmat are bitwise identical to the single-device
  pairwise engine for *any* row/column partition — including width-1
  parts — at any ``max_block_k``, on both engines and both directions.
* The executor: whether the ranks of a chunk run inline or as
  concurrent groups (``rank_groups`` fixture) changes no output bit,
  no simulated clock, no launch record and no arena — in either
  reduction mode, on any partition, with or without checks.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.comm.fault import NumericalHealthError, SilentCorruption
from repro.comm.grid import ProcessGrid
from repro.comm.partition import skewed_extents
from repro.core import parallel
from repro.core.elastic import ElasticEngine
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.util import checksum as chk

NT, ND, NM, K = 10, 9, 17, 4


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(42)
    blocks = rng.standard_normal((NT, ND, NM)) * np.exp(
        -0.05 * np.arange(NT)[:, None, None]
    )
    mat = BlockTriangularToeplitz(blocks)
    M = rng.standard_normal((NT, NM, K))
    D = rng.standard_normal((NT, ND, K))
    return mat, M, D


@pytest.fixture(scope="module")
def reference(problem):
    mat, M, D = problem
    single = FFTMatvec(mat, reduction="pairwise")
    return {
        cfg: (single.matmat(M, config=cfg), single.rmatmat(D, config=cfg))
        for cfg in ("ddddd", "dssdd")
    }


def _random_partition(rng, n, parts):
    """A random contiguous partition; width-1 parts are likely."""
    cuts = sorted(rng.choice(np.arange(1, n), size=parts - 1, replace=False))
    bounds = [0] + [int(c) for c in cuts] + [n]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("config", ["ddddd", "dssdd"])
def test_random_partitions_bitwise(problem, reference, config):
    mat, M, D = problem
    ref_f, ref_a = reference[config]
    rng = np.random.default_rng(7)
    for trial in range(6):
        rr = _random_partition(rng, ND, 2)
        cc = _random_partition(rng, NM, 2)
        mbk = [None, 2, 3][trial % 3]
        par = ParallelFFTMatvec(
            mat,
            ProcessGrid(2, 2),
            reduction="pairwise",
            row_ranges=rr,
            col_ranges=cc,
            max_block_k=mbk,
        )
        assert np.array_equal(par.matmat(M, config=config), ref_f), (rr, cc, mbk)
        assert np.array_equal(par.rmatmat(D, config=config), ref_a), (rr, cc, mbk)


def test_width_one_parts_bitwise(problem, reference):
    mat, M, D = problem
    ref_f, ref_a = reference["dssdd"]
    par = ParallelFFTMatvec(
        mat,
        ProcessGrid(2, 2),
        reduction="pairwise",
        row_ranges=[(0, 1), (1, ND)],
        col_ranges=[(0, 1), (1, NM)],
    )
    assert np.array_equal(par.matmat(M, config="dssdd"), ref_f)
    assert np.array_equal(par.rmatmat(D, config="dssdd"), ref_a)


def test_degenerate_grids_bitwise(problem, reference):
    mat, M, _ = problem
    ref_f, _ = reference["dssdd"]
    for pr, pc in ((3, 1), (1, 3)):
        par = ParallelFFTMatvec(mat, ProcessGrid(pr, pc), reduction="pairwise")
        assert np.array_equal(par.matmat(M, config="dssdd"), ref_f), (pr, pc)


def test_vector_path_matches_block_columns(problem, reference):
    mat, M, D = problem
    ref_f, ref_a = reference["ddddd"]
    par = ParallelFFTMatvec(
        mat,
        ProcessGrid(2, 2),
        reduction="pairwise",
        col_ranges=[(0, 13), (13, NM)],
    )
    for j in range(K):
        assert np.array_equal(par.matvec(M[:, :, j], config="ddddd"), ref_f[:, :, j])
        assert np.array_equal(par.rmatvec(D[:, :, j], config="ddddd"), ref_a[:, :, j])


def test_single_engine_blocked_equals_looped(problem):
    mat, M, _ = problem
    eng = FFTMatvec(mat, reduction="pairwise")
    blocked = eng.matmat(M, config="dssdd")
    for j in range(K):
        one = eng.matmat(M[:, :, j : j + 1], config="dssdd")
        assert np.array_equal(blocked[:, :, j : j + 1], one)


def test_pairwise_close_to_fast(problem):
    mat, M, _ = problem
    fast = FFTMatvec(mat).matmat(M, config="dssdd")
    pw = FFTMatvec(mat, reduction="pairwise").matmat(M, config="dssdd")
    assert np.linalg.norm(fast - pw) / np.linalg.norm(fast) < 1e-5


# -- threaded vs inline: the executor is unobservable ---------------------------
PARTITIONS = {
    "balanced": (None, None),
    "skewed": (skewed_extents(ND, 2, skew=0.6), skewed_extents(NM, 2, skew=0.6)),
    "width1": ([(0, 1), (1, ND)], [(0, NM - 1), (NM - 1, NM)]),
}


def _grid(mat, reduction, partition="balanced", validate=None, overlap=True):
    rows, cols = PARTITIONS[partition]
    eng = ParallelFFTMatvec(
        mat, ProcessGrid(2, 2), spec="MI300X", workspace=True, max_block_k=2,
        reduction=reduction, row_ranges=rows, col_ranges=cols,
        validate=validate, overlap=overlap,
    )
    for dev in eng.devices.values():
        dev._record = True  # keep the per-rank launch logs
    return eng


def _observables(eng, V, adjoint, applies=1):
    """Everything a caller can see of ``applies`` applies of ``V``."""
    apply = eng.rmatmat if adjoint else eng.matmat
    for _ in range(applies):
        out = apply(V)
    arenas = [eng.workspace] + [e.workspace for e in eng.engines.values()]
    return {
        "out": out,
        "phases": eng.last_timing.phases,
        "wall": eng.last_timing.wall,
        "grid_clock": eng.grid.clock.now,
        "rank_report": eng.rank_compute_report(),
        "launch_logs": {rc: list(d.launch_log) for rc, d in eng.devices.items()},
        "stats": {rc: d.stats for rc, d in eng.devices.items()},
        "allocs": [ws.alloc_count for ws in arenas],
        "sdc_checks": [e.sdc_checks for e in eng.engines.values()],
    }


@pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "serial"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["F", "Fstar"])
@pytest.mark.parametrize("validate", [None, "abft"])
@pytest.mark.parametrize("partition", list(PARTITIONS))
@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
def test_threaded_equals_inline(
    problem, rank_groups, reduction, partition, validate, adjoint, overlap
):
    mat, M, D = problem
    V = D if adjoint else M
    seen = {}
    for w in (1, 3):  # 3 groups over 4 ranks: uneven strides, two workers
        rank_groups(w)
        eng = _grid(mat, reduction, partition, validate, overlap)
        seen[w] = _observables(eng, V, adjoint, applies=2)
    inline, threaded = seen[1], seen[3]
    assert np.array_equal(threaded.pop("out"), inline.pop("out"))
    assert threaded == inline  # clocks, logs, stats, arenas: exactly


@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
def test_threaded_applies_are_allocation_free(problem, rank_groups, reduction):
    mat, M, D = problem
    rank_groups(3)
    eng = _grid(mat, reduction)
    warm = _observables(eng, M, False)["allocs"], _observables(eng, D, True)["allocs"]
    for _ in range(10):
        eng.matmat(M), eng.rmatmat(D)
    assert _observables(eng, D, True)["allocs"] == warm[1]


def test_two_callers_share_the_pool(problem, rank_groups):
    """Two grid engines applied from two threads at once: one pool, no
    deadlock, every result bitwise the inline one."""
    mat, M, D = problem
    rank_groups(1)
    want = {r: _grid(mat, r).matmat(M) for r in ("fast", "pairwise")}
    rank_groups(3)
    engines = {r: _grid(mat, r) for r in want}
    start = threading.Barrier(len(engines))
    bad = []

    def caller(reduction):
        start.wait(timeout=30)
        for _ in range(25):
            if not np.array_equal(engines[reduction].matmat(M), want[reduction]):
                bad.append(reduction)

    threads = [threading.Thread(target=caller, args=(r,)) for r in engines]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not bad


def _poisoned(M, cols):
    V = M.copy()
    V[0, cols, 0] = np.nan
    return V


@pytest.mark.parametrize("w", [1, 3], ids=["inline", "threaded"])
def test_lowest_failing_rank_raises_after_all_groups_finish(problem, rank_groups, w):
    mat, M, _ = problem
    rank_groups(w)
    eng = _grid(mat, "fast", validate="guard")
    # Ranks 1 and 3 own the poisoned column part; rank 2 is clean but
    # slow: it must have finished before the error reaches the caller.
    slow, finished = eng.engines[(1, 0)], []

    def slow_block(*args, _run=slow._pipeline_block, **kwargs):
        time.sleep(0.05)
        res = _run(*args, **kwargs)
        finished.append(True)
        return res

    slow._pipeline_block = slow_block
    with pytest.raises(NumericalHealthError) as err:
        eng.matmat(_poisoned(M, slice(NM - 1, NM)))
    assert (err.value.rank, err.value.phase) == (1, "pad")
    assert finished or w == 1  # inline stops at the first failing rank
    assert not any(e.workspace.in_use for e in eng.engines.values())
    del slow._pipeline_block
    with pytest.raises(NumericalHealthError) as err:
        eng.matmat(_poisoned(M, slice(None)))
    assert err.value.rank == 0  # every rank fails: the lowest one's wins
    clean = eng.matmat(M)
    rank_groups(1)
    assert np.array_equal(clean, _grid(mat, "fast").matmat(M))


@pytest.mark.parametrize("w", [1, 3], ids=["inline", "threaded"])
def test_worker_corruption_keeps_its_fields(problem, rank_groups, w):
    """A rank that detects SDC on a pool thread surfaces the same typed
    error — rank, phase, and the chunk ElasticEngine stamps on it."""
    mat, M, _ = problem
    rank_groups(w)
    eng = ElasticEngine(
        mat, 4, max_block_k=2, workspace=True, validate="abft",
        max_corruption_retries=1,
    )
    want = eng.matmat(M)  # first use pins the clean checksum rows
    victim = eng.engine.engines[(1, 1)]
    chk.flip_bit(victim.spectrum("d"), index=5)  # persistent: every retry trips
    with pytest.raises(SilentCorruption) as err:
        eng.matmat(M)
    assert (err.value.rank, err.value.phase, err.value.chunk) == (3, "sbgemv", 0)
    assert [(e.rank, e.chunk, e.attempt) for e in eng.report.corruption_events] == [
        (3, 0, 1), (3, 0, 2)
    ]
    assert not any(e.workspace.in_use for e in eng.engine.engines.values())
    chk.flip_bit(victim.spectrum("d"), index=5)  # repair
    assert np.array_equal(eng.matmat(M), want)
