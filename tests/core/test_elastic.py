"""ElasticEngine: rank-failure recovery with bitwise guarantees.

The tentpole acceptance test: a mid-``matmat`` rank failure recovers
onto the surviving ``N - 1`` ranks and — under ``reduction="pairwise"``
— the stitched result is **bitwise-identical** to the uninterrupted run,
for random row/column partitions including width-1 parts.
"""

import numpy as np
import pytest

from repro.comm.fault import FailureSchedule, RankFailure
from repro.core.elastic import ElasticEngine, elastic_grid_shape
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.comm.grid import ProcessGrid
from repro.util.validation import ReproError

NT, ND, NM = 8, 6, 12
K = 8


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(777)
    return BlockTriangularToeplitz(rng.standard_normal((NT, ND, NM)))


@pytest.fixture(scope="module")
def reference(matrix):
    """No-failure pairwise engine results (the bitwise ground truth)."""
    grid = ProcessGrid(2, 2)
    engine = ParallelFFTMatvec(matrix, grid, reduction="pairwise")
    rng = np.random.default_rng(888)
    M = rng.standard_normal((NT, NM, K))
    D = rng.standard_normal((NT, ND, K))
    return {
        "M": M,
        "D": D,
        "forward": engine.matmat(M),
        "adjoint": engine.rmatmat(D),
    }


def test_elastic_grid_shape_prefers_square():
    assert elastic_grid_shape(4, ND, NM) == (2, 2)
    assert elastic_grid_shape(3, ND, NM) == (1, 3)  # ties break toward pc
    assert elastic_grid_shape(6, ND, NM) == (2, 3)
    # pr is capped by nd: 8 ranks on a 6-row operator cannot use 8x1.
    pr, pc = elastic_grid_shape(8, ND, NM)
    assert pr * pc == 8 and pr <= ND and pc <= NM
    with pytest.raises(ReproError):
        elastic_grid_shape(7 * 13, 6, 12)


def killing(matrix, n_ranks, sched):
    """A 2-column-chunk elastic engine with failure schedule ``sched``."""
    eng = ElasticEngine(matrix, n_ranks, max_block_k=2)
    eng.install_failure_schedule(sched)
    return eng


def test_failure_free_apply_matches_reference(matrix, reference):
    eng = ElasticEngine(matrix, 4)
    assert np.array_equal(eng.matmat(reference["M"]), reference["forward"])
    assert np.array_equal(eng.rmatmat(reference["D"]), reference["adjoint"])
    assert eng.report.failures == 0


def test_midmatmat_failure_recovers_bitwise(matrix, reference):
    """The headline claim: kill a rank mid-apply, get the same bits."""
    eng = killing(matrix, 4, FailureSchedule(kills=[(5, 2)]))
    out = eng.matmat(reference["M"])
    assert np.array_equal(out, reference["forward"])
    assert eng.report.failures == 1
    assert eng.n_ranks == 3
    assert eng.report.chunks_replayed >= 1
    ev = eng.report.events[0]
    assert ev.old_ranks == 4 and ev.new_ranks == 3
    assert ev.old_shape == (2, 2)
    # The grid actually reshaped — and the geometry key changed with it.
    assert eng.grid.pr * eng.grid.pc == 3


def test_failures_fire_on_the_calling_thread(matrix, reference, rank_groups):
    """Rank failures fire inside collectives, and collectives stay on
    the caller while a chunk's ranks run on the pool: the schedule is
    only ever consulted from the calling thread, and a kill lands on the
    same collective, chunk and reshape as on the inline loop."""
    import threading

    class Recording(FailureSchedule):
        threads = set()

        def on_collective(self, op, comm_name):
            self.threads.add(threading.current_thread())
            return super().on_collective(op, comm_name)

    events = {}
    for w in (1, 3):
        rank_groups(w)
        sched = Recording(kills=[(11, 2)])
        eng = killing(matrix, 4, sched)
        assert np.array_equal(
            eng.matmat(reference["M"]), reference["forward"]
        )
        events[w] = eng.report.events
    assert Recording.threads == {threading.current_thread()}
    assert events[3] == events[1] and len(events[1]) == 1
    (ev,) = events[1]
    assert (ev.chunk, ev.rank, ev.op, ev.collective_index) == (2, 2, "reduce", 11)
    assert ev.new_shape == (1, 3)


def test_resize_to_the_current_size_keeps_the_grid(matrix):
    eng = ElasticEngine(matrix, 4)
    grid, engine = eng.grid, eng.engine
    eng.resize(4)
    assert eng.grid is grid and eng.engine is engine


def test_recovery_grows_back_bitwise(matrix, reference):
    """N+1 elasticity: resize back up after a loss, still bitwise."""
    eng = killing(matrix, 4, FailureSchedule(kills=[(5, 2)]))
    eng.matmat(reference["M"])
    assert eng.n_ranks == 3
    eng.resize(4)  # replacement node joined
    assert eng.n_ranks == 4
    assert np.array_equal(
        eng.rmatmat(reference["D"]), reference["adjoint"]
    )


@pytest.mark.chaos
def test_seeded_chaos_sweep_recovers_bitwise(matrix, reference, chaos_seed):
    """Chaos property test: many seeded schedules, all bitwise."""
    for trial in range(6):
        sched = FailureSchedule.seeded(
            chaos_seed + trial, size=4, n_failures=1, horizon=24
        )
        eng = killing(matrix, 4, sched)
        out = eng.matmat(reference["M"])
        assert np.array_equal(out, reference["forward"]), (
            f"trial {trial}: seed {sched.seed} schedule {sched.fired} "
            "broke bitwise recovery"
        )


@pytest.mark.chaos
def test_random_victims_on_every_world_size(matrix, reference, chaos_seed):
    """Recovery is bitwise whichever rank of whichever grid dies."""
    rng = np.random.default_rng(chaos_seed)
    for n_ranks in (2, 3, 4, 6):
        sched = FailureSchedule(kills=[(4, int(rng.integers(0, n_ranks)))])
        eng = killing(matrix, n_ranks, sched)
        out = eng.matmat(reference["M"])
        assert np.array_equal(out, reference["forward"]), (
            f"{n_ranks} ranks, seed={chaos_seed}"
        )
        assert eng.report.failures == 1


@pytest.mark.chaos
def test_cascading_failures(matrix, reference, chaos_seed):
    """Multi-kill schedules cascade across rebuilds, still bitwise."""
    sched = FailureSchedule(kills=[(4, 1), (40, 0)])
    eng = killing(matrix, 4, sched)
    out = eng.matmat(reference["M"])
    assert np.array_equal(out, reference["forward"])
    # Both kills fired (the second on the rebuilt 3-rank grid) unless
    # the replay finished before collective #40 — then it stays pending.
    assert eng.report.failures >= 1
    if eng.report.failures == 2:
        assert eng.n_ranks == 2


def test_last_rank_failure_reraises(matrix, reference):
    # One survivor absorbs the first kill; the next leaves none.
    kills = [(i, 0) for i in range(0, 400, 4)]
    eng = killing(matrix, 2, FailureSchedule(kills=kills))
    with pytest.raises(RankFailure):
        eng.matmat(reference["M"])
    assert eng.report.failures == 1 and eng.n_ranks == 1


def test_max_failures_backstop(matrix, reference, monkeypatch):
    # Kill at every few collectives; the backstop must eventually re-raise
    # rather than thrash forever.
    monkeypatch.setattr(ElasticEngine, "MAX_FAILURES", 2)
    kills = [(i, 0) for i in range(0, 400, 4)]
    eng = killing(matrix, 4, FailureSchedule(kills=kills))
    with pytest.raises(RankFailure):
        eng.matmat(reference["M"])
    assert eng.report.failures <= 2


def test_geometry_key_changes_on_recovery(matrix, reference):
    eng = killing(matrix, 4, FailureSchedule(kills=[(5, 2)]))
    key_before = eng.geometry_key()
    eng.matmat(reference["M"])
    assert eng.geometry_key() != key_before  # grid shrank mid-run


def test_matvec_roundtrip(matrix, reference):
    eng = ElasticEngine(matrix, 4)
    m = reference["M"][:, :, 0]
    grid_ref = ParallelFFTMatvec(
        matrix, ProcessGrid(2, 2), reduction="pairwise"
    ).matvec(m)
    assert np.array_equal(eng.matvec(m), grid_ref)
