"""FailureSchedule / RankFailure: seeded, deterministic fault injection."""

import numpy as np
import pytest

from repro.comm.fault import CorruptionSchedule, FailureSchedule, RankFailure
from repro.comm.grid import ProcessGrid
from repro.comm.simcomm import SimCommunicator
from repro.util.validation import ReproError


def test_explicit_schedule_fires_at_index():
    sched = FailureSchedule(kills=[(2, 1)])
    comm = SimCommunicator(4)
    comm.install_failure_schedule(sched)
    payload = np.ones(3)
    comm.bcast(payload, root=0)  # collective 0
    comm.bcast(payload, root=0)  # collective 1
    with pytest.raises(RankFailure) as exc_info:
        comm.bcast(payload, root=0)  # collective 2 -> kill
    err = exc_info.value
    assert err.rank == 1
    assert err.op == "bcast"
    assert err.collective_index == 2
    assert sched.pending == ()
    assert sched.fired == [err]


def test_kill_consumed_before_raising():
    """Replaying the lost collective must not re-fire the same kill."""
    sched = FailureSchedule(kills=[(0, 2)])
    comm = SimCommunicator(4)
    comm.install_failure_schedule(sched)
    with pytest.raises(RankFailure):
        comm.bcast(np.ones(2), root=0)
    # Same collective again — the schedule has moved on.
    out = comm.bcast(np.ones(2), root=0)
    assert all(np.array_equal(o, np.ones(2)) for o in out)


@pytest.mark.parametrize("op", ["bcast", "reduce", "reduce_segments"])
def test_every_collective_kind_is_injectable(op):
    sched = FailureSchedule(kills=[(0, 0)])
    comm = SimCommunicator(2)
    comm.install_failure_schedule(sched)
    per_rank = [np.ones(2), np.ones(2)]
    with pytest.raises(RankFailure) as exc_info:
        if op == "reduce":
            comm.reduce(per_rank, root=0)
        elif op == "reduce_segments":
            comm.reduce_segments([{(0, 1): np.ones(2)}, {(1, 2): np.ones(2)}], 2)
        else:
            comm.bcast(np.ones(2), root=0)
    # A segment reduce is a reduce on the wire: the schedule sees "reduce".
    assert exc_info.value.op == ("reduce" if op == "reduce_segments" else op)


def test_counter_shared_across_grid_communicators():
    """One schedule counts row and column collectives together."""
    sched = FailureSchedule(kills=[(1, 0)])
    grid = ProcessGrid(2, 2)
    grid.install_failure_schedule(sched)
    grid.col_comm(1).bcast(np.ones(2), root=0)  # collective 0
    row = grid.row_comm(0)
    with pytest.raises(RankFailure) as exc_info:
        row.bcast(np.ones(2), root=0)  # collective 1
    assert exc_info.value.comm_name == "row0"
    # Disarm: no further injection anywhere on the grid.
    grid.install_failure_schedule(None)
    grid.col_comm(1).bcast(np.ones(2), root=0)


def test_seeded_schedules_are_reproducible():
    a = FailureSchedule.seeded(123, size=8, n_failures=3, horizon=20)
    b = FailureSchedule.seeded(123, size=8, n_failures=3, horizon=20)
    assert a.pending == b.pending
    assert a.seed == 123
    assert len(a.pending) == 3
    assert all(0 <= i < 20 and 0 <= r < 8 for i, r in a.pending)
    c = FailureSchedule.seeded(124, size=8, n_failures=3, horizon=20)
    assert c.pending != a.pending  # different seed, different schedule


def test_seeded_first_offset():
    sched = FailureSchedule.seeded(7, size=4, n_failures=2, horizon=5, first=100)
    assert all(100 <= i < 105 for i, _ in sched.pending)


def test_schedule_validation():
    with pytest.raises(ReproError):
        FailureSchedule(kills=[(0, 1), (0, 2)])  # duplicate index
    with pytest.raises(ReproError):
        FailureSchedule(kills=[(-1, 0)])
    with pytest.raises(ReproError):
        FailureSchedule(kills=[(0, -1)])
    with pytest.raises(ReproError):
        FailureSchedule.seeded(0, size=4, n_failures=9, horizon=4)
    with pytest.raises(ReproError):
        FailureSchedule.seeded(0, size=4, n_failures=0)


def test_seeded_corruptions_are_reproducible():
    a = CorruptionSchedule.seeded(123, size=8, n_flips=3, horizon=20, first=4, bit=30)
    b = CorruptionSchedule.seeded(123, size=8, n_flips=3, horizon=20, first=4, bit=30)
    assert a.pending == b.pending and len(a.pending) == 3
    assert all(4 <= i < 24 and 0 <= r < 8 for i, r in a.pending)
    assert (a.seed, a.bit) == (123, 30)
    assert CorruptionSchedule.seeded(124, size=8, n_flips=3, horizon=20).pending != a.pending


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: CorruptionSchedule(flips=[(0, 1), (0, 2)]), "duplicate flip"),
        (lambda: CorruptionSchedule(flips=[(-1, 0)]), "event index"),
        (lambda: CorruptionSchedule(flips=[(0, -1)]), "rank"),
        (lambda: CorruptionSchedule.seeded(0, size=4, n_flips=9, horizon=4), "horizon"),
        (lambda: CorruptionSchedule.seeded(0, size=4, n_flips=0), "n_flips"),
    ],
    ids=["duplicate", "negative-index", "negative-rank", "past-horizon", "no-flips"],
)
def test_corruption_schedule_validation(build, match):
    with pytest.raises(ReproError, match=match):
        build()


def test_chaos_fixture_factory(failure_schedule, chaos_seed):
    """The conftest factory derives schedules from the printed seed."""
    s1 = failure_schedule(size=6, n_failures=2, horizon=16)
    s2 = failure_schedule(size=6, n_failures=2, horizon=16)
    assert s1.pending == s2.pending
    assert s1.seed == chaos_seed
    override = failure_schedule(size=6, seed=chaos_seed + 1, n_failures=2, horizon=16)
    assert override.seed == chaos_seed + 1
