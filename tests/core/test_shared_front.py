"""Contract: ranks that share their part root's front show nothing else.

Every rank of a grid input part (a column for F, a row for F*) receives
the same broadcast bits, so an unarmed grid runs pad → FFT → reorder
once per part, on the part root, and hands the panel to every rank of
the part (``ParallelFFTMatvec._chunk_fronts``).  An installed failure
schedule — even an empty one, which never fires — switches that off:
each rank transforms the part's block itself, as an armed or injecting
grid does.  The two runs must agree exactly on everything a caller can
see: outputs, ``last_timing`` (phases, wall, label),
``rank_compute_report()``, every rank device's clock, stats and launch
log, every rank engine's dispatch counts and cast no-ops, and every
communicator's counters — in both reductions, on balanced, skewed and
width-1 partitions and on 4x1 and 1x4 grids, for F and F*, double and
single pads, vector, block and deterministic block applies, inline and
with the chunk's parts and ranks on the pool.  Only the non-root ranks'
own front plans stay still: that is the work removed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.fault import FailureSchedule
from repro.comm.grid import ProcessGrid
from repro.comm.partition import skewed_extents
from repro.core.parallel import ParallelFFTMatvec

NT, ND, NM, K = 12, 7, 9, 5

PARTITIONS = {
    "2x2": ((2, 2), None, None),
    "skewed": ((2, 2), skewed_extents(ND, 2, skew=0.7), skewed_extents(NM, 2, skew=0.7)),
    "width1": ((2, 2), [(0, 1), (1, ND)], [(0, NM - 1), (NM - 1, NM)]),
    "4x1": ((4, 1), None, None),
    "1x4": ((1, 4), None, None),
}


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(20261018)
    blocks = rng.standard_normal((NT, ND, NM)) * np.exp(-0.1 * np.arange(NT)[:, None, None])
    return blocks, rng.standard_normal((NT, NM, K)), rng.standard_normal((NT, ND, K))


def _grid(blocks, reduction, partition, per_rank):
    shape, rows, cols = PARTITIONS[partition]
    eng = ParallelFFTMatvec(
        blocks, ProcessGrid(*shape), spec="MI300X", max_block_k=2,
        reduction=reduction, row_ranges=rows, col_ranges=cols, backend="numpy",
    )
    for dev in eng.devices.values():
        dev._record = True  # keep the per-rank launch logs
    if per_rank:
        eng.install_failure_schedule(FailureSchedule())  # never fires
    return eng


def _front_executions(eng, adjoint):
    """Front-plan executions of the ranks that are not their input
    part's root (the broadcast's root is a part's first rank)."""
    return sum(
        rec.plan.executions
        for (r, c), e in eng.engines.items()
        if (c if adjoint else r) != 0
        for key, rec in e._plans.items()
        if key[0] != "back"
    )


def _observe(eng, V, config, adjoint):
    """Everything a caller sees of a vector, a block and a deterministic
    block apply, and of the serial schedule."""
    block = eng.rmatmat if adjoint else eng.matmat
    vector = eng.rmatvec if adjoint else eng.matvec
    calls = []
    for run in (
        lambda: vector(V[:, :, 0], config),
        lambda: block(V, config),
        lambda: block(V, config, deterministic=True),
        lambda: block(V, config, overlap=False),
    ):
        out = run()
        t = eng.last_timing
        calls.append((out, t.phases, t.wall, t.label))
    comms = eng._row_comms + eng._col_comms
    return {
        "calls": calls,
        "rank_report": eng.rank_compute_report(),
        "clocks": {rc: (d.clock.now, d.clock.phase_totals()) for rc, d in eng.devices.items()},
        "stats": {rc: d.stats for rc, d in eng.devices.items()},
        "launch_logs": {rc: list(d.launch_log) for rc, d in eng.devices.items()},
        "dispatch": {rc: dict(e.dispatcher.dispatch_counts) for rc, e in eng.engines.items()},
        "cast_noops": {rc: e.cast_noop_count for rc, e in eng.engines.items()},
        "comms": [(c.op_counts, c.op_bytes, c.bytes_communicated) for c in comms],
        "counts": (eng.matvec_count, eng.matmat_count),
    }


def _assert_same(shared, per_rank):
    for i, ((a, *ta), (b, *tb)) in enumerate(zip(shared.pop("calls"), per_rank.pop("calls"))):
        assert np.array_equal(a, b), i
        assert ta == tb, i  # phases, wall and label: exactly
    assert shared == per_rank


def _run(problem, reduction, partition, config, adjoint):
    blocks, M, D = problem
    V = D if adjoint else M
    shared = _grid(blocks, reduction, partition, per_rank=False)
    per_rank = _grid(blocks, reduction, partition, per_rank=True)
    seen = _observe(shared, V, config, adjoint), _observe(per_rank, V, config, adjoint)
    # The share happened: a part's other ranks ran no front of their own.
    pr, pc = PARTITIONS[partition][0]
    if (pc if adjoint else pr) > 1:
        assert _front_executions(shared, adjoint) == 0 < _front_executions(per_rank, adjoint)
    return seen


# Double and single pads: a single pad pads the float32 payload as it is
# (``sssss``), and ``sdsds`` up-casts the padded block for a double FFT.
CONFIGS = ["ddddd", "dssdd", "sssss", "sdsds"]


@pytest.mark.parametrize("adjoint", [False, True], ids=["F", "Fstar"])
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("partition", list(PARTITIONS))
@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
def test_shared_front_equals_per_rank_front(problem, reduction, partition, config, adjoint):
    _assert_same(*_run(problem, reduction, partition, config, adjoint))


@pytest.mark.parametrize("adjoint", [False, True], ids=["F", "Fstar"])
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("partition", list(PARTITIONS))
@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
def test_threaded_shared_front_equals_per_rank_front(
    problem, rank_groups, reduction, partition, config, adjoint
):
    """The chunk's fronts and ranks on the pool (gates lowered; the
    per-rank reference stays inline, as every injecting grid does)."""
    rank_groups(3)
    _assert_same(*_run(problem, reduction, partition, config, adjoint))
