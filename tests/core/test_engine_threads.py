"""Contract: a single engine's slabs and Phase-3 parts run on the host's
cores and nothing observable moves.

``FFTMatvec`` hands each half's column slabs, and a large fast GEMM's
frequency parts, to the host executor (:mod:`repro.util.executor`).
Tiny test shapes are one slab and a small GEMM, so these tests lower
the slab budget (``slab_bytes``) and the Phase-3 constant
(``engine_groups``) and report three CPUs, so even a one-core runner
splits the work into uneven strided groups.  The inline reference is
the same engine applied from inside a group, where the executor keeps
everything on the calling thread — the mechanism a grid's rank engines
rely on.  Equal, for all 32 configs, F and F*, vector, block and
deterministic block, with and without ``out=``, on a simulated device:
outputs, ``last_timing``, the launch log, ``cast_noop_count``, the
plans' ``executions`` / ``stage_noops`` / ``stage_copies`` and the
arena's ``alloc_count``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.comm.grid import ProcessGrid
from repro.core import matvec as matvec_module
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.precision import PrecisionConfig
from repro.gpu.device import SimulatedDevice
from repro.util import executor
from repro.util.checksum import NumericalHealthError

NT, ND, NM, K = 12, 5, 7, 4
CONFIGS = [str(c) for c in PrecisionConfig.all_configs()]
# 100 bytes per slab buffer: every multi-column axis whose padded rows
# pass 800 bytes runs one column per slab (the vector applies of some
# single-precision tiers stay whole: both paths in one call list).
SLAB_BYTES = 100


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(20261017)
    blocks = rng.standard_normal((NT, ND, NM)) * np.exp(-0.1 * np.arange(NT)[:, None, None])
    return {
        "blocks": blocks,
        "m": rng.standard_normal((NT, NM)),
        "d": rng.standard_normal((NT, ND)),
        "M": rng.standard_normal((NT, NM, K)),
        "D": rng.standard_normal((NT, ND, K)),
    }


class _CountingPool:
    """The executor's pool, recording per submission whether it came
    from a thread that was running a group itself.  A submission from
    one of its own workers is refused, as a shut-down pool refuses work
    (the executor then runs the group inline): with one worker it would
    wait on itself forever."""

    def __init__(self, workers: int) -> None:
        self.pool = ThreadPoolExecutor(workers, thread_name_prefix="test-pool")
        self.submits = []

    def submit(self, fn, *args):
        on_worker = threading.current_thread().name.startswith("test-pool")
        self.submits.append(executor._MARKS.inside or on_worker)
        if on_worker:
            raise RuntimeError("submission from a pool worker")
        return self.pool.submit(fn, *args)


@pytest.fixture
def pool(monkeypatch):
    """``pool(workers)``: the executor's pool for this test, counting."""
    made = []

    def install(workers: int) -> _CountingPool:
        made.append(_CountingPool(workers))
        monkeypatch.setattr(executor, "_rank_pool", lambda _workers: made[-1])
        return made[-1]

    yield install
    for counting in made:
        counting.pool.shutdown(wait=True)


def _inline(apply, *args, **kwargs):
    """``apply(*args, **kwargs)`` from inside a one-item group: the
    executor keeps every group of the engine on this thread."""
    return executor.run_groups(lambda _: apply(*args, **kwargs), [None], 1)[0]


def _calls(problem, adjoint: bool):
    """The call list of one direction: vector, block, deterministic
    block, each with and without ``out=``."""
    ny = NM if adjoint else ND
    v, V = (problem["d"], problem["D"]) if adjoint else (problem["m"], problem["M"])
    vector, block = ("rmatvec", "rmatmat") if adjoint else ("matvec", "matmat")
    calls = []
    for out in (False, True):
        calls += [
            (vector, v, {}, (NT, ny) if out else None),
            (block, V, {}, (NT, ny, K) if out else None),
            (block, V, {"deterministic": True}, (NT, ny, K) if out else None),
        ]
    return calls


def _observe(eng: FFTMatvec, calls, config: str, run) -> dict:
    """Everything one engine shows for a call list applied through ``run``."""
    seen = []
    for name, v, kwargs, out_shape in calls:
        out = None if out_shape is None else np.empty(out_shape)
        if out is not None:
            kwargs = dict(kwargs, out=out)
        got = run(getattr(eng, name), v, config=config, **kwargs)
        assert out is None or got is out
        timing = eng.last_timing
        seen.append((np.array(got, copy=True), timing.phases, timing.label))
    return {
        "calls": seen,
        "launches": list(eng.device.launch_log),
        "stats": eng.device.stats,
        "clock": eng.device.clock.phase_totals(),
        "cast_noops": eng.cast_noop_count,
        "applies": (eng.matvec_count, eng.matmat_count),
        "dispatch": dict(eng.dispatcher.dispatch_counts),
        "plans": {
            key: (rec.plan.executions, rec.plan.stage_noops, rec.plan.stage_copies)
            for key, rec in eng._plans.items()
        },
        "allocs": eng.workspace.alloc_count,
    }


def _engine(blocks, reduction: str = "fast") -> FFTMatvec:
    device = SimulatedDevice("MI300X", record_launches=True)
    return FFTMatvec(blocks, device=device, backend="numpy", reduction=reduction)


def _assert_same(threaded: dict, inline: dict) -> None:
    for i, ((a, ta, la), (b, tb, lb)) in enumerate(zip(threaded.pop("calls"), inline.pop("calls"))):
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a, b), i
        assert (ta, la) == (tb, lb), i  # simulated seconds phase by phase, and the label
    assert threaded == inline


@pytest.mark.parametrize("adjoint", [False, True], ids=["F", "Fstar"])
@pytest.mark.parametrize("config", CONFIGS)
def test_threaded_equals_inline(problem, slab_bytes, engine_groups, pool, config, adjoint):
    slab_bytes(SLAB_BYTES)
    engine_groups(3)  # three groups over 12-28 slabs: uneven strides
    counting = pool(2)
    calls = _calls(problem, adjoint)
    inline = _observe(_engine(problem["blocks"]), calls, config, _inline)
    assert counting.submits == []  # inside a group: nothing reached the pool
    threaded = _observe(_engine(problem["blocks"]), calls, config, lambda f, *a, **kw: f(*a, **kw))
    assert counting.submits and not any(counting.submits)
    _assert_same(threaded, inline)


@pytest.mark.parametrize("config", ["ddddd", "dssdd", "sssss"])
def test_threaded_pairwise_slabs_equal_inline(problem, slab_bytes, engine_groups, pool, config):
    """A pairwise engine splits only its slabs (its fixed tree is not a
    per-frequency GEMM); the same contract holds."""
    slab_bytes(SLAB_BYTES)
    engine_groups(3)
    counting = pool(2)
    calls = _calls(problem, False) + _calls(problem, True)
    inline = _observe(_engine(problem["blocks"], "pairwise"), calls, config, _inline)
    threaded = _observe(
        _engine(problem["blocks"], "pairwise"), calls, config, lambda f, *a, **kw: f(*a, **kw)
    )
    assert counting.submits
    _assert_same(threaded, inline)


def test_threaded_applies_are_allocation_free(problem, slab_bytes, engine_groups, pool):
    slab_bytes(SLAB_BYTES)
    engine_groups(3)
    pool(2)
    eng = _engine(problem["blocks"])
    calls = _calls(problem, False) + _calls(problem, True)
    _observe(eng, calls, "dssdd", lambda f, *a, **kw: f(*a, **kw))
    allocs = eng.workspace.alloc_count
    for _ in range(5):
        _observe(eng, calls, "dssdd", lambda f, *a, **kw: f(*a, **kw))
    assert eng.workspace.alloc_count == allocs
    assert not eng.workspace.in_use


@pytest.mark.parametrize("reduction", ["fast", "pairwise"])
def test_rank_engines_inside_groups_stay_inline(
    problem, slab_bytes, rank_groups, engine_groups, pool, reduction
):
    """A 2x2 grid whose rank halves are multi-slab, on a one-worker
    pool: a rank engine in group 1 runs on the pool's only worker, so a
    rank engine that submitted its slabs would wait on itself.  None
    does — every submission is the grid's own, as many as with
    whole-width rank halves — and the result is bitwise the inline one."""
    blocks, M, D = problem["blocks"], problem["M"], problem["D"]

    def applies():
        eng = ParallelFFTMatvec(blocks, ProcessGrid(2, 2), max_block_k=2, reduction=reduction)
        results = []
        worker = threading.Thread(
            target=lambda: results.append((eng.matmat(M), eng.rmatmat(D))), daemon=True
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "a group waited on the pool it runs on"
        slabbed = any(
            rec.w < rec.cols for e in eng.engines.values() for rec in e._plans.values()
        )
        return results[0], slabbed

    rank_groups(1)
    want, _ = applies()
    submits = {}
    for budget in (1 << 30, SLAB_BYTES):
        slab_bytes(budget)
        rank_groups(2)
        engine_groups(2)
        counting = pool(1)
        got, slabbed = applies()
        assert slabbed == (budget == SLAB_BYTES)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert not any(counting.submits)  # no submission from inside a group
        submits[slabbed] = len(counting.submits)
    assert submits[True] == submits[False] > 0


@pytest.mark.parametrize("half", ["_front_slab", "_back_slab"])
def test_worker_failure_surfaces_after_group_zero(problem, slab_bytes, engine_groups, pool, half):
    """A slab that raises on the pool's worker surfaces the same typed
    error on the caller, only once group 0's slabs have all run; the
    engine's next apply is bitwise correct."""
    slab_bytes(SLAB_BYTES)
    engine_groups(2)
    pool(1)
    M = problem["M"]
    want = _engine(problem["blocks"]).matmat(M)
    eng = _engine(problem["blocks"])
    eng.matmat(M)  # prepared: slab entries are the record's
    caller, events = threading.current_thread(), []
    run_slab = getattr(eng, half)

    def slab(entry, *args):
        first = entry[0]
        if threading.current_thread() is caller:
            time.sleep(0.002 if first else 0.0)
            res = run_slab(entry, *args)
            events.append("group 0")
            return res
        events.append("worker")
        raise NumericalHealthError("fft", rank=7, detail="injected on the worker")

    setattr(eng, half, slab)
    with pytest.raises(NumericalHealthError) as err:
        eng.matmat(M)
    assert (err.value.phase, err.value.rank, err.value.detail) == ("fft", 7, "injected on the worker")
    assert "worker" in events
    slabs = eng._plans[next(k for k in eng._plans if (k[0] == "back") == (half == "_back_slab"))]
    n_slabs = len(slabs.bufs if half == "_back_slab" else slabs.bufs[0])
    assert events.count("group 0") == (n_slabs + 1) // 2  # every even slab ran
    assert not eng.workspace.in_use
    delattr(eng, half)
    assert np.array_equal(eng.matmat(M), want)


def test_phase3_split_is_gated_by_size(problem, monkeypatch):
    """The fast GEMM splits its frequencies only from the constant's
    multiply-adds on: at the constant, one part per usable CPU."""
    monkeypatch.setattr(executor, "usable_cpus", lambda: 2)
    size = (NT + 1) * ND * NM * K
    for constant, parts in ((size + 1, 1), (size, 2)):
        monkeypatch.setattr(matvec_module, "_PHASE3_SPLIT_MADDS", constant)
        eng = FFTMatvec(problem["blocks"], backend="numpy")
        eng.matmat(problem["M"])
        (rec,) = [r for key, r in eng._plans.items() if key[0] is FFTMatvec._run_sbgemm]
        assert len(rec.parts) == parts
        assert rec.parts[0].start == 0 and rec.parts[-1].stop == NT + 1
