"""Fusion oracle: tier changes ride the pad and the reorders, bit for bit.

``FFTMatvec._front``/``_back`` no longer run standalone copy-with-cast
passes between phases (one exception: a single-precision pad feeding a
double FFT).  The oracle here is the pipeline spelled out the old way
from the public layer functions — every memory pass at the lower
adjacent tier, every tier change its own ``astype`` —

    pad_to_soti(pad tier) -> astype -> FFTPlan.execute -> soti_to_tosi(min)
      -> astype -> Phase-3 kernel -> tosi_to_soti(min) -> astype
      -> FFTPlan.inverse -> unpad_from_soti

and the engine must equal it bitwise for all 32 configs, vector and
block, F and F*, on a fresh and on a warm engine (``warm_up``: stale
arena contents, rebuilt records) — and, on a device, charge exactly
what that composition charges (the sim clock prices each pass at its
configured tier, not at the tier of the fused destination buffer).

The second half pins the slab loop the same way: an engine whose
pad -> FFT -> reorder and reorder -> IFFT -> unpad run slab by slab
(budget lowered through the ``slab_bytes`` fixture) against the same
engine at whole width — every output bit, simulated second, launch
record and counter equal, and a smaller arena.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.blas.dispatch import SBGEMVDispatcher
from repro.blas.types import Operation
from repro.core.matvec import FFTMatvec
from repro.core.phases import pad_to_soti, unpad_from_soti
from repro.core.precision import PrecisionConfig
from repro.core.reorder import soti_to_tosi, tosi_to_soti
from repro.fft.plan import FFTPlan, FFTType
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import MI300X
from repro.comm.fault import CorruptionSchedule, SilentCorruption
from repro.util.dtypes import complex_dtype, real_dtype
from repro.util.workspace import Workspace
from tests.conftest import warm_up

NT, ND, NM, K = 12, 5, 7, 3  # non-power-of-two Nt
CONFIGS = [str(c) for c in PrecisionConfig.all_configs()]
PHASES = ("pad", "fft", "sbgemv", "ifft", "unpad")


def record_tags(ws: Workspace) -> Workspace:
    """Make ``ws`` remember every tag it is asked for, in ``ws.tags``."""
    ws.tags = set()
    handout = ws._handout  # what checkout, checkout_fresh and buffer call

    def recording(tag, *args):
        ws.tags.add(tag)
        return handout(tag, *args)

    ws._handout = recording
    return ws


def build(blocks, warm: bool, device: bool, **kwargs) -> FFTMatvec:
    """A fresh engine whose arena records its tags (:func:`record_tags`),
    or a ``warm`` one."""
    dev = SimulatedDevice("MI300X", record_launches=True) if device else None
    eng = FFTMatvec(blocks, device=dev, backend="numpy", **kwargs)
    record_tags(eng.workspace)
    return warm_up(eng) if warm else eng


def unfused_apply(ref: FFTMatvec, v_in: np.ndarray, config: str, adjoint: bool):
    """One apply as separate passes, on ``ref``'s spectrum, kernels,
    arena and device (``ref``'s own pipeline is never run)."""
    cfg = PrecisionConfig.parse(config)
    dev, ws = ref.device, ref.workspace
    op = Operation.C if adjoint else Operation.N
    vector = v_in.ndim == 2
    block = v_in[:, :, None] if vector else v_in
    nt, nx, k = block.shape
    ny = ref.nm if adjoint else ref.nd
    dispatcher = ref.dispatcher or SBGEMVDispatcher(MI300X)
    entry = dispatcher.gemv_strided_batched if vector else dispatcher.gemm_strided_batched
    fhat = ref.spectrum(cfg.sbgemv)

    def phase(name):
        return dev.clock.phase(name) if dev is not None else contextlib.nullcontext()

    def plan(fft_type, batch):
        return FFTPlan(ref.n_pad, batch, fft_type, device=dev)

    with ws:
        with phase("pad"):
            x = pad_to_soti(block.reshape(nt, nx * k), cfg.pad, device=dev, workspace=ws)
        with phase("fft"):
            x = x.astype(real_dtype(cfg.fft))
            xhat = plan(FFTType.real_forward(cfg.fft), nx * k).execute(x, workspace=ws)
        with phase("sbgemv"):
            vhat = soti_to_tosi(
                xhat, precision=cfg.reorder_precision("fft", "sbgemv"), device=dev,
                phase="sbgemv", workspace=ws, tag="oracle_fwd_reorder",
            ).astype(complex_dtype(cfg.sbgemv))
            # The engine's kernels are numerics only; the host entry
            # points compute the same bits and charge the launch.
            yhat = entry(fhat, vhat if vector else vhat.reshape(ref.n_freq, nx, k), op, device=dev)
            yhat = tosi_to_soti(
                yhat.reshape(ref.n_freq, ny * k),
                precision=cfg.reorder_precision("sbgemv", "ifft"), device=dev,
                phase="sbgemv", workspace=ws, tag="oracle_bwd_reorder",
            )
        with phase("ifft"):
            yhat = yhat.astype(complex_dtype(cfg.ifft))
            y = plan(FFTType.real_inverse(cfg.ifft), ny * k).inverse(yhat, workspace=ws)
        with phase("unpad"):
            res = unpad_from_soti(y, nt, cfg.unpad, device=dev)
    res = res.astype(np.float64).reshape(nt, ny, k)
    return res[:, :, 0] if vector else res


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(20250930)
    return {
        "blocks": rng.standard_normal((NT, ND, NM)),
        "matvec": rng.standard_normal((NT, NM)),
        "rmatvec": rng.standard_normal((NT, ND)),
        "matmat": rng.standard_normal((NT, NM, K)),
        "rmatmat": rng.standard_normal((NT, ND, K)),
    }


@pytest.fixture(
    scope="module",
    params=[(w, d) for w in (False, True) for d in (False, True)],
    ids=lambda p: f"{'warm' if p[0] else 'cold'}-dev={'on' if p[1] else 'off'}",
)
def engines(request, problem):
    """The engine under test (cold or warm) and the oracle's, kept cold."""
    warm, device = request.param
    return (
        build(problem["blocks"], warm, device),
        build(problem["blocks"], False, device),
    )


@pytest.mark.parametrize("method", ["matvec", "rmatvec", "matmat", "rmatmat"])
@pytest.mark.parametrize("config", CONFIGS)
def test_engine_is_the_unfused_composition(engines, problem, config, method):
    eng, ref = engines
    v = problem[method]
    noops = eng.cast_noop_count
    got = getattr(eng, method)(v, config=config)
    if ref.device is not None:
        before = {p: ref.device.clock.phase_total(p) for p in PHASES}
    want = unfused_apply(ref, v, config, adjoint=method.startswith("r"))
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)

    # Boundaries crossed without a standalone pass: all three, except
    # that a single pad must round before a double FFT reads it.
    standalone = config.startswith("sd")
    assert eng.cast_noop_count - noops == (2 if standalone else 3)

    if ref.device is not None:
        # Modeled time is the unfused composition's, phase by phase.
        for p in PHASES:
            charged = ref.device.clock.phase_total(p) - before[p]
            assert eng.last_timing.phase(p) == pytest.approx(charged, rel=1e-12, abs=0.0)
            assert charged > 0.0


def test_arena_never_holds_a_reorder_cast_buffer(problem):
    eng = build(problem["blocks"], warm=False, device=True)
    for config in CONFIGS:
        eng.workspace.tags.clear()
        for method in ("matvec", "rmatvec", "matmat", "rmatmat"):
            getattr(eng, method)(problem[method], config=config)
        casts = {t for t in eng.workspace.tags if t.startswith("cast")}
        assert casts == ({"cast_fft"} if config.startswith("sd") else set()), config
    # ... which the device allocator's registrations agree with.
    tags = {a.tag.split("/", 1)[1] for a in eng.device.allocator._live.values()}
    assert {"pad", "fwd_reorder", "bwd_reorder", "cast_fft"} <= tags
    assert not {"cast_sbgemv", "cast_ifft"} & tags


# -- slab by slab vs whole width ---------------------------------------------------
# Nt = 70 is not a multiple of the 64-row transpose tile; with k = 11
# the fused axes are 55 (F) and 33 (F*) columns wide.  A 2240-byte budget
# is 2 double / 4 single padded rows, and an axis of more than 8 budgets
# is cut: 55 columns into 27 slabs and a width-1 tail (13 and a width-3
# tail in single), while the k = 1 applies stay whole.  A 1-byte budget
# makes every slab one column, the k = 1 applies' too.
SLAB_SHAPE = (70, 3, 5)
SLAB_K = 11
SLAB_BUDGETS = [1, 2240]
WHOLE = 1 << 40
# Double, the benchmark's mixed pair, the one standalone cast (sd...),
# a single-precision unpad, everything single, and two alternating ones.
SLAB_CONFIGS = ["ddddd", "dssdd", "sdddd", "sdsds", "dddds", "sssss", "dsdsd", "ssdds"]
SLAB_CALLS = [
    (method, how)
    for method in ("matvec", "rmatvec", "matmat", "rmatmat", "matmat_k1", "matmat_det")
    for how in ("out", "detached", "undetached")
    if how != "undetached" or method in ("matmat", "rmatmat", "matmat_k1")
]


@pytest.fixture(scope="module")
def slab_problem():
    nt, nd, nm = SLAB_SHAPE
    rng = np.random.default_rng(20261002)
    return {
        "blocks": rng.standard_normal(SLAB_SHAPE),
        "matvec": rng.standard_normal((nt, nm)),
        "rmatvec": rng.standard_normal((nt, nd)),
        "matmat": rng.standard_normal((nt, nm, SLAB_K)),
        "rmatmat": rng.standard_normal((nt, nd, SLAB_K)),
        "matmat_k1": rng.standard_normal((nt, nm, 1)),  # a width-1 block
        "matmat_det": rng.standard_normal((nt, nm, SLAB_K)),
    }


def _call(eng: FFTMatvec, v: np.ndarray, config: str, method: str, how: str):
    """One apply, its result copied out of whatever buffer holds it."""
    adjoint = method.startswith("r")
    kwargs = {"deterministic": True} if method == "matmat_det" else {}
    name = method.split("_")[0]
    if how == "undetached":  # the grid engine's form: result stays in the arena
        res = eng._pipeline_block(v, PrecisionConfig.parse(config), adjoint, detach=False)
        return np.array(res, copy=True)
    if how == "detached":
        return getattr(eng, name)(v, config=config, **kwargs)
    out = np.empty((eng.nt, eng.nm if adjoint else eng.nd) + v.shape[2:])
    assert getattr(eng, name)(v, config=config, out=out, **kwargs) is out
    return out


def _observe(eng: FFTMatvec, problem, config: str):
    """Everything one engine shows for the whole call list."""
    seen = []
    for method, how in SLAB_CALLS:
        got = _call(eng, problem[method], config, method, how)
        timing = eng.last_timing.phases if eng.last_timing is not None else None
        seen.append((method, how, got, timing))
    dev = eng.device
    return {
        "calls": seen,
        "launches": list(dev.launch_log) if dev is not None else None,
        "stats": dev.stats if dev is not None else None,
        "clock": dev.clock.phase_totals() if dev is not None else None,
        "cast_noops": eng.cast_noop_count,
        "applies": (eng.matvec_count, eng.matmat_count),
        "executions": {key: rec.plan.executions for key, rec in eng._plans.items()},
    }


@pytest.mark.parametrize("config", SLAB_CONFIGS)
@pytest.mark.parametrize("budget", SLAB_BUDGETS)
@pytest.mark.parametrize("device", [False, True], ids=["dev=off", "dev=on"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_slabbed_equals_whole_width(
    slab_problem, slab_bytes, warm, device, budget, config
):
    slab_bytes(WHOLE)
    want = _observe(build(slab_problem["blocks"], warm, device), slab_problem, config)
    slab_bytes(budget)
    eng = build(slab_problem["blocks"], warm, device)
    got = _observe(eng, slab_problem, config)
    for (method, how, a, ta), (_, _, b, tb) in zip(got.pop("calls"), want.pop("calls")):
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a, b), (method, how)
        assert ta == tb, (method, how)  # simulated seconds, phase by phase
    assert got == want
    # The loop really ran in slabs: the arena holds slab-sized scratch
    # and no padded buffer as wide as a whole block.
    nt, nd, nm = SLAB_SHAPE
    assert {"fft_out", "ifft_out"} <= eng.workspace.tags
    pads = {s.buf.size for (tag, _), pool in eng.workspace._pools.items() if tag == "pad" for s in pool}
    assert max(pads) < min(nd, nm) * SLAB_K * 2 * nt, pads


@pytest.mark.parametrize("config", ["ddddd", "dssdd", "sdsds"])
def test_slabbed_applies_are_allocation_free_on_a_smaller_arena(
    slab_problem, slab_bytes, config
):
    def run(eng):
        for method in ("matvec", "rmatvec", "matmat", "rmatmat"):
            v = slab_problem[method]
            out = np.empty((eng.nt, eng.nd if method[0] == "m" else eng.nm) + v.shape[2:])
            getattr(eng, method)(v, config=config, out=out)

    slab_bytes(WHOLE)
    whole = build(slab_problem["blocks"], warm=False, device=False)
    run(whole)
    slab_bytes(2240)
    eng = build(slab_problem["blocks"], warm=False, device=False)
    run(eng)
    allocs = eng.workspace.alloc_count
    for _ in range(20):
        run(eng)
    assert eng.workspace.alloc_count == allocs
    assert eng.workspace.nbytes < whole.workspace.nbytes


@pytest.mark.parametrize("hook", ["abft", "schedule"])
def test_hooks_keep_whole_buffers(slab_problem, slab_bytes, hook):
    """A check or an injection site sees each stage buffer once per
    apply, whole, on the arena keys it always had — whatever the budget."""
    slab_bytes(1)
    nt, nd, nm = SLAB_SHAPE
    eng = build(
        slab_problem["blocks"], warm=False, device=False,
        validate=None if hook == "schedule" else hook,
    )
    if hook == "schedule":
        eng.install_corruption_schedule(CorruptionSchedule([]))
    eng.matmat(slab_problem["matmat"])
    eng.rmatmat(slab_problem["rmatmat"])
    assert eng.sdc_checks == 6
    assert not {"fft_out", "ifft_out"} & eng.workspace.tags
    # One buffer per tag, as wide as the wider direction's whole block.
    sizes = {tag: [s.buf.size for s in pool] for (tag, _), pool in eng.workspace._pools.items()}
    cols = max(nm, nd) * SLAB_K
    assert sizes["pad"] == [cols * 2 * nt]
    assert sizes["bwd_reorder"] == sizes["fwd_reorder"] == [cols * (nt + 1)]


# -- the prepared apply: a record hit shows nothing a miss does not -----------------
# ``_front`` / ``_back`` resolve dtypes, plan, arena buffers and views once
# per (kernel, direction, config, width) and keep the record.  An engine
# whose records are dropped before every apply never hits (every half of
# every apply prepares anew — the pre-record engine's per-apply work), so
# it is the oracle: outputs, simulated seconds, launches, counters and the
# arena must not tell the two apart, on the first apply or the twentieth.
RECORD_CONFIGS = ["ddddd", "dssdd", "sdddd", "dddds", "sssss", "sdsds"]
RECORD_KS = (1, 3, 8)
# Arena (bytes, buffers) after the call list: one flat buffer per (tag,
# dtype) and slot, as large as the widest request it served (every
# Phase-3 kernel writes one output tag) — the same with a device as
# without (a device changes what is booked, never which kernels run).
# The arena that kept a buffer per (tag, shape, dtype) held 36-45
# buffers here, e.g. ddddd (170224, 36).
RECORD_ARENA = {
    "ddddd": (59392, 6),
    "dssdd": (38208, 6),
    "sdddd": (64768, 7),
    "dddds": (62080, 7),
    "sssss": (35072, 7),
    "sdsds": (51648, 8),
}


def _record_pass(eng: FFTMatvec, problem, config: str, cold: bool = False):
    """Every entry point, caller ``out`` / detached / undetached, F and
    F*, fast and deterministic, at each width: ``(result, timing,
    launches)`` per call.  ``cold`` drops the engine's records before
    each call, so every half of every apply is prepared anew."""
    cfg = PrecisionConfig.parse(config)
    nt, nd, nm = eng.nt, eng.nd, eng.nm
    M, D = problem["matmat8"], problem["rmatmat8"]
    calls = [
        lambda: eng.matvec(problem["matvec"], config=config),
        lambda: eng.matvec(problem["matvec"], config=cfg, out=np.empty((nt, nd))),
        lambda: eng.rmatvec(problem["rmatvec"], config=config),
    ]
    for k in RECORD_KS:
        calls += [
            lambda k=k: eng.matmat(M[:, :, :k], config=config),
            lambda k=k: eng.matmat(M[:, :, :k], config=config, out=np.empty((nt, nd, k))),
            lambda k=k: eng.matmat(M[:, :, :k], config=config, deterministic=True),
            lambda k=k: eng.rmatmat(D[:, :, :k], config=config),
            lambda k=k: eng.rmatmat(D[:, :, :k], config=config, deterministic=True),
            lambda k=k: np.array(eng._pipeline_block(D[:, :, :k], cfg, True, detach=False)),
        ]
    seen = []
    for call in calls:
        if cold:
            eng._plans.clear()
        mark = len(eng.device.launch_log) if eng.device is not None else 0
        got = call()
        timing = eng.last_timing.phases if eng.last_timing is not None else None
        launches = eng.device.launch_log[mark:] if eng.device is not None else None
        seen.append((got, timing, launches))
    return seen


@pytest.fixture(scope="module")
def record_problem(problem):
    rng = np.random.default_rng(20261003)
    return dict(
        problem,
        matmat8=rng.standard_normal((NT, NM, max(RECORD_KS))),
        rmatmat8=rng.standard_normal((NT, ND, max(RECORD_KS))),
    )


@pytest.mark.parametrize("config", RECORD_CONFIGS)
@pytest.mark.parametrize("device", [False, True], ids=["dev=off", "dev=on"])
def test_record_hit_equals_record_miss(record_problem, device, config):
    hit = build(record_problem["blocks"], warm=False, device=device)
    miss = build(record_problem["blocks"], warm=False, device=device)
    fresh = build(record_problem["blocks"], warm=False, device=device)
    first = _record_pass(hit, record_problem, config)
    allocs = hit.workspace.alloc_count
    _record_pass(hit, record_problem, config)
    records = dict(hit._plans)
    executions = sum(rec.plan.executions for rec in records.values())
    for _ in range(17):
        _record_pass(hit, record_problem, config)
    passes = {
        "first": first,
        "twentieth": _record_pass(hit, record_problem, config),
        "fresh": _record_pass(fresh, record_problem, config),
        "warm": _record_pass(build(record_problem["blocks"], True, device), record_problem, config),
    }
    for _ in range(20):
        passes["never hits"] = _record_pass(miss, record_problem, config, cold=True)
    for name, seen in passes.items():
        for i, ((a, ta, la), (b, tb, lb)) in enumerate(zip(seen, first)):
            assert a.dtype == np.float64 and np.array_equal(a, b), (name, i)
            # A timing is a difference of running phase totals: equal to
            # the last bits only at equal totals (checked below).
            assert ta == (tb and pytest.approx(tb, rel=1e-9)) and la == lb, (name, i)

    # The first pass grows the arena, and each regrowth drops the records
    # kept so far; the second rebuilds them on the grown arena.  From then
    # on nothing is allocated, prepared or dropped ...
    assert hit.workspace.alloc_count == allocs
    assert hit._plans.keys() == records.keys()
    assert all(hit._plans[key] is rec for key, rec in records.items())
    assert len(miss._plans) == 2  # the last apply's two halves
    # ... on the same per-tag arena as an engine that never hits.
    for eng in (hit, miss):
        stats = eng.workspace.stats()
        assert (stats.nbytes, stats.buffers) == RECORD_ARENA[config]
    # Counters advance per apply whether a record was hit or built: one
    # forward and one inverse execution, neither staged.
    applies = 18 * len(first)
    assert hit.cast_noop_count == miss.cast_noop_count == 20 * fresh.cast_noop_count
    plans = [rec.plan for rec in hit._plans.values()]
    assert sum(p.executions for p in plans) - executions == 2 * applies
    assert sum(p.stage_noops for p in plans) == sum(p.executions for p in plans)
    assert sum(p.stage_copies for p in plans) == 0
    assert (hit.matvec_count, hit.matmat_count) == (miss.matvec_count, miss.matmat_count)
    if device:
        assert hit.device.stats == miss.device.stats
        assert hit.last_timing.phases == miss.last_timing.phases
        assert hit.device.launch_log == miss.device.launch_log
        assert hit.device.clock.phase_totals() == miss.device.clock.phase_totals()


def test_arming_and_disarming_take_effect_on_the_next_apply(slab_problem, slab_bytes):
    """Records are dropped when the set of armed hooks changes: the very
    next apply runs whole buffers with every check armed, and disarming
    brings the slabs back."""
    slab_bytes(2240)
    nt, nd, nm = SLAB_SHAPE
    eng = build(slab_problem["blocks"], warm=False, device=False)
    M = slab_problem["matmat"]
    want = eng.matmat(M)
    assert np.array_equal(eng.matmat(M), want)
    assert all(rec.w < rec.cols for rec in eng._plans.values())  # warm, slabbed

    eng.install_corruption_schedule(CorruptionSchedule([(0, 0)]))  # next event: the FFT
    assert not eng._plans
    with pytest.raises(SilentCorruption):
        eng.matmat(M)
    assert np.array_equal(eng.matmat(M), want)  # the flip is spent; checks stay armed
    assert eng.sdc_checks == 3
    assert all(rec.w == rec.cols for rec in eng._plans.values())

    eng.install_corruption_schedule(None)
    assert np.array_equal(eng.matmat(M), want)
    assert eng.sdc_checks == 3
    assert all(rec.w < rec.cols for rec in eng._plans.values())
