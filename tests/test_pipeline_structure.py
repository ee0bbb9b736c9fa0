"""Structural guard: the five-phase pipeline is spelled out once.

``core/matvec.py`` used to carry four hand-copied pipeline bodies, each
re-threading the cast / injection / Parseval / ABFT / guard calls, and
``core/parallel.py`` a second, vector-only bcast → compute → reduce
loop.  They are now one front/back pair and one chunk loop; this test
walks the AST and fails when a copy grows back — a second call site of
a phase kernel, a phase kernel outside the front/back slab loops, a
launch described or priced per apply instead of booked off the prepared
record, a second collective loop, a rank loop beside ``_rank_compute``
(the one place that may run ranks concurrently), a hand-rolled
``begin_apply()`` bracket beside
:func:`repro.util.workspace.apply_scope`, or per-apply derivation
(dtype and plan lookups, arena checkouts) inside a half: what the data
does not decide is resolved once, by ``FFTMatvec._prepared``.

The same holds between engine and perf model: the chunk schedule's
dependency edges live in ``util/timing.py::run_chunk_schedule`` and
nowhere else; which launches an apply books is listed once
(``core/matvec.py::front_launches`` / ``back_launches``) and which
kernel Phase 3 runs is decided once (``SBGEMVDispatcher.phase3``), and
``perf/phase_model.py`` prices that list instead of mirroring it.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

REPRO = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
CORE = REPRO / "core"


def _calls(tree: ast.AST, name: str) -> list:
    """Line numbers of calls to ``name(...)`` or ``<anything>.name(...)``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called == name:
            lines.append(node.lineno)
    return lines


def _module(filename: str, package: str = "core") -> ast.Module:
    path = REPRO / package / filename
    return ast.parse(path.read_text(), filename=str(path))


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"{name}() not found — layout changed?")


def _method(tree: ast.Module, cls: str, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{cls}.{name} not found — layout changed?")


def _is_book(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and getattr(stmt.value.func, "attr", None) == "book"
    )


def _slab_loop(half: str) -> ast.For:
    """The slab loop of ``FFTMatvec._front`` / ``_back`` (whole width =
    one iteration): the one loop that does any work — the only other
    loop allowed books Phase 3's launches off the record, nothing else."""
    loops = [
        n for n in ast.walk(_method(_module("matvec.py"), "FFTMatvec", half))
        if isinstance(n, (ast.For, ast.While))
    ]
    working = [loop for loop in loops if not all(_is_book(stmt) for stmt in loop.body)]
    assert len(working) == 1 and isinstance(working[0], ast.For), (
        f"FFTMatvec.{half} must hold exactly one working loop — no second, "
        "whole-width copy of the phases beside the slab loop"
    )
    return working[0]


@pytest.mark.parametrize(
    "half,phase_call",
    [
        ("_front", "pad_to_soti"),
        ("_front", "soti_to_tosi"),
        ("_back", "tosi_to_soti"),
        ("_back", "inverse"),
        ("_back", "unpad_from_soti"),
    ],
)
def test_matvec_has_one_call_site_per_phase(half, phase_call):
    lines = _calls(_module("matvec.py"), phase_call)
    assert len(lines) == 1, (
        f"core/matvec.py calls {phase_call}() at lines {lines}: the pipeline "
        "must be spelled out once (FFTMatvec._front / _back), not copied"
    )
    assert _calls(_slab_loop(half), phase_call) == lines, (
        f"{phase_call}() must sit inside FFTMatvec.{half}'s slab loop"
    )


def _names(tree: ast.AST) -> set:
    """Every identifier and attribute name read or written under ``tree``."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


@pytest.mark.parametrize("half,launches", [("_front", 4), ("_back", 3)])
def test_halves_book_the_prepared_records_launches(half, launches):
    """A half describes and prices nothing per apply: every launch it
    books is an entry of its record's list (``rec.booked``, the priced
    ``front_launches`` / ``back_launches``) — pad / FFT / reorder, then
    however many Phase 3 takes; reorder / IFFT / unpad."""
    method = _method(_module("matvec.py"), "FFTMatvec", half)
    described = {
        name for name in _names(method)
        if name.startswith("charge_") or name.endswith("_launch")
        or name in ("launch", "launch_memo", "kernel_time", "price_launch", "KernelLaunch")
    }
    assert not described, f"FFTMatvec.{half} describes or prices launches per apply: {described}"
    booked = [
        n for n in ast.walk(method)
        if isinstance(n, ast.Assign) and any("booked" in _names(t) for t in n.targets)
    ]
    assert len(booked) == 1 and "booked" in _names(booked[0].value), "booked = rec.booked, once"
    # for entry in booked[3:]: book(*entry) — the loop variable is the list's too.
    entries = {"booked"} | {
        loop.target.id for loop in ast.walk(method)
        if isinstance(loop, ast.For) and "booked" in _names(loop.iter)
    }
    calls = [n for n in ast.walk(method) if isinstance(n, ast.Call) and getattr(n.func, "attr", "") == "book"]
    assert len(calls) == launches
    for call in calls:
        assert not call.keywords and len(call.args) == 1 and isinstance(call.args[0], ast.Starred)
        assert _names(call.args[0].value) <= entries, ast.unparse(call)
    assert len([c for c in calls if c.lineno in _calls(_slab_loop(half), "book")]) == 3


def test_forward_fft_runs_in_the_front_half_only():
    # plan.execute has one legitimate use outside the pipeline — the
    # setup-time spectrum FFT — so it is counted inside the front loop.
    tree = _module("matvec.py")
    assert len(_calls(_slab_loop("_front"), "execute")) == 1
    assert len(_calls(tree, "execute")) == 2, _calls(tree, "execute")


# What a half may not do per apply: it reads these off its prepared record.
PER_APPLY_DERIVATION = (
    "parse", "real_dtype", "complex_dtype", "_plan", "FFTPlan", "_slab_cols",
    "checkout", "checkout_fresh", "_scratch", "padded_buffer", "spectrum",
)


@pytest.mark.parametrize("half", ["_front", "_back"])
def test_halves_prepare_outside_the_loop_and_derive_nothing(half):
    method = _method(_module("matvec.py"), "FFTMatvec", half)
    prepared = _calls(method, "_prepared")
    assert len(prepared) == 1, f"FFTMatvec.{half} looks its record up once"
    assert _calls(_slab_loop(half), "_prepared") == []
    for name in PER_APPLY_DERIVATION:
        assert _calls(method, name) == [], (
            f"FFTMatvec.{half} calls {name}() per apply; resolve it in _prepared"
        )
    # The buffers without an arena (fresh per apply) come from one helper
    # call ahead of the loop, never from inside it.
    buffers = _calls(method, f"{half}_buffers")
    assert len(buffers) == 1 and _calls(_slab_loop(half), f"{half}_buffers") == []


def test_engine_hands_the_layer_functions_no_device():
    """The engine books every launch itself (first slab, full width), so
    nothing it calls may see the device — a layer function would charge
    its slab's shape on top, a Phase-3 kernel or a plan a second launch.
    The four Phase-3 kernels are numerics only: no device, no
    dispatcher, no ablation flag."""
    tree = _module("matvec.py")
    for half in ("_front", "_back"):
        for node in ast.walk(_method(tree, "FFTMatvec", half)):
            if isinstance(node, ast.Call):
                assert "device" not in {kw.arg for kw in node.keywords}, node.lineno
    for kernel in ("_run_sbgemv", "_run_sbgemm", "_run_sbgemm_pairwise_segments", "_run_sbgemv_panel"):
        forks = _names(_method(tree, "FFTMatvec", kernel)) & {
            "device", "dispatcher", "use_optimized_sbgemv", "book", "launch",
        }
        assert not forks, f"FFTMatvec.{kernel} branches on {forks}"
    # The record's plan has no device either: its launch is the record's.
    (plan,) = [n for n in ast.walk(_method(tree, "FFTMatvec", "_prepared"))
               if isinstance(n, ast.Call) and getattr(n.func, "id", "") == "FFTPlan"]
    assert "device" not in {kw.arg for kw in plan.keywords}


@pytest.mark.parametrize("collective", ["bcast", "reduce"])
def test_parallel_has_one_call_site_per_collective(collective):
    tree = _module("parallel.py")
    lines = _calls(tree, collective)
    assert len(lines) == 1, (
        f"core/parallel.py calls .{collective}() at lines {lines}: vector "
        "applies ride the chunk loop, they do not get their own collectives"
    )
    for name in ("matvec", "rmatvec"):
        assert _calls(_method(tree, "ParallelFFTMatvec", name), collective) == []


def test_rank_pipelines_run_through_rank_compute_only():
    """Per-rank pipelines are launched by ``_rank_compute`` alone: every
    ``_pipeline_block*`` call on a rank engine sits in the callback
    handed to it, and nothing else loops over the engines' ranks or
    touches the rank pool.  The pairwise root epilogue is the one other
    pipeline call: a single root rank per output part, timed by the same
    ``_run_rank``, interleaved with its ``reduce_segments`` on the
    calling thread."""
    tree = _module("parallel.py")
    callbacks = {"_rank_compute": set(), "_run_rank": set()}
    for node in ast.walk(tree):
        runner = getattr(getattr(node, "func", None), "attr", None)
        if isinstance(node, ast.Call) and runner in callbacks:
            callback = node.args[-1] if runner == "_run_rank" else node.args[0]
            if isinstance(callback, ast.Lambda):
                callbacks[runner].update(
                    n.lineno for n in ast.walk(callback) if isinstance(n, ast.Call)
                )
    for method in ("_pipeline_block", "_pipeline_block_pairwise_segments"):
        lines = _calls(tree, method)
        assert len(lines) == 1 and set(lines) <= callbacks["_rank_compute"], method
    finish = _calls(tree, "_pipeline_block_finish")
    assert len(finish) == 1 and set(finish) <= callbacks["_run_rank"]
    assert finish == _calls(
        _method(tree, "ParallelFFTMatvec", "_chunk_reduce_pairwise"),
        "_pipeline_block_finish",
    )
    helper = _method(tree, "ParallelFFTMatvec", "_rank_compute")
    assert _calls(tree, "_rank_pool") == _calls(helper, "_rank_pool") != []
    assert _calls(tree, "run_rank") == _calls(
        _method(tree, "ParallelFFTMatvec", "_run_rank"), "run_rank"
    )
    # _run_rank itself: once per rank from the helper, once per root.
    assert len(_calls(tree, "_run_rank")) == 2 == 1 + len(_calls(helper, "_run_rank"))


def test_core_brackets_applies_through_apply_scope_only():
    for path in sorted(CORE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert _calls(tree, "begin_apply") == [], (
            f"{path.name} opens a workspace apply scope by hand; use "
            "repro.util.workspace.apply_scope"
        )


# -- one schedule, one price: engine and perf model share definitions ----------

def test_stream_edges_are_recorded_in_the_schedule_driver_only():
    """Every ``record`` / ``wait`` edge of the chunk schedule belongs to
    ``run_chunk_schedule``; the engine and the model hand it callbacks.
    A hand-written copy of the schedule shows up as a stream edge in
    ``core/`` or ``perf/``."""
    for package in ("core", "perf"):
        for path in sorted((REPRO / package).glob("*.py")):
            edges = [
                node.lineno
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)  # futures' wait() is a name
                and node.func.attr in ("record", "wait")
            ]
            assert edges == [], (
                f"{package}/{path.name} records or waits on a stream at lines "
                f"{edges}: the schedule is util.timing.run_chunk_schedule's"
            )
    driver = _function(_module("timing.py", "util"), "run_chunk_schedule")
    assert _calls(driver, "record") and _calls(driver, "wait")
    for package, filename in (("core", "parallel.py"), ("perf", "phase_model.py")):
        assert len(_calls(_module(filename, package), "run_chunk_schedule")) == 1
        assert _calls(_module(filename, package), "Timeline") == []


def test_parallel_has_one_chunk_loop():
    """One call site per chunk stage — the schedule's three callbacks —
    and no second schedule body beside them."""
    tree = _module("parallel.py")
    for stage in ("_chunk_bcast", "_chunk_compute", "_chunk_reduce"):
        assert len(_calls(tree, stage)) == 1, (stage, _calls(tree, stage))
    methods = {
        n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
    }
    assert not {"_matmat_serial", "_matmat_overlapped"} & methods


def test_phase_model_prices_the_engines_launches():
    """``block_phase_times`` owns no byte formula, no price, no launch
    list and no dispatch rule: it sums ``price_launch`` over
    ``front_launches`` + ``back_launches`` with Phase 3 from the
    dispatcher's one decision — so a launch added to the engine's list
    is in the model."""
    tree = _module("phase_model.py", "perf")
    model = _function(tree, "block_phase_times")
    for banned in (
        "KernelLaunch", "kernel_time", "stream_efficiency", "modeled_time",
        "GemvProblem", "GemmProblem", "select", "select_gemm", "PairwiseSBGEMM",
        "pad_launch", "unpad_launch", "reorder_launch", "launch", "FFTPlan",
    ):
        assert banned not in _names(model), banned
    for once in ("price_launch", "front_launches", "back_launches", "phase3", "SBGEMVDispatcher"):
        assert len(_calls(model, once)) == 1, once
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not {"_reorder_time", "replay", "fft_traffic_bytes"} & defined


def test_one_phase3_decision_and_one_launch_list():
    """Problems are built, and kernels picked for them, under ``blas/``
    only — by ``SBGEMVDispatcher.phase3``, which both host entry points
    ask — and the engine's launch list is the two module functions,
    asked by ``_prepared`` (to book) and the model (to price)."""
    for path in sorted(REPRO.rglob("*.py")):
        if path.parent.name == "blas":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        built = [name for name in ("GemvProblem", "GemmProblem", "select_gemm") if _calls(tree, name)]
        assert not built, f"{path.relative_to(REPRO)} builds or selects {built}"
    for filename, package in (("matvec.py", "core"), ("phase_model.py", "perf")):
        assert _calls(_module(filename, package), "select") == []
    dispatch = _module("dispatch.py", "blas")
    decision = _method(dispatch, "SBGEMVDispatcher", "phase3")
    for entry in ("gemv_strided_batched", "gemm_strided_batched"):
        method = _method(dispatch, "SBGEMVDispatcher", entry)
        assert len(_calls(method, "phase3")) == 1
        assert not _names(method) & {"select", "select_gemm", "GemmProblem"}
        assert _calls(method, "GemvProblem") == []
    assert _calls(dispatch, "GemmProblem") and set(_calls(decision, "GemmProblem")) < set(
        _calls(dispatch, "GemmProblem")
    )  # the rest: the transition-point probes
    matvec = _module("matvec.py")
    prepared = _method(matvec, "FFTMatvec", "_prepared")
    for listing in ("front_launches", "back_launches"):
        assert _calls(matvec, listing) == _calls(prepared, listing) != []
    assert _calls(matvec, "phase3") == _calls(prepared, "phase3") != []
    assert _calls(matvec, "price_launch") == _calls(prepared, "price_launch") != []


def test_one_builder_per_launch_kind_and_one_price():
    # One copy-kernel launch builder under core/ ...
    built = {
        path.name: _calls(ast.parse(path.read_text()), "KernelLaunch")
        for path in sorted(CORE.glob("*.py"))
    }
    assert {name for name, lines in built.items() if lines} == {"reorder.py"}
    assert built["reorder.py"] == _calls(
        _function(_module("reorder.py"), "copy_launch"), "KernelLaunch"
    )
    # ... one FFT traffic formula, in fft/plan.py: the pass count is
    # read inside fft_traffic_bytes only, and the plan calls it once ...
    plan = _module("plan.py", "fft")
    formula = _function(plan, "fft_traffic_bytes")
    reads = [
        n.lineno for n in ast.walk(plan)
        if isinstance(n, ast.Name) and n.id == "_STAGES_PER_PASS" and isinstance(n.ctx, ast.Load)
    ]
    assert reads and all(formula.lineno <= line <= formula.end_lineno for line in reads)
    assert _calls(plan, "fft_traffic_bytes") == _calls(
        _method(plan, "FFTPlan", "launch"), "fft_traffic_bytes"
    ) != []
    # ... and one price: the device books what price_launch says.
    device = _module("device.py", "gpu")
    assert _calls(device, "kernel_time") == _calls(_function(device, "price_launch"), "kernel_time")
    assert len(_calls(_method(device, "SimulatedDevice", "launch"), "price_launch")) == 1
    # ``book`` takes seconds the caller got from ``price_launch``; nothing
    # under src/ memoizes launches or prices them another way.
    assert _calls(_method(device, "SimulatedDevice", "book"), "price_launch") == []
    gone = {
        "launch_memo", "_MEMO_MAX", "_memo", "charge_pad", "charge_unpad", "charge_reorder",
        "charge_copy", "charge_launch", "_launch_key", "_ctx", "_phase_ctx", "_NO_PHASE",
    }
    for path in sorted(REPRO.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert not gone & (_names(tree) | defined), (path.name, gone & (_names(tree) | defined))
