"""Structural guard: the five-phase pipeline is spelled out once.

``core/matvec.py`` used to carry four hand-copied pipeline bodies, each
re-threading the cast / injection / Parseval / ABFT / guard calls, and
``core/parallel.py`` a second, vector-only bcast → compute → reduce
loop.  They are now one front/back pair and one chunk loop; this test
walks the AST and fails when a copy grows back — a second call site of
a phase kernel, a phase kernel outside the one slab-body method per
half (``_front_slab`` / ``_back_slab``, run per slab through the host
executor), a launch described or priced per apply instead of booked off
the prepared record, a second collective loop, a rank loop beside
``_rank_compute``, a pool outside the executor
(``util/executor.py::run_groups``, the one place that runs a grid's
ranks and parts and an engine's slabs and Phase-3 parts concurrently),
an apply bracketed by hand-rolled ``begin_apply()`` instead of ``with
<engine>.workspace:``, or per-apply derivation (dtype and plan lookups,
arena checkouts) inside a half: what the data does not decide is
resolved once, by ``FFTMatvec._prepared``.

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


def _attributes(tree: ast.AST, name: str) -> list:
    """Line numbers of ``<anything>.name`` reads."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == name
    ]


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


# The method that hands each half's slab body to the host executor: the
# front's is ``_transform`` (pad → FFT → reorder alone, which a grid
# column's ranks share), the back's the half itself.
SLAB_RUNNER = {"_front": "_transform", "_back": "_back"}


def _slab_body(half: str) -> ast.FunctionDef:
    """The slab body of ``FFTMatvec._front`` / ``_back``
    (``_front_slab`` / ``_back_slab``): the one method that does a
    half's phase work, straight-line, handed once to the host executor,
    which runs it per slab (whole width = one slab, inline).  The half
    itself holds no working loop — the only loop allowed books the
    record's launches, nothing else."""
    tree = _module("matvec.py")
    for name in {half, SLAB_RUNNER[half]}:
        method = _method(tree, "FFTMatvec", name)
        for loop in (n for n in ast.walk(method) if isinstance(n, (ast.For, ast.While))):
            assert all(_is_book(stmt) for stmt in loop.body), (
                f"FFTMatvec.{name} loops over work itself — no second, whole-width "
                "copy of the phases beside the slab body"
            )
    method = _method(tree, "FFTMatvec", SLAB_RUNNER[half])
    (run,) = [n for n in ast.walk(method) if isinstance(n, ast.Call)
              and getattr(n.func, "id", None) == "run_groups"]
    assert ast.unparse(run.args[0]) == f"self.{half}_slab"
    body = _method(tree, "FFTMatvec", f"{half}_slab")
    assert not [n for n in ast.walk(body) if isinstance(n, (ast.For, ast.While))]
    return body


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
    assert _calls(_slab_body(half), phase_call) == lines, (
        f"{phase_call}() must sit inside FFTMatvec.{half}_slab"
    )


def _names(tree: ast.AST) -> set:
    """Every identifier and attribute name read or written under ``tree``."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


@pytest.mark.parametrize("half,launches", [("_front", 4), ("_back", 3)])
def test_halves_book_the_prepared_records_launches(half, launches):
    """A half describes and prices nothing per apply: every launch it
    and its slab body book is an entry of its record's list
    (``rec.booked``, the priced ``front_launches`` / ``back_launches``)
    — pad / FFT / reorder, then however many Phase 3 takes; reorder /
    IFFT / unpad.  The slab body books entries 0-2 through the device it
    sees on the first slab only, which runs on the calling thread — the
    front's only when its transform books (``book``); a front handed a
    grid part root's shared panel books the whole list after Phase 3."""
    tree = _module("matvec.py")
    method, body = _method(tree, "FFTMatvec", half), _slab_body(half)
    runner = _method(tree, "FFTMatvec", SLAB_RUNNER[half])
    for fn in (method, runner, body):
        described = {
            name for name in _names(fn)
            if name.startswith("charge_") or name.endswith("_launch")
            or name in ("launch", "launch_memo", "kernel_time", "price_launch", "KernelLaunch")
        }
        assert not described, f"FFTMatvec.{fn.name} describes or prices launches per apply: {described}"
    booked = [
        n for n in ast.walk(body)
        if isinstance(n, ast.Assign) and any("booked" in _names(t) for t in n.targets)
    ]
    assert len(booked) == 1 and "booked" in _names(booked[0].value), "booked = rec.booked, once"
    # for entry in rec.booked[...]: book(*entry) — the loop variable is the list's too.
    entries = {"booked"} | {
        loop.target.id for loop in ast.walk(method)
        if isinstance(loop, ast.For) and "booked" in _names(loop.iter)
    }
    calls = [
        n for fn in {method, runner, body} for n in ast.walk(fn)
        if isinstance(n, ast.Call) and getattr(n.func, "attr", "") == "book"
    ]
    assert len(calls) == launches
    for call in calls:
        assert not call.keywords and len(call.args) == 1 and isinstance(call.args[0], ast.Starred)
        assert _names(call.args[0].value) <= entries, ast.unparse(call)
    assert [ast.unparse(c) for c in calls if c.lineno in _calls(body, "book")] == [
        f"dev.book(*booked[{i}])" for i in range(3)
    ]
    (dev,) = [n for n in ast.walk(body) if isinstance(n, ast.Assign)
              and [ast.unparse(t) for t in n.targets] == ["dev"]]
    if half == "_back":
        assert ast.unparse(dev.value) == "self.device if first else None"
        return
    assert ast.unparse(dev.value) == "self.device if first and book else None"
    # The half books the rest of the list after Phase 3 — all of it when
    # its panel was shared (its own transform booked nothing).
    (loop,) = [n for n in ast.walk(method) if isinstance(n, ast.For)]
    assert ast.unparse(loop.iter) == "rec.booked[0 if shared else 3:]"
    (own,) = [n for n in ast.walk(method) if isinstance(n, ast.Call)
              and getattr(n.func, "attr", "") == SLAB_RUNNER[half]]
    assert ast.unparse(own.keywords[0]) == "book=True"


def test_forward_fft_runs_in_the_front_half_only():
    # The setup-time spectrum FFT runs in the matrix's panel build
    # (core/toeplitz.py), so the front loop holds the module's only one.
    tree = _module("matvec.py")
    assert len(_calls(_slab_body("_front"), "execute")) == 1
    assert len(_calls(tree, "execute")) == 1, _calls(tree, "execute")


# What a half may not do per apply: it reads these off its prepared record.
PER_APPLY_DERIVATION = (
    "parse", "real_dtype", "complex_dtype", "_plan", "FFTPlan", "_slab_cols",
    "checkout", "checkout_fresh", "padded_buffer", "spectrum",
)


@pytest.mark.parametrize("half", ["_front", "_back"])
def test_halves_prepare_outside_the_loop_and_derive_nothing(half):
    tree = _module("matvec.py")
    method, body = _method(tree, "FFTMatvec", half), _slab_body(half)
    runner = _method(tree, "FFTMatvec", SLAB_RUNNER[half])
    # The front's record key lives in _front_record alone: a grid part
    # root's shared transform looks up the record its ranks' fronts use.
    lookup = "_front_record" if half == "_front" else "_prepared"
    assert len(_calls(method, lookup)) == 1, f"FFTMatvec.{half} looks its record up once"
    if half == "_front":
        assert len(_calls(_method(tree, "FFTMatvec", "_front_record"), "_prepared")) == 1
        shared = _method(tree, "FFTMatvec", "_pipeline_block_transform")
        assert len(_calls(shared, "_front_record")) == 1 and _calls(shared, "_prepared") == []
    for fn in {runner, body} - {method}:
        assert _calls(fn, "_prepared") == _calls(fn, "_front_record") == [], (
            f"FFTMatvec.{fn.name} is handed its record"
        )
    for fn in (method, runner, body):
        for name in PER_APPLY_DERIVATION:
            assert _calls(fn, name) == [], (
                f"FFTMatvec.{fn.name} calls {name}() per apply; resolve it in _prepared"
            )
    # The buffers are the record's arena views, read once ahead of the slabs.
    assert len(_attributes(runner, "bufs")) == 1
    assert runner is method or _attributes(method, "bufs") == []
    assert _attributes(body, "bufs") == []
    # A slab may run on a pool thread: it hands nothing the arena and
    # advances no counter (the half counts, on the calling thread).
    assert "workspace" not in _names(body)
    assert not [n for n in ast.walk(body) if isinstance(n, ast.AugAssign)]


def test_engine_hands_the_layer_functions_no_device():
    """The engine books every launch itself (first slab, full width), so
    nothing it calls may see the device — a layer function would charge
    its slab's shape on top, a Phase-3 kernel or a plan a second launch.
    The four Phase-3 kernels are numerics only: no device, no
    dispatcher, no ablation flag."""
    tree = _module("matvec.py")
    for half in ("_front", "_transform", "_front_slab", "_back", "_back_slab"):
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
    handed to it, and nothing else loops over the engines' ranks.  The
    pairwise root epilogue is the one other pipeline call: a single root
    rank per output part, timed by the same ``_run_rank``, in the part
    task that first runs that part's ``reduce_segments``.  A chunk's
    ranks, input parts and output parts all run through one gate,
    ``_run_groups``, into the host executor — the only code that
    touches the pool — and every collective sits in a part task it
    runs."""
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
    # The one pipeline call outside a rank task: a part root's shared
    # transform, in the front step's part task.
    assert _calls(tree, "_pipeline_block_transform") == _calls(
        _method(tree, "ParallelFFTMatvec", "_front_part"), "_pipeline_block_transform"
    ) != []
    finish = _calls(tree, "_pipeline_block_finish")
    assert len(finish) == 1 and set(finish) <= callbacks["_run_rank"]
    epilogue = _method(tree, "ParallelFFTMatvec", "_reduce_part_pairwise")
    assert finish == _calls(epilogue, "_pipeline_block_finish")
    assert _calls(tree, "reduce_segments") == _calls(epilogue, "reduce_segments")
    helper = _method(tree, "ParallelFFTMatvec", "_run_groups")
    assert _calls(tree, "run_groups") == _calls(helper, "run_groups") != []
    executor = _module("executor.py", "util")
    assert _calls(executor, "_rank_pool") == _calls(
        _function(executor, "run_groups"), "_rank_pool"
    ) != []
    assert _calls(tree, "run_rank") == _calls(
        _method(tree, "ParallelFFTMatvec", "_run_rank"), "run_rank"
    )
    # _run_rank itself: the task of the rank runner, called once per root.
    assert _calls(tree, "_run_rank") == _calls(epilogue, "_run_rank") != []
    tasks = {
        "_rank_compute": "_run_rank",
        "_chunk_fronts": "_front_part",
        "_chunk_bcast": "_bcast_part",
        "_chunk_reduce_fast": "_reduce_part_fast",
        "_chunk_reduce_pairwise": "_reduce_part_pairwise",
    }
    runs = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and getattr(n.func, "attr", None) == "_run_groups"]
    assert len(runs) == len(tasks)
    for caller, task in tasks.items():
        (run,) = [n for n in ast.walk(_method(tree, "ParallelFFTMatvec", caller))
                  if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "_run_groups"]
        assert run.args[0].attr == task, caller
    for collective, task in (("bcast", "_bcast_part"), ("reduce", "_reduce_part_fast")):
        assert _calls(tree, collective) == _calls(
            _method(tree, "ParallelFFTMatvec", task), collective
        )


def test_both_engines_run_on_one_executor_and_one_pool():
    """``src/`` has one compute pool, the host executor's, and only
    ``run_groups`` submits to it; the other ``ThreadPoolExecutor`` is the
    serving layer's one-thread engine-pass executor.  The engines call
    the executor at fixed places: the grid's gate, and a single
    engine's two halves (one slab body each) and fast Phase 3."""
    pools, runs, submits = {}, {}, {}
    for path in sorted(REPRO.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        name = str(path.relative_to(REPRO))
        for found, call in ((pools, "ThreadPoolExecutor"), (runs, "run_groups"), (submits, "submit")):
            if _calls(tree, call):
                found[name] = len(_calls(tree, call))
    assert pools == {"util/executor.py": 1, "serve/service.py": 1}
    assert _calls(_function(_module("executor.py", "util"), "_rank_pool"), "ThreadPoolExecutor")
    (service,) = [
        n for n in ast.walk(_module("service.py", "serve"))
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "ThreadPoolExecutor"
    ]
    assert {kw.arg: ast.unparse(kw.value) for kw in service.keywords}["max_workers"] == "1"
    assert submits == {"util/executor.py": 1}
    assert runs == {"core/matvec.py": 3, "core/parallel.py": 1}
    matvec = _module("matvec.py")
    for method in ("_transform", "_back", "_run_sbgemm"):
        assert len(_calls(_method(matvec, "FFTMatvec", method), "run_groups")) == 1, method


# The entry points that bracket an apply, each in one ``with <engine>.workspace:``
# (a vector apply is ``_pipeline_block`` at width 1: it has no entry point).
APPLY_SCOPES = {
    "matvec.py": ("FFTMatvec", (
        "_pipeline_block", "_pipeline_block_pairwise_segments", "_pipeline_block_finish",
        "_pipeline_block_transform",
    )),
    "parallel.py": ("ParallelFFTMatvec", ("_matmat_impl",)),
}


def _workspace_scopes(tree: ast.AST) -> list:
    """Line numbers of ``with <anything>.workspace:`` statements."""
    return [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.With)
        for item in node.items
        if isinstance(item.context_expr, ast.Attribute)
        and item.context_expr.attr == "workspace"
    ]


def test_core_brackets_applies_through_with_workspace_only():
    for path in sorted(CORE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in ("begin_apply", "end_apply", "apply_scope"):
            assert _calls(tree, name) == [], (
                f"{path.name} calls {name}(); bracket the apply in "
                "`with <engine>.workspace:`"
            )
    for filename, (cls, methods) in APPLY_SCOPES.items():
        tree = _module(filename)
        assert len(_workspace_scopes(tree)) == len(methods), filename
        for name in methods:
            assert len(_workspace_scopes(_method(tree, cls, name))) == 1, (cls, name)


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
