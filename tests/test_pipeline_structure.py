"""Structural guard: the five-phase pipeline is spelled out once.

``core/matvec.py`` used to carry four hand-copied pipeline bodies, each
re-threading the cast / injection / Parseval / ABFT / guard calls, and
``core/parallel.py`` a second, vector-only bcast → compute → reduce
loop.  They are now one front/back pair and one chunk loop; this test
walks the AST and fails when a copy grows back — a second call site of
a phase kernel or of its simulated-clock charge, a phase kernel outside
the front/back slab loops, a second collective loop, a rank loop beside
``_rank_compute`` (the one place that may run ranks concurrently), a
hand-rolled ``begin_apply()`` bracket beside
:func:`repro.util.workspace.apply_scope`, or per-apply derivation
(dtype and plan lookups, arena checkouts) inside a half: what the data
does not decide is resolved once, by ``FFTMatvec._prepared``.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

CORE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "core"


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


def _module(filename: str) -> ast.Module:
    path = CORE / filename
    return ast.parse(path.read_text(), filename=str(path))


def _method(tree: ast.Module, cls: str, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{cls}.{name} not found — layout changed?")


def _slab_loop(half: str) -> ast.For:
    """The one ``for`` loop of ``FFTMatvec._front`` / ``_back``: the slab
    loop (whole width = one iteration)."""
    loops = [
        n for n in ast.walk(_method(_module("matvec.py"), "FFTMatvec", half))
        if isinstance(n, (ast.For, ast.While))
    ]
    assert len(loops) == 1 and isinstance(loops[0], ast.For), (
        f"FFTMatvec.{half} must hold exactly one loop — no second, "
        "whole-width copy of the phases beside the slab loop"
    )
    return loops[0]


@pytest.mark.parametrize(
    "half,phase_call",
    [
        ("_front", "pad_to_soti"),
        ("_front", "charge_pad"),
        ("_front", "soti_to_tosi"),
        ("_back", "tosi_to_soti"),
        ("_back", "inverse"),
        ("_back", "unpad_from_soti"),
        ("_back", "charge_unpad"),
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


def test_each_reorder_is_charged_once_in_its_half():
    tree = _module("matvec.py")
    assert len(_calls(tree, "charge_reorder")) == 2
    for half in ("_front", "_back"):
        assert len(_calls(_slab_loop(half), "charge_reorder")) == 1


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
    a layer function it calls must never see the device — it would
    charge its slab's shape on top."""
    for half in ("_front", "_back"):
        for node in ast.walk(_slab_loop(half)):
            if isinstance(node, ast.Call):
                assert "device" not in {kw.arg for kw in node.keywords}, node.lineno


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
