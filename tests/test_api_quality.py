"""API-quality gates: documentation and export hygiene.

Deliverable (e) requires doc comments on every public item; these tests
enforce it mechanically so the guarantee survives future edits:

* every public module has a module docstring;
* every name in a package/module ``__all__`` resolves and is documented;
* every public class's public methods are documented;
* no orphan modules: every module is imported by another ``src/`` module
  or says in its docstring which file keeps it;
* no orphan functions: every public function, class and method is used
  outside ``tests/`` or says in its docstring which file keeps it;
* no orphan options: every keyword option is set by a caller outside
  ``tests/`` or listed, with a category and a reason, in
  :data:`KEPT_OPTIONS`;
* the name collisions both audits cannot see through are listed in
  :data:`SHADOWED_NAMES`.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
from collections import Counter, defaultdict
from functools import cache
from types import MappingProxyType

import pytest

import repro

MODULES = sorted(
    m.name
    for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not m.name.rpartition(".")[2].startswith("_")
)


@pytest.mark.parametrize("modname", MODULES)
def test_module_docstring(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__ and mod.__doc__.strip(), f"{modname} lacks a docstring"


@pytest.mark.parametrize("modname", MODULES)
def test_all_exports_resolve_and_are_documented(modname):
    mod = importlib.import_module(modname)
    exported = getattr(mod, "__all__", [])
    for name in exported:
        assert hasattr(mod, name), f"{modname}.__all__ lists missing {name!r}"
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert inspect.getdoc(obj), f"{modname}.{name} is undocumented"


@pytest.mark.parametrize("modname", MODULES)
def test_public_methods_documented(modname):
    mod = importlib.import_module(modname)
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name, None)
        if not inspect.isclass(obj) or obj.__module__ != modname:
            continue
        for mname, method in vars(obj).items():
            if mname.startswith("_") or not callable(method):
                continue
            if isinstance(method, (staticmethod, classmethod)):
                method = method.__func__
            assert inspect.getdoc(method), (
                f"{modname}.{name}.{mname} is undocumented"
            )


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name)
    assert repro.__version__ == "1.0.0"


# -- leaf-module audit (ROADMAP 4(e)) -----------------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _tree(path: pathlib.Path) -> ast.Module:
    """A file's syntax tree."""
    return ast.parse(path.read_text(), filename=str(path))


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: pathlib.Path):
    """``(module, name)`` of every absolute import in a file, including
    the lazy ones inside functions; ``name`` is None for ``import x``."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name


def _importers() -> dict:
    """For every module under ``src/repro``, the other ``src/`` modules
    that import it — directly, or through a name its package re-exports
    — not counting its own package ``__init__``."""
    files = {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}
    reexported = {
        (pkg, name): mod
        for pkg, path in files.items()
        if path.name == "__init__.py"
        for mod, name in _imports(path)
        if name and mod in files and mod.startswith(pkg + ".")
    }
    importers = {mod: set() for mod in files}
    for me, path in files.items():
        for mod, name in _imports(path):
            for target in (mod, f"{mod}.{name}", reexported.get((mod, name))):
                if target not in importers or target == me:
                    continue
                if path.name == "__init__.py" and target.startswith(me + "."):
                    continue  # a package's __init__ re-exporting its own module
                importers[target].add(me)
    return {mod: who for mod, who in importers.items() if files[mod].name != "__init__.py"}


def _kept(doc: str, name: str) -> bool:
    """Whether a docstring's ``Kept by ``path``: reason`` line names an
    existing file outside ``src/`` and ``tests/``, other than the
    ROADMAP, that mentions ``name``.  Tests and the ROADMAP are why code
    is still here, not what needs it; a ``src/`` file that needs it
    imports or calls it instead."""
    kept = re.search(r"^Kept by ``([^`]+)``", doc or "", re.M)
    if kept is None:
        return False
    keeper = ROOT / kept.group(1)
    return (
        keeper.parts[len(ROOT.parts)] not in ("src", "tests")
        and keeper != ROOT / "ROADMAP.md"
        and keeper.is_file()
        and name in keeper.read_text()
    )


@pytest.mark.parametrize(
    "keeper, kept",
    [
        ("examples/hipify_port.py", True),  # an example that mentions it
        ("docs/FAULT_TOLERANCE.md", False),  # never mentions the name
        ("src/repro/hip/mappings.py", False),  # src/ would import or call it
        ("tests/hip/test_runtime.py", False),  # its own tests
        ("ROADMAP.md", False),
        ("examples/no_such_file.py", False),
    ],
)
def test_keeper_rules(keeper, kept):
    doc = f"Summary.\n\nKept by ``{keeper}``: reason.\n"
    assert _kept(doc, "GPURuntime") is kept
    assert not _kept("Summary without a keeper line.", "GPURuntime")


def test_every_module_has_an_importer_or_says_what_keeps_it():
    """A module nothing in ``src/`` imports is kept alive by its own
    tests unless something outside needs it: it must name that file — a
    paper figure's benchmark, an example, the doc that decides its fate
    — in a ``Kept by ``path``: reason`` docstring line, and that file
    must mention the module by its last dotted name (see :func:`_kept`).
    ``inverse/lti2d.py`` had no keeper, ``perf/roofline.py`` named one
    that never mentioned it, ``fft/error.py`` only its test and
    ``comm/rccl.py`` a ``src/`` file that never imported it; all four
    are gone."""
    orphans = [
        mod
        for mod, who in sorted(_importers().items())
        if not who
        and not _kept(importlib.import_module(mod).__doc__, mod.rpartition(".")[2])
    ]
    assert not orphans, (
        f"no src/ module imports {orphans} and their docstrings name no existing "
        "file outside src/, tests/ and ROADMAP.md that mentions and keeps them: "
        "wire them in, add the 'Kept by' line, or delete them with their tests"
    )


# -- function-level leaf audit ----------------------------------------------------

#: Where a caller counts: the library itself, the wall-clock benchmark,
#: the paper-figure benchmarks and the examples — everything but tests/.
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")


def _uses(tree: ast.AST) -> Counter:
    """Every identifier a tree *uses* — names, attribute accesses and
    identifier-shaped strings (``getattr`` dispatch, string annotations)
    — skipping ``__all__`` lists, which export a name without using it."""
    used: Counter = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used[node.value] += 1
        stack.extend(ast.iter_child_nodes(node))
    return used


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_defs(tree=_tree):
    """``(qualified name, node)`` of every public top-level function and
    class under ``src/repro`` and every public method (``async`` included)
    of those classes."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        mod = _module_name(path)
        for node in tree(path).body:
            if not isinstance(node, (*_FUNCS, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{mod}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _FUNCS) and not sub.name.startswith("_"):
                        yield f"{mod}.{node.name}.{sub.name}", sub


def test_uses_counts_calls_and_attributes_but_not_exports():
    tree = ast.parse(
        "__all__ = ['exported']\n"
        "from m import imported\n"
        "def defined():\n"
        "    return called(obj.attr, getattr(obj, 'by_string'))\n"
    )
    used = _uses(tree)
    assert {"called", "obj", "attr", "by_string", "getattr"} <= set(used)
    assert not {"exported", "imported", "defined"} & set(used)


def test_public_defs_include_async_methods():
    # The service's coroutine API is audited like any other method.
    names = {qualname for qualname, _ in _public_defs()}
    assert {
        "repro.serve.service.SolverService.solve",
        "repro.serve.service.SolverService.matvec",
        "repro.serve.service.SolverService.close",
    } <= names


#: Public names more than one def under ``src/repro`` carries.  Both audits
#: match callees by name, so a live def hides a dead one of the same name
#: (``run``, ``copy``, ``free`` ...).  The set may only shrink: a new
#: collision needs an entry here, and an entry that no longer collides
#: must go (:func:`test_shared_public_names_are_listed`).
SHADOWED_NAMES = frozenset({
    "add", "adjoint", "apply", "apply_block", "asarray", "ascontiguous", "astype",
    "condition_number_hat", "conjugate", "copy", "copyto", "describe",
    "dtype_of", "efficiency", "empty", "fft", "free", "from_arrays", "from_device",
    "geometry_key", "in_use", "install_corruption_schedule",
    "install_failure_schedule", "is_contiguous", "is_short_wide", "iscomplex", "keys",
    "launch", "launch_geometry", "malloc", "matmat", "matmul", "matrix_bytes",
    "matvec", "memcpy", "modeled_time", "multiply", "nbytes", "nd", "nm",
    "parse", "pending", "phase", "precision", "probe", "rmatmat", "rmatvec",
    "run", "sample", "seeded", "size", "spatial_operator", "spectrum",
    "speedup", "stats", "supports", "synchronize", "to_arrays", "total",
    "total_bytes", "transpose", "verify_forward_energy", "verify_inverse_energy",
    "zeros",
})


def test_shared_public_names_are_listed():
    """The audits' blind spot, made explicit: every public name two or
    more defs share is in :data:`SHADOWED_NAMES`, and every entry still
    names a collision."""
    counts = Counter(node.name for _, node in _public_defs())
    shared = {name for name, n in counts.items() if n > 1}
    new = sorted(shared - SHADOWED_NAMES)
    assert not new, (
        f"{new} now name more than one public def, so the name-matching audits "
        "cannot tell their callers apart: rename one, or list the name in "
        "SHADOWED_NAMES"
    )
    stale = sorted(SHADOWED_NAMES - shared)
    assert not stale, f"{stale} no longer collide: drop them from SHADOWED_NAMES"


def test_every_public_function_has_a_caller_outside_tests_or_says_what_keeps_it():
    """The function-level twin of the module audit.  A public function,
    class, method or property whose name no file under ``src/`` (other
    than its own definition and the package re-exports), ``bench/``,
    ``benchmarks/`` or ``examples/`` uses is API only its tests call: it
    goes, with its tests, unless its docstring has a ``Kept by`` line
    (:func:`_kept`).  Names are matched by identifier, so a dead method
    that shares its name with a live one passes — the audit catches the
    unambiguous case, which is how ``comm/rccl.py`` and the helpers only
    their own tests called were found; :data:`SHADOWED_NAMES` lists the
    rest."""
    used: Counter = Counter()
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            if folder == "src" and path.name == "__init__.py":
                continue  # a package re-export is not a use
            used.update(_uses(_tree(path)))
    uncalled = [
        qualname
        for qualname, node in _public_defs()
        if used[node.name] <= _uses(node)[node.name]
        and not _kept(ast.get_docstring(node), node.name)
    ]
    assert not uncalled, (
        f"{uncalled} have no caller outside tests/ and their docstrings name no "
        "keeper: use them, add a 'Kept by' line, or delete them with their tests"
    )



# -- parameter-level leaf audit ---------------------------------------------------

#: Options no caller outside tests sets that stay anyway: ``"qualified
#: name:parameter"`` -> ``(category, reason)``.  An entry the audit would
#: not flag — the option is gone, or a caller outside tests now sets it —
#: fails the audit, so the table only shrinks.
KEPT_OPTIONS = MappingProxyType({
    # A tolerance or a window that decides when a check or a solver
    # gives up is a safety margin a caller may have to widen.
    "repro.blas.gemm_kernels.gemm_checksum_verify:rtol": ("safety", "ABFT detection tolerance"),
    "repro.util.checksum.verify_forward_energy:rtol": ("safety", "Parseval detection tolerance"),
    "repro.util.checksum.verify_inverse_energy:rtol": ("safety", "Parseval detection tolerance"),
    "repro.inverse.cg.conjugate_gradient:stagnation_window": ("safety", "CG breakdown detection"),
    "repro.inverse.cg.block_conjugate_gradient:stagnation_window": (
        "safety", "block-CG breakdown detection"),
    # Checkpoint / resume: what a restarted job uses, never a clean run.
    "repro.inverse.cg.conjugate_gradient:checkpoint": ("safety", "CG restart point"),
    "repro.inverse.cg.conjugate_gradient:checkpoint_every": ("safety", "CG restart cadence"),
    "repro.inverse.cg.conjugate_gradient:resume": ("safety", "CG restart from a saved state"),
    # Where a fault report says the fault was, and input validation.
    "repro.util.checksum.SilentCorruption:chunk": ("safety", "fault report: which chunk"),
    "repro.util.checksum.ensure_finite:chunk": ("safety", "fault report: which chunk"),
    "repro.util.validation.check_array:dtypes": ("safety", "input validation"),
    # What a test sets to inject a fault or read what the device ran.
    "repro.comm.fault.FailureSchedule:seed": ("test instrument", "seeded rank kills"),
    "repro.comm.fault.FailureSchedule.seeded:first": ("test instrument", "first killed call"),
    "repro.comm.fault.FailureSchedule.seeded:n_failures": ("test instrument", "kills to inject"),
    "repro.comm.fault.CorruptionSchedule:seed": ("test instrument", "seeded bit flips"),
    "repro.comm.fault.CorruptionSchedule:bit": ("test instrument", "which bit to flip"),
    "repro.comm.fault.CorruptionSchedule:flips": ("test instrument", "explicit flips"),
    "repro.comm.fault.CorruptionSchedule.seeded:bit": ("test instrument", "which bit to flip"),
    "repro.comm.fault.CorruptionSchedule.seeded:first": ("test instrument", "first flipped call"),
    "repro.gpu.device.SimulatedDevice:record_launches": ("test instrument", "launch log"),
    # What the process a deployment starts decides: where, on what, how long.
    "repro.util.checkpoint.CheckpointStore:root": ("deployment", "on-disk store directory"),
    "repro.cli.main:argv": ("deployment", "the command line; None reads sys.argv"),
    "repro.backend.torch_backend.TorchBackend:device": ("deployment", "which torch device"),
    "repro.serve.service.SolverService:max_inflight_per_tenant": ("deployment", "tenant cap"),
    "repro.serve.service.SolverService:tenant_weights": ("deployment", "fair-share weights"),
    "repro.serve.service.SolverService:max_flush_retries": ("deployment", "retry limit"),
    "repro.serve.service.SolverService:retry_backoff_s": ("deployment", "retry backoff"),
    "repro.serve.service.SolverService:tenant_failure_budget": ("deployment", "failure budget"),
    "repro.serve.service.SolverService:sdc_escalation_threshold": (
        "deployment", "SDC rebuild threshold"),
    # Fields a client sends with a request, the twins of the matvec
    # fields bench/wl_serve.py sets.
    "repro.serve.service.SolverService.solve:config": ("request protocol", "matvec's config"),
    "repro.serve.service.SolverService.solve:tenant": ("request protocol", "matvec's tenant"),
    "repro.serve.service.SolverService.solve:options": (
        "request protocol", "the solve's noise level, ridge and tolerance"),
    "repro.serve.service.SolverService.register:name": (
        "request protocol", "the handle's readable prefix"),
})

#: Why an option that only tests set may stay: it guards against a fault
#: (safety, as ``simplicity-review`` defines it), it is how a test drives
#: a fault or reads a trace, a deployment sets it, or it is a field a
#: client sends with a request.
KEPT_CATEGORIES = frozenset({"safety", "test instrument", "deployment", "request protocol"})


def _binding(fn: ast.AST, receiver: bool):
    """``(positional names, defaulted names)`` a call to ``fn`` binds,
    after the receiver of a method or constructor."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = set(positional[len(positional) - len(args.defaults):] if args.defaults else ())
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    return positional[1:] if receiver else positional, defaulted


def _options(defs):
    """``(qualified name, callee name, def, positional names, defaulted
    names)`` for each of ``defs`` (:func:`_public_defs`' pairs).  A class
    binds its ``__init__``; a dataclass's fields are a record's columns,
    not options, and are not audited."""
    cls = None
    for qualname, node in defs:
        if isinstance(node, ast.ClassDef):
            cls = qualname
            init = next(
                (s for s in node.body if isinstance(s, _FUNCS) and s.name == "__init__"), None
            )
            if init is not None:
                yield (qualname, node.name, init, *_binding(init, receiver=True))
            continue
        method = cls is not None and qualname.startswith(cls + ".")
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        yield (qualname, node.name, node, *_binding(node, receiver=method and not static))


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _timed(call: ast.Call) -> ast.Call:
    """``benchmark(fn, *args, **kw)`` and ``benchmark.pedantic(fn,
    args=..., kwargs={...})`` read as the call of ``fn`` they time."""
    name, args = _callee(call), call.args
    if name not in ("benchmark", "pedantic") or not args or isinstance(args[0], ast.Lambda):
        return call
    if name == "benchmark":
        return ast.Call(func=args[0], args=args[1:], keywords=call.keywords)
    given = {kw.arg: kw.value for kw in call.keywords}
    kwargs = given.get("kwargs")
    keywords = [
        ast.keyword(arg=key.value, value=value)
        for key, value in zip(getattr(kwargs, "keys", ()), getattr(kwargs, "values", ()))
    ]
    positional = list(getattr(given.get("args"), "elts", ()))
    return ast.Call(func=args[0], args=positional, keywords=keywords)


def _calls(tree: ast.AST):
    """``(call, enclosing defs)`` for every call in a tree."""
    found, stack = [], [(tree, ())]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (*_FUNCS, ast.Lambda)):
            scope = scope + (node,)
        if isinstance(node, ast.Call):
            found.append((_timed(node), scope))
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def _passed_on(value: ast.AST, scope, owner):
    """The option a call argument passes on — ``"qualified
    name:parameter"`` when ``value`` names a defaulted parameter of the
    nearest enclosing public def that has one by that name — else None:
    a literal, an expression, a required parameter, or a private
    helper's parameter counts as set."""
    if not isinstance(value, ast.Name):
        return None
    for fn in reversed(scope):
        args = fn.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        if value.id in names:
            qualname = owner.get(id(fn))
            if qualname and value.id in _binding(fn, False)[1]:
                return f"{qualname}:{value.id}"
            return None
    return None


def _unset_options(options, callers, kept=frozenset()):
    """``"qualified name:parameter"`` of every defaulted parameter of
    ``options`` that no call in ``callers`` (``(in src/, tree)`` pairs)
    gives a value, by position or keyword, outside the def's own body
    in ``src/``.  Callees match by name.  A call that only passes on the
    caller's own option counts once that option is set; ``**kw``
    forwards the keywords the enclosing def's callers pass.  ``kept``
    counts as set.  Repeats until nothing changes."""
    options = list(options)
    by_callee = defaultdict(list)
    for option in options:
        by_callee[option[1]].append(option)
    owner = {id(fn): qualname for qualname, _, fn, _, _ in options}
    calls = [(in_src, call, scope) for in_src, tree in callers for call, scope in _calls(tree)]
    keywords_received = {(_callee(call), kw.arg) for _, call, _ in calls for kw in call.keywords}
    setters = defaultdict(set)  # option -> the options it waits on (None: none)
    for in_src, call, scope in calls:
        for qualname, _, fn, positional, defaulted in by_callee.get(_callee(call), ()):
            if in_src and any(outer is fn for outer in scope):
                continue  # a def setting its own option is not a caller
            bound = {}
            for name, arg in zip(positional, call.args):
                if isinstance(arg, ast.Starred):
                    break
                bound[name] = arg
            bound.update((kw.arg, kw.value) for kw in call.keywords if kw.arg)
            for name in defaulted & bound.keys():
                setters[f"{qualname}:{name}"].add(_passed_on(bound[name], scope, owner))
            for kw in call.keywords:
                if kw.arg is not None or not isinstance(kw.value, ast.Name):
                    continue
                outer = next(
                    (f for f in reversed(scope) if f.args.kwarg and f.args.kwarg.arg == kw.value.id),
                    None,
                )
                if outer is None:
                    continue
                for name in defaulted - bound.keys():
                    if (getattr(outer, "name", None), name) in keywords_received:
                        setters[f"{qualname}:{name}"].add(None)
    done = set(kept)
    while True:
        settled = done | {None}
        new = {key for key, waits in setters.items() if key not in done and waits & settled}
        if not new:
            break
        done |= new
    return [
        f"{qualname}:{name}"
        for qualname, _, _, _, defaulted in options
        for name in sorted(defaulted)
        if f"{qualname}:{name}" not in done
    ]


def _callers(tree=_tree):
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield folder == "src", tree(path)


def test_unset_options_follows_calls_through_pass_ons_and_forwarding():
    lib = ast.parse(
        "def api(x, a=1, b=2, c=3, d=4, e=5):\n"
        "    return api(x, e=0)\n"
        "def outer(y, a=1, b=2):\n"
        "    return api(y, a=a, b=b)\n"
        "class Engine:\n"
        "    def __init__(self, n, spec=None):\n"
        "        pass\n"
        "    def run(self, k=1):\n"
        "        pass\n"
    )
    user = ast.parse(
        "outer(0, b=7)\n"
        "api(0, *rest, c=3)\n"
        "Engine(4, 'MI300X').run()\n"
        "def make(**kw):\n"
        "    return Engine(1, **kw)\n"
        "make(spec=None)\n"
    )
    options = list(_options([
        ("m.api", lib.body[0]), ("m.outer", lib.body[1]),
        ("m.Engine", lib.body[2]), ("m.Engine.run", lib.body[2].body[1]),
    ]))
    unset = _unset_options(options, [(True, lib), (False, user)])
    # c by keyword (a star hides what follows it); b passed on from
    # outer's b, which a caller sets; a only passed on from an option
    # nobody sets; d never; e only by api itself; spec by position after
    # the receiver and through **kw; run's k never.
    assert unset == ["m.api:a", "m.api:d", "m.api:e", "m.outer:a", "m.Engine.run:k"]
    assert _unset_options(options, [(True, lib), (False, user)], {"m.outer:a"}) == [
        "m.api:d", "m.api:e", "m.Engine.run:k",
    ]


def test_every_keyword_option_has_a_setter_outside_tests():
    """The parameter-level twin of the function audit.  Every parameter
    with a default on a public function, method or constructor under
    ``src/repro`` must be given a value by some call under ``src/``
    (outside its own body), ``bench/``, ``benchmarks/`` or ``examples/``
    (:func:`_unset_options`).  An option only tests turn is a fork only
    tests take: its default becomes a constant and the code only the
    other values reached goes, with the tests that drove it — unless
    :data:`KEPT_OPTIONS` lists it with a category and a reason.  The
    audit first flagged 190 of 551 options; 148 went (``ElasticEngine``'s
    nine net/spec/backend/policy/geometry keywords, ``scaling_sweep``'s
    host and MTBF columns and the posterior's per-vector path among
    them) and 37 are kept; the other 5 are set through kept ones."""
    bad = {key: kept for key, kept in KEPT_OPTIONS.items() if kept[0] not in KEPT_CATEGORIES}
    assert not bad, f"{bad} name no category of {sorted(KEPT_CATEGORIES)}"
    tree = cache(_tree)  # one parse per file: defs and calls compare by identity
    options = list(_options(_public_defs(tree)))
    callers = list(_callers(tree))
    stale = sorted(set(KEPT_OPTIONS) - set(_unset_options(options, callers)))
    assert not stale, (
        f"KEPT_OPTIONS lists {stale}, which the audit no longer flags (gone, or "
        "set outside tests): drop the entries"
    )
    unset = sorted(set(_unset_options(options, callers, frozenset(KEPT_OPTIONS))))
    assert not unset, (
        f"{unset} are set by no call outside tests/: fold each default into the "
        "code as a constant and delete what only other values reached, or list it "
        "in KEPT_OPTIONS with a category and a reason"
    )
