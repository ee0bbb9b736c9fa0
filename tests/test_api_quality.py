"""API-quality gates: documentation and export hygiene.

Deliverable (e) requires doc comments on every public item; these tests
enforce it mechanically so the guarantee survives future edits:

* every public module has a module docstring;
* every name in a package/module ``__all__`` resolves and is documented;
* every public class's public methods are documented;
* no orphan modules: every module is imported by another ``src/`` module
  or says in its docstring which file keeps it;
* no orphan functions: every public function, class and method is used
  outside ``tests/`` or says in its docstring which file keeps it.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
from collections import Counter

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


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: pathlib.Path):
    """``(module, name)`` of every absolute import in a file, including
    the lazy ones inside functions; ``name`` is None for ``import x``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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


def _public_defs():
    """``(qualified name, node)`` of every public top-level function and
    class under ``src/repro`` and every public method (``async`` included)
    of those classes."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        mod = _module_name(path)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
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


def test_every_public_function_has_a_caller_outside_tests_or_says_what_keeps_it():
    """The function-level twin of the module audit.  A public function,
    class, method or property whose name no file under ``src/`` (other
    than its own definition and the package re-exports), ``bench/``,
    ``benchmarks/`` or ``examples/`` uses is API only its tests call: it
    goes, with its tests, unless its docstring has a ``Kept by`` line
    (:func:`_kept`).  Names are matched by identifier, so a dead method
    that shares its name with a live one passes — the audit catches the
    unambiguous case, which is how ``comm/rccl.py`` and the helpers only
    their own tests called were found."""
    used: Counter = Counter()
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            if folder == "src" and path.name == "__init__.py":
                continue  # a package re-export is not a use
            used.update(_uses(ast.parse(path.read_text(), filename=str(path))))
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
