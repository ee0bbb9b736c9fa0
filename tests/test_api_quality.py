"""API-quality gates: documentation and export hygiene.

Deliverable (e) requires doc comments on every public item; these tests
enforce it mechanically so the guarantee survives future edits:

* every public module has a module docstring;
* every name in a package/module ``__all__`` resolves and is documented;
* every public class's public methods are documented;
* no orphan modules: every module is imported by another ``src/`` module
  or says in its docstring which file keeps it.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

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


def test_every_module_has_an_importer_or_says_what_keeps_it():
    """A module nothing in ``src/`` imports is kept alive by its own
    tests unless something outside needs it: it must name that file — a
    paper figure's benchmark, an example, the doc that decides its fate
    — in a ``Kept by ``path``: reason`` docstring line, and that file
    must exist and mention the module by its last dotted name.  A
    module's own tests and the ROADMAP do not keep it: they are why it
    is still here, not what needs it.  ``inverse/lti2d.py`` had no
    keeper, ``perf/roofline.py`` named one that never mentioned it and
    ``fft/error.py`` only its test; all three are gone."""
    orphans = []
    for mod, who in sorted(_importers().items()):
        if who:
            continue
        kept = re.search(r"^Kept by ``([^`]+)``", importlib.import_module(mod).__doc__ or "", re.M)
        keeper = ROOT / kept.group(1) if kept else None
        if (
            keeper is None
            or keeper.parts[len(ROOT.parts)] == "tests"
            or keeper == ROOT / "ROADMAP.md"
            or not keeper.is_file()
            or mod.rpartition(".")[2] not in keeper.read_text()
        ):
            orphans.append(mod)
    assert not orphans, (
        f"no src/ module imports {orphans} and their docstrings name no existing "
        "file outside tests/ and ROADMAP.md that mentions and keeps them: wire "
        "them in, add the 'Kept by' line, or delete them with their tests"
    )
