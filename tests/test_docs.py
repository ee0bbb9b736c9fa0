"""Documentation integrity checks.

The README and docs/ pages point at real files (module map, example
table, benchmark list); these tests resolve every internal reference so
a rename or move cannot silently orphan the docs.  The examples in the
partition and chunking contracts' docstrings run as doctests.
"""

import doctest
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))

# Markdown inline links [text](target); external schemes are skipped.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `backtick` path-looking references: contain a slash or end in a known
# file suffix, no spaces.  Identifiers like `max_block_k` don't match.
_CODE_PATH = re.compile(
    r"`([A-Za-z0-9_./-]+(?:/[A-Za-z0-9_.*-]+|\.(?:py|md|json|yml|yaml|toml)))`"
)


def _targets(text):
    for m in _LINK.finditer(text):
        target = m.group(1)
        if "://" in target or target.startswith(("mailto:", "#")):
            continue
        yield target.split("#")[0]
    for m in _CODE_PATH.finditer(text):
        yield m.group(1)


def test_doc_files_exist():
    assert (ROOT / "README.md").is_file()
    assert (ROOT / "docs" / "ARCHITECTURE.md").is_file()
    assert (ROOT / "docs" / "BENCHMARKS.md").is_file()


@pytest.mark.parametrize("modname", ["repro.util.blocking", "repro.comm.partition"])
def test_docstring_examples_run(modname):
    result = doctest.testmod(importlib.import_module(modname), optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0 and result.failed == 0, result


def _resolves(doc: Path, target: str) -> bool:
    """A reference resolves if it names something that really exists.

    Tried in order: relative to the doc, relative to the repo root, or
    (for shorthand prose references like ``dispatch.py`` or
    ``util/blocking.py``) as a path suffix of some tracked file.
    Benchmark artifacts (``BENCH_*.json``) are gitignored, so they
    resolve when a benchmark actually emits them.
    """
    name = Path(target).name
    if name.startswith("BENCH_") and name.endswith(".json"):
        emitters = (ROOT / "benchmarks").glob("test_*.py")
        pattern = re.compile(re.escape(name).replace(r"\*", r"\w+"))
        return any(pattern.search(f.read_text()) for f in emitters)
    if "*" in target:
        return bool(list(ROOT.glob(target)))
    if (doc.parent / target).resolve().exists():
        return True
    if (ROOT / target).exists():
        return True
    return any(
        str(f).endswith("/" + target)
        for f in ROOT.rglob(name)
        if ".git" not in f.parts
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_internal_references_resolve(doc):
    text = doc.read_text()
    missing = [t for t in _targets(text) if not _resolves(doc, t)]
    assert not missing, f"{doc.name} references missing files: {missing}"


def test_readme_documents_the_contract():
    text = (ROOT / "README.md").read_text()
    # The tier-1 verify command must appear verbatim so the walkthrough
    # runs as written.
    assert "PYTHONPATH=src python -m pytest -x -q" in text
    # Every shipped example is listed.
    for example in sorted((ROOT / "examples").glob("*.py")):
        assert f"examples/{example.name}" in text, example.name
    # Every emitted benchmark artifact is named.
    for bench in ("BENCH_parallel_blocked", "BENCH_overlap_grid"):
        assert bench in text, bench


# Public names of the deleted in-tree serving benchmark, SBGEMM
# calibration, FFT error-bound, NCCL-style communicator and CuPy backend
# modules.  The one serving load generator is bench/wl_serve.py; GEMM
# transition points come from the dispatcher's model probe; the FFT error
# terms live in repro.core.error_model; the grid engines reduce through
# SimCommunicator; the array backends are torch and numpy.
# Helpers deleted one by one are not listed: the function-level audit in
# tests/test_api_quality.py fails on any that comes back with no caller.
REMOVED_MODULES = [
    "repro.serve.bench",
    "repro.blas.calibrate",
    "repro.fft.error",
    "repro.comm.rccl",
    "repro.backend.cupy_backend",
]
REMOVED_NAMES = REMOVED_MODULES + [
    "run_serving_benchmark",
    "--serve-bench",
    "BENCH_serving",
    "measure_gemm_points",
    "fit_transition_points",
    "calibrate_dispatcher",
    "set_gemm_transition_points",
    "make_gemm_bench_yaml",
    "gemm_problem_from_config",
    "run_gemm_problem",
    "fft_error_bound",
    # Keyword options no caller outside tests set (the parameter audit).
    "mtbf_per_gpu_s",
    "power_iters",
    "deadline_s",
    "DeadlineExpiredError",
    "max_corruption_retries",
    "min_ranks",
    "rows_to_try",
    "paper_scale_times",
    "n_samples",
    # The outer loop reads one data-space assembly instead.
    "SensorBlockCache",
    "randomized_eig",
    "LowRankPosterior",
    "CupyBackend",
]
_SHIPPED_TEXT = [ROOT / "README.md"] + [
    f
    for top in ("src", "benchmarks", "examples", "docs", ".github")
    for f in sorted((ROOT / top).rglob("*"))
    if f.suffix in (".py", ".md", ".yml", ".yaml", ".toml") and "__pycache__" not in f.parts
]


@pytest.mark.parametrize("modname", REMOVED_MODULES)
def test_removed_module_stays_removed(modname):
    assert importlib.util.find_spec(modname) is None, modname


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_no_reference_to_a_removed_name(name):
    # Whole identifiers only: ``check_in`` is gone, ``check_input`` is not.
    word = re.compile(r"(?<![\w-])" + re.escape(name) + r"(?!\w)")
    hits = [str(f.relative_to(ROOT)) for f in _SHIPPED_TEXT if word.search(f.read_text())]
    assert not hits, f"{name!r} is gone but still referenced in {hits}"


def test_benchmarks_doc_covers_every_artifact_emitter():
    text = (ROOT / "docs" / "BENCHMARKS.md").read_text()
    for bench_file in sorted((ROOT / "benchmarks").glob("test_*.py")):
        body = bench_file.read_text()
        if "BENCH_" not in body:
            continue
        artifacts = set(re.findall(r"BENCH_\w+\.json", body))
        for artifact in artifacts:
            assert artifact in text, (
                f"{bench_file.name} emits {artifact}, undocumented in BENCHMARKS.md"
            )
