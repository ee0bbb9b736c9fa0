"""Regression: pytest collection survives pre-populated __pycache__.

The seed tree had benchmarks/test_ablations.py and
tests/perf/test_ablations.py sharing a basename with no pytest config
and no test packages; whenever a stale __pycache__ existed, the tier-1
command died at collection with "import file mismatch".  The fix is the
root pyproject.toml (testpaths) plus __init__.py files making every
test module's import name package-qualified.  This test pre-warms the
bytecode caches exactly the way the failure was triggered and asserts
collection succeeds.

The tests collected from the configured paths are also the one
verification definition: ``.github/workflows/ci.yml`` may run them, the
benchmarks at tiny shapes and the torch backend suite, and restate none
of them (no heredoc, no node id, no ``-k``).
"""

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"

# The arguments after ``pytest`` of every pytest run CI may hold:
# tier-1 itself, all of benchmarks/ at tiny shapes, the torch job's
# backend suite.
CI_PYTEST_RUNS = {
    ("-x", "-q"),
    ("-q", "benchmarks"),
    ("-q", "tests/backend", "tests/test_backend_lint.py", "benchmarks/test_backend.py"),
}


def test_duplicate_basenames_still_exist():
    # The regression only guards something if the collision is present.
    assert (REPO_ROOT / "benchmarks" / "test_ablations.py").exists()
    assert (REPO_ROOT / "tests" / "perf" / "test_ablations.py").exists()


def test_test_dirs_are_packages():
    assert (REPO_ROOT / "tests" / "__init__.py").exists()
    assert (REPO_ROOT / "benchmarks" / "__init__.py").exists()
    assert (REPO_ROOT / "tests" / "perf" / "__init__.py").exists()


def test_collection_with_prewarmed_pycache():
    # Pre-warm __pycache__ for both colliding modules, then collect.
    compile_cmd = [
        sys.executable,
        "-m",
        "compileall",
        "-q",
        str(REPO_ROOT / "benchmarks"),
        str(REPO_ROOT / "tests" / "perf"),
    ]
    subprocess.run(compile_cmd, check=True, cwd=REPO_ROOT, timeout=120)

    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "--collect-only",
            "-q",
            "benchmarks/test_ablations.py",
            "tests/perf/test_ablations.py",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"collection failed with pre-warmed __pycache__:\n{result.stdout}\n"
        f"{result.stderr}"
    )
    assert "import file mismatch" not in result.stdout
    assert "import file mismatch" not in result.stderr


def _ci_commands():
    """Every shell command of every ``run:`` step of ci.yml, with
    backslash continuations joined."""
    lines = CI.read_text().splitlines()
    commands, i = [], 0
    while i < len(lines):
        m = re.match(r"(\s*)(?:- )?run:\s*(.*)$", lines[i])
        i += 1
        if not m:
            continue
        script = m.group(2)
        if script in ("|", ">"):
            block = []
            while i < len(lines) and (
                not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > len(m.group(1))
            ):
                block.append(lines[i].strip())
                i += 1
            script = "\n".join(block)
        commands += [c.strip() for c in script.replace("\\\n", " ").splitlines() if c.strip()]
    return commands


def test_ci_steps_hold_no_heredoc():
    commands = _ci_commands()
    assert commands
    assert [c for c in commands if "<<" in c] == []


def test_ci_runs_pytest_only_as_tier1_tiny_benchmarks_or_the_torch_suite():
    runs = [
        tuple(words[words.index("pytest") + 1:])
        for words in map(str.split, _ci_commands())
        if "pytest" in words and "install" not in words
    ]
    assert [r for r in runs if r not in CI_PYTEST_RUNS] == []
    assert ("-x", "-q") in runs
