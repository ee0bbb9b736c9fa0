"""Smoke test of the wall-clock benchmark (not part of tier-1).

``bench/`` is outside ``pyproject.toml``'s ``testpaths``, so a plain
``pytest`` never collects this; run it explicitly::

    python -m pytest bench/test_smoke.py -q

It drives ``bench/run.py --smoke`` — tiny shapes, every workload in both
modes — which asserts the result schema, every correctness gate and the
bitwise phase replay.  No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def import_bench():
    """Make the benchmark's modules (and ``repro``) importable in-process."""
    sys.path.insert(0, str(BENCH))
    import harness

    harness.pin_environment()
    harness.add_src_to_path()


def test_smoke_suite_passes():
    proc = run_bench("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "baseline.json left untouched" in proc.stdout


def test_driver_line_is_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(
            "--workload", "solve_small", "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        record = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        assert sorted(record) == ["attempted", "correct", "failed", "metrics"]
        assert record["correct"] is True and record["failed"] == 0
        assert record["attempted"] >= 1
        assert list(record["metrics"]) == [e["name"] for e in spec[kind]]
        for entry in spec[kind]:
            assert record["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_same_seed_same_inputs():
    import_bench()
    import numpy as np
    from wl_apply import SMOKE_K, SMOKE_SHAPE, make_inputs

    a = make_inputs(5, SMOKE_SHAPE, SMOKE_K)
    b = make_inputs(5, SMOKE_SHAPE, SMOKE_K)
    c = make_inputs(6, SMOKE_SHAPE, SMOKE_K)
    assert all(np.array_equal(x, y) for x, y in zip(a[:3], b[:3]))
    assert not np.array_equal(a[0], c[0])


def test_diverging_replay_names_the_stage(monkeypatch):
    """A replay that is not bitwise the engine's raises and says where."""
    import_bench()
    import numpy as np
    import pytest
    import replay
    from repro.core.matvec import FFTMatvec
    from repro.core.toeplitz import BlockTriangularToeplitz
    from spans import SpanRecorder

    real = replay.tosi_to_soti

    def off_by_a_bit(*args, **kwargs):
        out = real(*args, **kwargs)
        out[0, 0] += 1e-9
        return out

    monkeypatch.setattr(replay, "tosi_to_soti", off_by_a_bit)
    rng = np.random.default_rng(0)
    engine = FFTMatvec(BlockTriangularToeplitz.random(16, 4, 6, rng=rng), workspace=True)
    M = rng.standard_normal((16, 6, 3))
    eng_out, rep_out = np.empty((16, 4, 3)), np.empty((16, 4, 3))
    rp = replay.PhaseReplay(engine, SpanRecorder())
    rp.apply(M, "ddddd", False, rep_out)
    with pytest.raises(replay.ReplayDiverged, match="core.reorder.bwd"):
        rp.verify(lambda: engine.matmat(M, out=eng_out), M, "ddddd", False, rep_out, "F")


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the
    benchmark must fail fast and print no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "apply_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
