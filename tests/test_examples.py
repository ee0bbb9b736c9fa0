"""Smoke tests: every shipped example must run cleanly end to end.

Each example is executed as a subprocess (as a user would run it) and
its key output lines are asserted — catching API drift between the
library and its documentation-by-example.
"""

import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr}"
    return proc.stdout


def test_examples_directory_contents():
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert "quickstart.py" in present
    assert len(present) >= 3  # the deliverable floor; we ship more


def test_quickstart():
    out = run_example("quickstart.py")
    assert "rel err" in out
    assert "dssdd" in out
    assert "adjoint dot-test" in out
    # The clock's whole breakdown, setup included.
    assert "modeled device time by phase, all calls: fft" in out and "setup" in out
    # The skew walkthrough the README promises: an even split ties every
    # rank's compute, the skewed one spreads it.
    assert "modeled wall, even split" in out
    assert "modeled wall, skewed" in out
    assert "bitwise-unchanged" in out
    spreads = [float(s) for s in re.findall(r"slowest / fastest rank compute ([\d.]+)", out)]
    assert len(spreads) == 2 and spreads[0] == 1.0 < spreads[1]


def test_hipify_port():
    out = run_example("hipify_port.py")
    assert "NVIDIA build ok" in out
    # Each build runs through GPURuntime on its own vendor's device; the
    # CUDA build is refused on the AMD one.
    assert "NVIDIA runtime on A100" in out and "AMD runtime on MI300X" in out
    assert "CUDA build refused on MI300X: executable built for NVIDIA" in out
    assert "not supported" in out.lower()
    assert "fftmatvec_permute_kernel" in out
    assert "only the edited file re-translated" in out


def test_pareto_analysis():
    out = run_example("pareto_analysis.py")
    # dssdd's honest single-precision error sits on the 1e-7 boundary at
    # the example's size (1.07e-7 for its seed), so the 1e-7 pick may be
    # the next config up the front; at single's unit roundoff it is dssdd.
    assert "optimal under tolerance 1e-07: d" in out
    assert "optimal under tolerance 1.19e-07: dssdd" in out
    assert "optimal F* config: ddssd" in out


def test_source_inversion():
    out = run_example("source_inversion.py")
    assert "converged=True" in out
    assert "MAP(double) vs MAP(dssdd)" in out


def test_sensor_placement():
    out = run_example("sensor_placement.py")
    assert out.count("selected sites") == 1
    # the greedy final gain is the chosen set's EIG, re-assembled on its own
    line = next(l for l in out.splitlines() if "re-assembled on its own" in l)
    eig, greedy = re.findall(r"\d+\.\d+", line)
    assert eig == greedy


def test_posterior_uq():
    out = run_example("posterior_uq.py")
    assert "expected information gain" in out
    assert "variance reduction" in out


def test_multi_gpu_scaling():
    out = run_example("multi_gpu_scaling.py")
    assert "matches single-GPU" in out
    assert "4096" in out
    assert "skew penalty at scale" in out
