"""Shared plumbing of the wall-clock benchmark: metric names, environment
pinning, statistics, machine fingerprint and the result record.

Nothing here imports ``repro`` — the workload modules do, after
:func:`pin_environment` has fixed the thread counts and the backend.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# One BLAS/OpenMP thread: the plain single-threaded baseline.  The
# serving workload still runs two Python threads (event loop + the
# service's executor), which is nproc on the reference container.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_environment() -> None:
    """Fix BLAS threads and the array backend.  Must run before numpy is
    imported — the BLAS reads its thread count once, at load."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_BACKEND"] = "numpy"


def add_src_to_path() -> None:
    """Make ``repro`` importable from a plain checkout (no install, no
    PYTHONPATH).  Fails loudly when the checkout holds no source tree."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"bench: no program to measure — {src}/repro is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_spec() -> dict:
    """BENCHMARK.json — the single definition of workload and metric names."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# -- statistics ---------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty sample."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def ms(seconds: float) -> float:
    return seconds * 1e3


def us(seconds: float) -> float:
    return seconds * 1e6


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(seconds: float, body: Callable[[], None]) -> None:
    """Run ``body`` until ``seconds`` have elapsed, and at least once."""
    deadline = time.perf_counter() + seconds
    body()
    while time.perf_counter() < deadline:
        body()


# -- gates ----------------------------------------------------------------------
class Gates:
    """Correctness gates run after the timed window.

    Every gate is one named boolean; a failed gate counts as one failed
    operation and makes the run incorrect.  Numbers worth keeping (the
    measured error behind a tolerance gate) ride along in ``values``.
    """

    def __init__(self) -> None:
        self.results: Dict[str, bool] = {}
        self.values: Dict[str, float] = {}

    def check(self, name: str, ok: bool, value: Optional[float] = None) -> None:
        self.results[name] = bool(ok)
        if value is not None:
            self.values[name] = float(value)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.results.values() if not ok)

    def describe(self) -> str:
        parts = []
        for name, ok in self.results.items():
            val = self.values.get(name)
            tail = "" if val is None else f" ({val:.3g})"
            parts.append(f"{name}={'ok' if ok else 'FAIL'}{tail}")
        return ", ".join(parts)


# -- fingerprint ------------------------------------------------------------------
def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> Dict[str, str]:
    sizes: Dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if base.is_dir():
        for idx in sorted(base.glob("index*")):
            level = _read(str(idx / "level"))
            kind = _read(str(idx / "type"))
            if level in ("2", "3") and kind in ("Unified", "Data"):
                sizes[f"L{level}"] = _read(str(idx / "size"))
    return sizes


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # the driver's checkout is not a repository
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_info() -> str:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, AttributeError):
        return "unknown"


def fingerprint(seed: int) -> dict:
    """Where and with what a result was measured."""
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas_info(),
        "blas_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "backend": os.environ.get("REPRO_BACKEND", "unset"),
        "seed": seed,
        "git_sha": _git_sha(),
    }


# -- the result record --------------------------------------------------------------
class Result:
    """What one workload run reports: metrics by name, ops attempted and
    failed, gates, and free-form notes printed above the JSON line."""

    def __init__(self, workload: str, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.gates = Gates()
        self.samples: Dict[str, int] = {}
        self.notes: List[str] = []

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def count_samples(self, name: str, n: int) -> None:
        self.samples[name] = int(n)

    @property
    def correct(self) -> bool:
        return self.gates.failed == 0

    def to_line(self, spec: dict) -> str:
        """The driver's one-line JSON: every metric of the selected kind,
        in BENCHMARK.json order.  Layer metrics a workload does not
        exercise read 0 — that layer did no work on this workload."""
        kind = "per_layer" if self.trace else "end_to_end"
        metrics = {}
        for entry in spec[kind]:
            name = entry["name"]
            if name not in self.metrics:
                if kind == "end_to_end":
                    raise KeyError(f"{self.workload} did not report {name}")
                value = 0.0
            else:
                value = self.metrics[name]
            metrics[name] = {"value": value, "unit": entry["unit"]}
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": max(1, self.attempted),
                "failed": self.failed + self.gates.failed,
                "metrics": metrics,
            }
        )


def units_of(spec: dict) -> Dict[str, str]:
    return {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}


def print_metrics(result: Result, spec: dict, names: Iterable[str]) -> None:
    """Human-readable block: every reported metric by name with its unit."""
    units = units_of(spec)
    for name in names:
        if name in result.metrics:
            n = result.samples.get(name)
            tail = f"   n={n}" if n is not None else ""
            print(f"  {name:<40s} {result.metrics[name]:>14.6g} {units[name]}{tail}")


# -- host-speed reference --------------------------------------------------------------
class HostReference:
    """A fixed numpy kernel timed between the benchmark's operations, to
    tell how fast the host is *right now*.

    The reference container is two vCPUs of a shared host whose speed
    drifts by 10-30% over tens of seconds to minutes (no steal time is
    reported; every shape, pinned or not).  A 12 s run cannot average
    that out, but the drift is one multiplicative factor for everything
    the program does: over 10 s windows the time of this kernel
    correlates 0.9-0.97 with every workload's operations, and dividing by
    it cuts their window-to-window variation from 8-16% to 2.5-6%.

    The kernel is what the program leans on — a batched real FFT and a
    batched complex matmul, ~2.5 ms, ~5 MB — and deliberately holds no
    transposing copy: those run at one of two speeds per *process*
    (cache aliasing of the physical pages it was dealt), which is noise
    of another kind that no reference can follow.

    ``factor`` is the median kernel time over ``NOMINAL_S``, the kernel's
    time on the reference container at its usual speed; a timing divided
    by it reads as wall time on that container at that speed.
    """

    NOMINAL_S = 2.5e-3

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._np = np
        self._a = rng.standard_normal((256, 2048))
        self._c = rng.standard_normal((64, 24, 96)) + 1j * rng.standard_normal((64, 24, 96))
        self._x = rng.standard_normal((64, 96, 8)) + 0j
        self.samples: List[float] = []
        for _ in range(3):  # warm the kernel's own plan and caches
            self.sample()
        self.samples.clear()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._np.fft.rfft(self._a, axis=1)
        self._np.matmul(self._c, self._x)
        self.samples.append(time.perf_counter() - t0)

    def factor(self, since: int = 0) -> float:
        """Host slowdown over the samples taken from index ``since`` on."""
        return median(self.samples[since:]) / self.NOMINAL_S


# -- shared measurement loops --------------------------------------------------------
def alternate(
    seconds: float, fwd: Callable[[], object], adj: Callable[[], object], ref: HostReference
):
    """Alternate ``fwd()`` / ``adj()`` until ``seconds`` have elapsed, with
    one reference sample before each pair (outside the ops' timings).
    Returns (fwd seconds per call, adj seconds per call)."""
    f: List[float] = []
    a: List[float] = []

    def pair() -> None:
        ref.sample()
        t0 = time.perf_counter()
        fwd()
        t1 = time.perf_counter()
        adj()
        t2 = time.perf_counter()
        f.append(t1 - t0)
        a.append(t2 - t1)

    timed_loop(seconds, pair)
    return f, a


def repeated_setup(build: Callable[[], object], ref: HostReference, warm: int = 5):
    """Set up ``1 + warm`` times and report the median of the warm ones.

    The first set-up of a process is dominated by the hypervisor backing
    fresh pages (0.2-9 s for the same build here), so it is reported on
    its own and kept out of the median.  Each product is dropped before
    the next build, so two never coexist and peak memory stays one
    engine's; reference samples surround every build.  Returns (last
    product, median warm seconds corrected for host speed, cold seconds).
    """
    times: List[float] = []
    product = None
    for _ in range(1 + warm):
        product = None
        gc.collect()
        ref.sample()
        t0 = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - t0)
        ref.sample()
    start = len(ref.samples) - 2 * warm
    return product, median(times[1:]) / ref.factor(start), times[0]


def put_end_to_end(
    result: Result,
    setup_s: float,
    op_s: Sequence[float],
    alt_s: Sequence[float],
    rates: Sequence[float],
    factor: float,
    op_timer_s: float = 0.0,
) -> None:
    """Fill the end-to-end metrics every workload reports.  ``op_s`` and
    ``alt_s`` are raw seconds and ``rates`` raw work-per-second of each
    round of the window; ``factor`` is the host slowdown of that window
    (``setup_s`` arrives corrected).  ``op_timer_s`` is the part of every
    ``op`` that is a timer and not work, which host speed does not scale."""

    def op_ms(q: float) -> float:
        return ms(op_timer_s + (percentile(op_s, q) - op_timer_s) / factor)

    result.put("setup_s", setup_s)
    result.put("op_ms_p50", op_ms(50.0))
    result.put("alt_ms_p50", ms(median(alt_s)) / factor)
    result.put("throughput", median(rates) * factor)
    result.put("bench.op_ms_p90", op_ms(90.0))
    result.put("bench.host_factor", factor)
    result.count_samples("op_ms_p50", len(op_s))
    result.count_samples("alt_ms_p50", len(alt_s))
    result.notes.append(
        f"host factor {factor:.3f}; raw wall: op p50 {ms(median(op_s)):.4g} ms, "
        f"op p90 {ms(percentile(op_s, 90.0)):.4g} ms, alt p50 {ms(median(alt_s)):.4g} ms, "
        f"throughput {median(rates):.5g}/s"
    )
