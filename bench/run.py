#!/usr/bin/env python3
"""The repo's wall-clock benchmark: one command for the whole stack.

Driver contract (see BENCHMARK.json)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``).

Without ``--workload`` it is the human front end: every workload runs in
a fresh subprocess, every metric is printed by name with its unit, and a
full untraced run records its numbers and the machine fingerprint in
``bench/baseline.json``.  ``--smoke`` runs tiny shapes through both
modes and asserts the schema, the gates and the bitwise replay — it
makes no timing assertions and never writes the baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import harness

harness.pin_environment()  # before numpy is imported anywhere below

WORKLOAD_MODULES = {
    "apply_large": "wl_apply",
    "apply_mixed": "wl_apply",
    "solve_small": "wl_solve",
    "grid_fast": "wl_grid",
    "grid_hardened": "wl_grid",
    "serve_applies": "wl_serve",
}
SMOKE_SECONDS = 0.6
BASELINE_PATH = harness.BENCH_DIR / "baseline.json"


def parse_args(argv=None) -> argparse.Namespace:
    spec = harness.load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOAD_MODULES), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run reporting the per-layer metrics",
    )
    p.add_argument("--smoke", action="store_true", help="tiny shapes, no timing claims")
    return p.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload, in this process."""
    import importlib

    harness.add_src_to_path()
    spec = harness.load_spec()
    module = importlib.import_module(WORKLOAD_MODULES[args.workload])
    t0 = time.perf_counter()
    result = module.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"{args.workload}  seed={args.seed}  {kind}  ({time.perf_counter() - t0:.1f} s)")
    harness.print_metrics(result, spec, [e["name"] for e in spec[kind]])
    print(f"  gates: {result.gates.describe()}")
    for note in result.notes:
        print(f"  note: {note}")
    print(f"  fingerprint: {json.dumps(harness.fingerprint(args.seed))}")
    print(result.to_line(spec))
    return 0


def spawn(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool, quiet: bool = False
) -> dict:
    """Run one workload in a fresh interpreter; returns its JSON record.
    The child's human-readable block is passed through unless ``quiet``
    (a run that failed a gate is always shown)."""
    cmd = [
        sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: workload {workload} (trace={trace}) failed")
    record = json.loads(lines[-1])
    if not quiet or not record["correct"] or record["failed"]:
        print("\n".join(lines[:-1]))
    return record


def check_record(record: dict, spec: dict, trace: int, workload: str) -> None:
    """Schema and gate assertions shared by --smoke and the full suite."""
    kind = "per_layer" if trace else "end_to_end"
    expected = [e["name"] for e in spec[kind]]
    if sorted(record) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"bench: {workload}: bad record keys {sorted(record)}")
    if list(record["metrics"]) != expected:
        raise SystemExit(f"bench: {workload}: metrics do not match BENCHMARK.json")
    if not record["correct"] or record["failed"] != 0:
        raise SystemExit(f"bench: {workload}: {record['failed']} operation(s) failed a gate")
    if not trace and any(m["value"] <= 0 for m in record["metrics"].values()):
        raise SystemExit(f"bench: {workload}: an end-to-end metric is not positive")
    if trace and record["metrics"]["core.matvec.replay_bitwise"]["value"] != 1.0:
        raise SystemExit(f"bench: {workload}: phase replay was not bitwise")


def run_suite(args: argparse.Namespace) -> int:
    """Human mode: every workload in a fresh subprocess."""
    spec = harness.load_spec()
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    traces = (0, 1) if args.smoke else (args.trace,)
    numbers = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace in traces:
            record = spawn(name, args.seed, seconds, trace, args.smoke)
            check_record(record, spec, trace, name)
            numbers[name] = {m: v["value"] for m, v in record["metrics"].items()}
    if args.smoke or args.trace:
        print("bench: smoke/traced run — bench/baseline.json left untouched")
        return 0
    baseline = {
        "note": "latest full untraced run of bench/run.py; the parent's behaviour, no gain claimed",
        "run_seconds": seconds,
        "fingerprint": harness.fingerprint(args.seed),
        "end_to_end": numbers,
    }
    with open(BASELINE_PATH, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    print(f"bench: wrote {BASELINE_PATH.relative_to(harness.ROOT)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is not None:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
