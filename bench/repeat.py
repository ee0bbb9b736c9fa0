#!/usr/bin/env python3
"""Does the benchmark agree with itself?

Runs ``--sets`` full sets of the *same code*; a set is ``--runs`` runs of
every workload, each with another seed.  For every end-to-end metric and
workload it prints each set's median, the spread of a set (distance
between the first and third quartile as a share of the median — what
the driver computes), the gap between the sets' medians, and the
metric's bound from BENCHMARK.json.  Exits non-zero when a spread
exceeds its bound (``setup_s`` is exempt from the spread rule) or the
second set's median is worse than the first's by more than the bound;
a spread above a third of its bound is marked ``wide`` and passes.

Use it to size sample counts: raise ``run_seconds`` rather than loosen a
bound, and demote a metric that still cannot repeat to ``per_layer``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import harness
import run as bench


def collect(workloads, seeds, seconds) -> dict:
    """{workload: {metric: [value per seed]}} for one set."""
    values: dict = {}
    for name in workloads:
        for seed in seeds:
            record = bench.spawn(name, seed, seconds, trace=0, smoke=False, quiet=True)
            if not record["correct"] or record["failed"]:
                raise SystemExit(f"repeat: {name} seed {seed} failed a gate")
            for metric, entry in record["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(entry["value"])
            shown = " ".join(f"{m}={e['value']:.5g}" for m, e in record["metrics"].items())
            print(f"  {name} seed={seed}: {shown}", flush=True)
    return values


def spread(xs) -> float:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def main(argv=None) -> int:
    spec = harness.load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10, help="runs (seeds) per workload per set")
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--workload", action="append", help="restrict to these workloads")
    p.add_argument("--json", help="also write every value to this file")
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}/{args.sets}", flush=True)
        seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
        sets.append(collect(workloads, seeds, args.seconds))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(sets, fh, indent=1)

    bad = 0
    header = f"{'workload':<15s}{'metric':<13s}" + "".join(
        f"{'median ' + str(i + 1):>13s}{'spread':>8s}" for i in range(args.sets)
    ) + f"{'gap':>8s}{'bound':>7s}"
    print(header)
    for name in workloads:
        for entry in spec["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            medians = [statistics.median(s[name][metric]) for s in sets]
            spreads = [spread(s[name][metric]) for s in sets]
            # Positive gap = the last set is worse than the first.
            gap = (medians[-1] - medians[0]) / medians[0]
            if entry["better"] == "higher":
                gap = -gap
            flags = []
            if metric != "setup_s" and max(spreads) > bound:
                flags.append("SPREAD")
            if args.sets > 1 and gap > bound:
                flags.append("GAP")
            bad += bool(flags)
            if not flags and metric != "setup_s" and max(spreads) > bound / 3:
                flags.append("wide")
            print(
                f"{name:<15s}{metric:<13s}"
                + "".join(f"{m:>13.5g}{s:>8.1%}" for m, s in zip(medians, spreads))
                + f"{gap:>+8.1%}{bound:>7.0%}  {' '.join(flags)}"
            )
    print(
        "repeat: every metric repeats within its bound"
        if not bad
        else f"repeat: {bad} metric/workload pair(s) outside their bound"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
