"""``fft-matvec``: a CLI mirroring the original ``fft_matvec`` executable.

Flags follow the artifact appendix:

* ``-nm / -nd / -Nt`` — problem dimensions;
* ``-prec xxxxx`` — the 5-phase precision configuration (d/s each);
* ``-rand`` — initialize with the mantissa-filled random values used for
  mixed-precision testing;
* ``-raw`` — machine-parseable timing output;
* ``-s <directory>`` — save output vectors (``.npy``) for offline
  comparison of mixed vs double results;
* ``-t`` — run the built-in self test;
* ``-reps N`` — average timings over N repetitions;
* ``-gpu NAME`` — simulated architecture (default MI250X GCD);
* ``-pr / -pc`` — process grid shape (defaults: 1 x p as the paper does
  for small runs); ``-p`` — total simulated GPUs;
* ``--backend`` — array backend (numpy/cupy/torch/auto; default: the
  ``REPRO_BACKEND`` environment variable, else the auto fallback chain);
* ``--serve-bench`` — run the multi-tenant serving benchmark (coalesced
  vs serve-one; see ``docs/SERVING.md``) with ``--rates``,
  ``--requests``, ``--tenants``, ``--budget-mb`` and ``--block-k``
  knobs, reusing ``-nm/-nd/-Nt/-prec/-seed`` for the operator.

Timing output format matches the original: three lines of
setup/total/cleanup, then per-phase times, for the F matvec and then the
F* matvec.

Kept by ``README.md``: the command-line entry point (``python -m
repro.cli``), the original executable's flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from repro.backend import BackendUnavailableError, resolve_backend
from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK
from repro.comm.partition import communication_aware_partition
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.precision import PrecisionConfig
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.gpu.specs import get_gpu
from repro.util.dtypes import fill_low_mantissa
from repro.util.timing import TimingReport

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Argument parser with the original executable's flag set."""
    p = argparse.ArgumentParser(
        prog="fft-matvec",
        description="Simulated FFTMatvec: mixed-precision block-triangular "
        "Toeplitz matvecs (reproduction CLI)",
    )
    p.add_argument("-nm", type=int, default=100, help="spatial parameters Nm")
    p.add_argument("-nd", type=int, default=8, help="sensors Nd")
    p.add_argument("-Nt", dest="nt", type=int, default=64, help="time steps Nt")
    p.add_argument(
        "-prec",
        type=str,
        default="ddddd",
        help="5-phase precision config (d/s per phase), e.g. dssdd",
    )
    p.add_argument("-rand", action="store_true", help="mantissa-filled random init")
    p.add_argument("-raw", action="store_true", help="machine-parseable output")
    p.add_argument("-s", dest="save_dir", type=str, default=None, help="save outputs")
    p.add_argument("-t", dest="selftest", action="store_true", help="self test")
    p.add_argument("-reps", type=int, default=1, help="timing repetitions")
    p.add_argument("-gpu", type=str, default="MI250X", help="simulated GPU")
    p.add_argument("-p", dest="num_gpus", type=int, default=1, help="simulated GPUs")
    p.add_argument("-pr", type=int, default=0, help="grid rows (0 = auto)")
    p.add_argument("-pc", type=int, default=0, help="grid cols (0 = auto)")
    p.add_argument("-seed", type=int, default=0, help="RNG seed")
    p.add_argument(
        "--backend",
        type=str,
        default=None,
        help="array backend: numpy, cupy, torch or auto "
        "(default: $REPRO_BACKEND, else the auto fallback chain)",
    )
    p.add_argument(
        "--pareto",
        type=float,
        default=None,
        metavar="TOL",
        help="sweep all 32 precision configs and report the Pareto "
        "optimum under the given error tolerance (e.g. --pareto 1e-7)",
    )
    p.add_argument(
        "--adjoint",
        action="store_true",
        help="with --pareto: analyze the F* direction instead of F",
    )
    p.add_argument(
        "--serve-bench",
        action="store_true",
        help="run the multi-tenant serving benchmark (coalesced vs "
        "serve-one over Poisson request traces) and print the table",
    )
    p.add_argument(
        "--rates",
        type=str,
        default="50,2000",
        help="with --serve-bench: comma-separated arrival rates (req/s)",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=240,
        help="with --serve-bench: requests per trace",
    )
    p.add_argument(
        "--tenants",
        type=int,
        default=4,
        help="with --serve-bench: number of tenants in the trace",
    )
    p.add_argument(
        "--budget-mb",
        type=float,
        default=128.0,
        help="with --serve-bench: engine-cache byte budget (MiB)",
    )
    p.add_argument(
        "--block-k",
        type=int,
        default=16,
        help="with --serve-bench: max coalesced columns per flush",
    )
    return p


def _serve_bench_mode(args) -> int:
    """--serve-bench: coalesced vs serve-one throughput comparison."""
    from repro.serve.bench import run_serving_benchmark

    try:
        rates = tuple(float(r) for r in args.rates.split(",") if r.strip())
    except ValueError:
        print(f"error: bad --rates value {args.rates!r}", file=sys.stderr)
        return 2
    if not rates or any(r <= 0 for r in rates):
        print("error: --rates needs positive req/s values", file=sys.stderr)
        return 2
    for name, v in (
        ("-nm", args.nm),
        ("-nd", args.nd),
        ("-Nt", args.nt),
        ("--requests", args.requests),
        ("--tenants", args.tenants),
        ("--block-k", args.block_k),
    ):
        if v <= 0:
            print(f"error: {name} must be positive", file=sys.stderr)
            return 2
    if args.budget_mb <= 0:
        print("error: --budget-mb must be > 0", file=sys.stderr)
        return 2

    artifact = run_serving_benchmark(
        nt=args.nt,
        nd=args.nd,
        nm=args.nm,
        rates=rates,
        n_requests=args.requests,
        tenants=args.tenants,
        max_block_k=args.block_k,
        budget_mb=args.budget_mb,
        config=args.prec,
        seed=args.seed,
    )
    print(
        f"serving bench  Nm={args.nm} Nd={args.nd} Nt={args.nt} "
        f"prec={args.prec}  tenants={args.tenants} "
        f"block_k={args.block_k}"
    )
    header = (
        f"{'rate':>8} {'mode':>10} {'thr r/s':>9} {'p50 ms':>8} "
        f"{'p99 ms':>8} {'wait ms':>8} {'exec ms':>8} {'batch':>6} {'speedup':>8}"
    )
    print(header)
    for row in artifact["rates"]:
        for mode in ("coalesced", "serve_one"):
            stats = row[mode]
            speed = f"{row['speedup']:.2f}x" if mode == "coalesced" else ""
            print(
                f"{row['rate_rps']:>8.0f} {mode:>10} "
                f"{stats['throughput_rps']:>9.1f} {stats['p50_ms']:>8.2f} "
                f"{stats['p99_ms']:>8.2f} {stats['queue_wait_p50_ms']:>8.2f} "
                f"{stats['exec_p50_ms']:>8.2f} {stats['mean_batch']:>6.1f} "
                f"{speed:>8}"
            )
        coalesced = row["coalesced"]
        gates = (
            f"         bitwise={coalesced['bitwise_identical']} "
            f"solves_ok={coalesced['solves_within_tol']} "
            f"rejected={coalesced['rejected']}"
        )
        print(gates)
    cache = artifact["cache"]
    print(
        f"cache: peak {cache['peak_bytes'] / 2**20:.1f} MiB of "
        f"{cache['budget_bytes'] / 2**20:.0f} MiB budget, "
        f"{cache['evictions']} evictions, "
        f"within_budget={cache['within_budget']}"
    )
    return 0


def _pareto_mode(args) -> int:
    """--pareto TOL: the artifact's configuration-selection workflow."""
    from repro.core.pareto import optimal_config, pareto_table, sweep_configs
    from repro.perf.phase_model import modeled_timing

    rng = np.random.default_rng(args.seed)
    matrix = BlockTriangularToeplitz.random(
        args.nt, args.nd, args.nm, rng=rng, decay=0.02
    )
    spec = get_gpu(args.gpu)
    engine = FFTMatvec(matrix, device=SimulatedDevice(spec))
    points = sweep_configs(
        engine,
        adjoint=args.adjoint,
        rng=rng,
        time_model=lambda c: modeled_timing(
            args.nm, args.nd, args.nt, c, spec, adjoint=args.adjoint
        ).total,
    )
    print(pareto_table(points, tolerance=args.pareto))
    try:
        best = optimal_config(points, args.pareto)
    except Exception as exc:
        print(f"no configuration satisfies the tolerance: {exc}", file=sys.stderr)
        return 1
    direction = "F*" if args.adjoint else "F"
    print(
        f"\noptimal {direction} config under {args.pareto:g}: {best.config} "
        f"({(best.speedup - 1) * 100:.0f}% speedup, rel err {best.error:.2e})"
    )
    return 0


def _self_test(args) -> int:
    """-t: verify the FFT matvec against the dense reference."""
    try:
        backend = resolve_backend(args.backend)
    except BackendUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    matrix = BlockTriangularToeplitz.random(16, 3, 12, rng=rng)
    engine = FFTMatvec(matrix, backend=backend)
    m = rng.standard_normal((16, 12))
    d = engine.matvec(m)
    ref = matrix.matvec_reference(m)
    fwd = float(np.linalg.norm(d - ref) / np.linalg.norm(ref))
    dv = rng.standard_normal((16, 3))
    mm = engine.rmatvec(dv)
    rref = matrix.rmatvec_reference(dv)
    adj = float(np.linalg.norm(mm - rref) / np.linalg.norm(rref))
    ok = fwd < 1e-12 and adj < 1e-12
    print(f"self test: forward rel err {fwd:.2e}, adjoint rel err {adj:.2e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _print_timing(report: Optional[TimingReport], raw: bool) -> None:
    if report is None:
        print("  (no device attached; timings unavailable)")
        return
    for line in report.lines(raw=raw):
        print(line)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.selftest:
        return _self_test(args)
    if args.serve_bench:
        return _serve_bench_mode(args)
    if args.pareto is not None:
        if args.pareto <= 0:
            print("error: --pareto tolerance must be positive", file=sys.stderr)
            return 2
        for name, v in (("nm", args.nm), ("nd", args.nd), ("Nt", args.nt)):
            if v <= 0:
                print(f"error: -{name} must be positive", file=sys.stderr)
                return 2
        return _pareto_mode(args)

    try:
        cfg = PrecisionConfig.parse(args.prec)
    except Exception as exc:  # argparse-style error reporting
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, v in (("nm", args.nm), ("nd", args.nd), ("Nt", args.nt)):
        if v <= 0:
            print(f"error: -{name} must be positive", file=sys.stderr)
            return 2
    if args.reps <= 0:
        print("error: -reps must be positive", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    matrix = BlockTriangularToeplitz.random(
        args.nt, args.nd, args.nm, rng=rng, decay=0.02
    )
    spec = get_gpu(args.gpu)

    m_in = rng.standard_normal((args.nt, args.nm))
    d_in = rng.standard_normal((args.nt, args.nd))
    if args.rand:
        m_in = fill_low_mantissa(m_in)
        d_in = fill_low_mantissa(d_in)

    try:
        backend = resolve_backend(args.backend)
    except BackendUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    p = args.num_gpus
    if p > 1:
        pr, pc = args.pr, args.pc
        if pr <= 0 or pc <= 0:
            pr, pc = communication_aware_partition(args.nm, args.nd, args.nt, p)
        grid = ProcessGrid(pr, pc, net=FRONTIER_NETWORK, backend=backend)
        engine = ParallelFFTMatvec(matrix, grid, spec=spec, backend=backend)
        if not args.raw:
            print(f"process grid: {pr} x {pc} ({p} simulated GPUs)")
    else:
        engine = FFTMatvec(
            matrix, device=SimulatedDevice(spec), backend=backend
        )

    if not args.raw:
        print(
            f"FFTMatvec  Nm={args.nm} Nd={args.nd} Nt={args.nt}  "
            f"prec={cfg}  gpu={spec.name}  backend={backend.name}"
        )

    def run_reps(op, vec) -> TimingReport:
        acc: Optional[TimingReport] = None
        for _ in range(args.reps):
            op(vec, config=cfg)
            t = engine.last_timing
            acc = t if acc is None else acc.merged(t)
        assert acc is not None
        return acc.averaged()

    d_out = engine.matvec(m_in, config=cfg)
    fwd_timing = run_reps(engine.matvec, m_in)
    m_out = engine.rmatvec(d_in, config=cfg)
    adj_timing = run_reps(engine.rmatvec, d_in)

    if not args.raw:
        print("-- F matvec --")
    _print_timing(fwd_timing, args.raw)
    if not args.raw:
        print("-- F* matvec --")
    _print_timing(adj_timing, args.raw)

    if args.save_dir:
        os.makedirs(args.save_dir, exist_ok=True)
        np.save(os.path.join(args.save_dir, f"d_{cfg}.npy"), d_out)
        np.save(os.path.join(args.save_dir, f"m_{cfg}.npy"), m_out)
        if not args.raw:
            print(f"saved outputs to {args.save_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout closed early (e.g. piped through `head`); not an error.
        sys.exit(0)
