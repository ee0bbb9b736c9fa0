"""Serving benchmark driver: Poisson arrivals, coalesced vs serve-one.

Shared by ``benchmarks/test_serving.py`` (which writes
``BENCH_serving.json``) and the CLI ``--serve-bench`` mode, so both
report the same experiment: a stream of per-tenant matvec / rmatvec /
solve requests with exponential inter-arrival gaps is driven through
two :class:`~repro.serve.service.SolverService` instances over
identical request traces —

* **coalesced** — the real service (``max_block_k > 1``): applies on
  one operator that are queued when the engine frees share a blocked
  deterministic pipeline pass, and queued solves run as one block CG
  (one blocked Hessian pass per iteration for all k systems);
* **serve-one** — the same service with ``max_block_k=1``: every
  request pays a full five-phase pass (every solve its own CG), same
  asyncio/executor overhead.

Each run reports wall-clock throughput (completed requests/s), latency
percentiles (p50/p99 from submit to result) and where the median went
(submit to pass start, and the pass), mean flush width, and two
correctness gates: every coalesced matvec/rmatvec result is compared
**bitwise** against a sequential reference engine apply (coalescing
applies must be invisible), and every solve's normal-equations relative
residual must meet the CG tolerance (block CG is
tolerance-equivalent, not bitwise — see ``docs/SERVING.md``).  The
cache section records the byte budget, the allocator peak and whether
the budget held (it always does: the allocator refuses over-budget
admission by construction).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.matvec import FFTMatvec
from repro.core.operator import (
    ForwardOperator,
    GaussNewtonHessian,
    IdentityOperator,
)
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.serve.cache import EngineCache
from repro.serve.service import LatencyHistogram, SolveOptions, SolverService

__all__ = ["run_serving_benchmark"]


def _make_trace(
    rng: np.random.Generator,
    n_requests: int,
    rate: float,
    nt: int,
    nd: int,
    nm: int,
    tenants: int,
    adjoint_fraction: float,
    solve_fraction: float,
) -> List[Tuple[str, str, np.ndarray, float]]:
    """One arrival trace: (kind, tenant, payload, gap-before) per request.

    Arrival gaps are exponential (Poisson process); the request *kinds*
    follow the exact configured fractions via an evenly spread
    deterministic schedule, so the work content of a trace — and with
    it the measured speedup — does not jitter with the seed.
    """
    trace = []
    n_solve = int(round(solve_fraction * n_requests))
    n_adj = int(round(adjoint_fraction * (n_requests - n_solve)))
    kinds = []
    solve_acc = adj_acc = 0.0
    for i in range(n_requests):
        solve_acc += n_solve / max(1, n_requests)
        if solve_acc >= 1.0:
            solve_acc -= 1.0
            kinds.append("solve")
            continue
        adj_acc += n_adj / max(1, n_requests - n_solve)
        if adj_acc >= 1.0:
            adj_acc -= 1.0
            kinds.append("rmatvec")
        else:
            kinds.append("matvec")
    for i, kind in enumerate(kinds):
        payload = rng.standard_normal((nt, nm) if kind == "matvec" else (nt, nd))
        gap = float(rng.exponential(1.0 / rate))
        trace.append((kind, f"tenant{i % tenants}", payload, gap))
    return trace


async def _drive(
    service: SolverService,
    handle: str,
    trace: List[Tuple[str, str, np.ndarray, float]],
    config: str,
) -> Tuple[List[Optional[np.ndarray]], float]:
    """Submit the trace with its Poisson gaps; return results and wall."""
    results: List[Optional[np.ndarray]] = [None] * len(trace)

    ops = {
        "matvec": service.matvec,
        "rmatvec": service.rmatvec,
        "solve": service.solve,
    }

    async def one(i: int, kind: str, tenant: str, payload: np.ndarray) -> None:
        results[i] = await ops[kind](handle, payload, config=config, tenant=tenant)

    # Absolute-deadline pacing: sleeping per-gap would add ~1 ms of
    # scheduler overhead per request and silently cap the offered load
    # near 1 krps regardless of the nominal rate.  Cumulative deadlines
    # let late submissions catch up instead of pushing everything later.
    deadline = 0.0
    t0 = time.perf_counter()
    tasks = []
    loop = asyncio.get_running_loop()
    for i, (kind, tenant, payload, gap) in enumerate(trace):
        deadline += gap
        wait = t0 + deadline - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        tasks.append(loop.create_task(one(i, kind, tenant, payload)))
    await asyncio.gather(*tasks)
    await service.drain()
    wall = time.perf_counter() - t0
    return results, wall


def _run_one(
    matrix: BlockTriangularToeplitz,
    trace: List[Tuple[str, str, np.ndarray, float]],
    config: str,
    max_block_k: int,
    budget_bytes: int,
) -> Tuple[Dict[str, object], List[Optional[np.ndarray]], EngineCache]:
    """Drive one service instance over the trace; summarize its stats."""
    cache = EngineCache(budget_bytes)
    service = SolverService(
        cache,
        max_block_k=max_block_k,
        max_pending=len(trace) + 1,
        deterministic=True,
    )
    handle = service.register(matrix)

    async def main() -> Tuple[List[Optional[np.ndarray]], float]:
        async with service:
            return await _drive(service, handle, trace, config)

    results, wall = asyncio.run(main())
    stats = service.stats()
    latency, queue_wait, in_pass = (
        hists.get("all", LatencyHistogram())
        for hists in (stats.latency, stats.queue_wait, stats.exec)
    )
    summary: Dict[str, object] = {
        "completed": stats.completed,
        "throughput_rps": stats.completed / wall if wall > 0 else float("nan"),
        "wall_s": wall,
        "p50_ms": latency.percentile(50) * 1e3,
        "p99_ms": latency.percentile(99) * 1e3,
        "queue_wait_p50_ms": queue_wait.percentile(50) * 1e3,
        "exec_p50_ms": in_pass.percentile(50) * 1e3,
        "engine_passes": stats.flushes,
        "mean_batch": stats.mean_batch,
        "max_batch": stats.max_batch,
        "coalesced_requests": stats.coalesced_requests,
        "rejected": stats.rejected_overload + stats.rejected_tenant,
    }
    return summary, results, cache


def run_serving_benchmark(
    nt: int = 64,
    nd: int = 24,
    nm: int = 96,
    rates: Sequence[float] = (50.0, 2000.0),
    n_requests: int = 240,
    tenants: int = 4,
    max_block_k: int = 16,
    budget_mb: float = 128.0,
    adjoint_fraction: float = 0.5,
    solve_fraction: float = 0.2,
    config: str = "ddddd",
    seed: int = 0,
    check_results: bool = True,
    reps: int = 3,
) -> Dict[str, object]:
    """Run the coalesced-vs-serve-one comparison; return the artifact dict.

    For every arrival rate, one Poisson trace of ``n_requests``
    matvec/rmatvec/solve requests across ``tenants`` tenants is
    replayed through a coalescing service and a ``max_block_k=1``
    baseline (fresh engine cache each, ``budget_mb`` megabytes).
    ``solve_fraction`` of the requests are regularized least-squares
    solves; the remaining applies split ``adjoint_fraction`` to
    rmatvec.  Each side replays the trace ``reps`` times and reports
    its best run (the usual best-of-reps timing discipline — applied
    to *both* sides, so the ratio measures coalescing, not scheduler
    noise).  With ``check_results`` every coalesced apply is compared
    bitwise (``np.array_equal``) against a sequential apply on an
    independent reference engine, and every solve's normal-equations
    relative residual is checked against the CG tolerance.  The
    returned dict is the ``BENCH_serving.json`` schema documented in
    ``docs/BENCHMARKS.md``.
    """
    rng = np.random.default_rng(seed)
    matrix = BlockTriangularToeplitz.random(nt, nd, nm, rng=rng, decay=0.02)
    budget_bytes = int(budget_mb * 2**20)
    reps = max(1, int(reps))

    reference: Optional[FFTMatvec] = (
        FFTMatvec(matrix, workspace=True) if check_results else None
    )

    def best_of(trace, k):
        best = None
        for _ in range(reps):
            summary, results, cache = _run_one(
                matrix, trace, config, k, budget_bytes
            )
            if best is None or summary["throughput_rps"] > best[0]["throughput_rps"]:
                best = (summary, results, cache)
        assert best is not None
        return best

    rate_rows: List[Dict[str, object]] = []
    cache_stats = None
    for rate in rates:
        trace = _make_trace(
            rng,
            n_requests,
            float(rate),
            nt,
            nd,
            nm,
            tenants,
            adjoint_fraction,
            solve_fraction,
        )
        coalesced, c_results, c_cache = best_of(trace, max_block_k)
        serve_one, _s_results, _ = best_of(trace, 1)
        bitwise = None
        solves_ok = None
        max_rel_residual = None
        if reference is not None:
            bitwise, solves_ok, max_rel_residual = _check_results(
                reference, trace, c_results, config
            )
        coalesced["bitwise_identical"] = bitwise
        coalesced["solves_within_tol"] = solves_ok
        coalesced["max_solve_rel_residual"] = max_rel_residual
        thr_c = float(coalesced["throughput_rps"])  # type: ignore[arg-type]
        thr_s = float(serve_one["throughput_rps"])  # type: ignore[arg-type]
        rate_rows.append(
            {
                "rate_rps": float(rate),
                "n_requests": n_requests,
                "coalesced": coalesced,
                "serve_one": serve_one,
                "speedup": thr_c / thr_s if thr_s > 0 else float("nan"),
            }
        )
        cache_stats = c_cache.stats()

    assert cache_stats is not None
    return {
        "bench": "serving",
        "shape": {"nt": nt, "nd": nd, "nm": nm},
        "config": config,
        "tenants": tenants,
        "max_block_k": max_block_k,
        "adjoint_fraction": adjoint_fraction,
        "solve_fraction": solve_fraction,
        "seed": seed,
        "reps": reps,
        "rates": rate_rows,
        "cache": {
            "budget_bytes": cache_stats.budget_bytes,
            "peak_bytes": cache_stats.peak_bytes,
            "in_use_bytes": cache_stats.in_use_bytes,
            "evictions": cache_stats.evictions,
            "within_budget": cache_stats.peak_bytes <= cache_stats.budget_bytes,
        },
    }


def _check_results(
    reference: FFTMatvec,
    trace: List[Tuple[str, str, np.ndarray, float]],
    results: List[Optional[np.ndarray]],
    config: str,
) -> Tuple[bool, bool, float]:
    """Validate a coalesced run: applies bitwise, solves to tolerance."""
    opts = SolveOptions()
    hess = GaussNewtonHessian(
        ForwardOperator(reference, config=config),
        noise_std=opts.noise_std,
        reg=opts.ridge * IdentityOperator((reference.nt, reference.nm)),
    )
    inv_var = 1.0 / opts.noise_std**2
    bitwise = True
    solves_ok = True
    max_rel = 0.0
    for (kind, _tenant, payload, _gap), got in zip(trace, results):
        if got is None:
            bitwise = solves_ok = False
            continue
        if kind == "solve":
            rhs = reference.rmatvec(payload, config=config) * inv_var
            rel = float(
                np.linalg.norm(hess.apply(got) - rhs) / np.linalg.norm(rhs)
            )
            max_rel = max(max_rel, rel)
            # Block CG stops on the *unpreconditioned* recurrence
            # residual; allow a small slack over tol for the true one.
            if rel > 50.0 * opts.tol:
                solves_ok = False
        else:
            ref = (
                reference.matvec(payload, config=config)
                if kind == "matvec"
                else reference.rmatvec(payload, config=config)
            )
            if not np.array_equal(got, ref):
                bitwise = False
    return bitwise, solves_ok, max_rel
