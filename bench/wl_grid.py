"""Workloads ``grid_fast`` and ``grid_hardened``: the in-process 2x2 grid.

Same operator, same k = 16 block, same chunking (4 chunks of 4 columns):

* ``grid_fast`` — ``ParallelFFTMatvec`` with the fast reduction.  The
  chunk loop, ``SimCommunicator`` broadcast/reduce numerics and 16
  rank-engine launches per apply do the work; the pairwise and ABFT code
  is never entered.
* ``grid_hardened`` — ``ElasticEngine`` as the fault/SDC work left it by
  default (``reduction="pairwise"``) with ``validate="abft"``, and no
  fault injected: the clean-run tax of the armour.

An optimisation of the armour must show on ``grid_hardened`` and not on
``grid_fast``; one of the grid loop shows on both.
"""

from __future__ import annotations

import numpy as np

from repro.blas.gemm_kernels import pairwise_segment_values
from repro.blas.types import Operation
from repro.comm.collectives import fixed_tree_reduce_segments
from repro.comm.grid import ProcessGrid
from repro.comm.netmodel import FRONTIER_NETWORK, SIMPLE_NETWORK
from repro.comm.simcomm import SimCommunicator
from repro.core.elastic import ElasticEngine
from repro.core.matvec import FFTMatvec
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.gpu.device import SimulatedDevice
from repro.util import checksum
from repro.util.workspace import Workspace

import harness
from harness import Result, alternate, median, ms, repeated_setup
from replay import BACK_SPANS, CAST_SPAN
from spans import SpanRecorder
from wl_apply import (
    K, SMOKE_K, checkout_round_us, make_inputs, pair_rates, phase_seconds,
    reference_gates, replay_layers,
)

SHAPE = (128, 24, 384)
SMOKE_SHAPE = (16, 6, 20)
GRID = (2, 2)
MAX_BLOCK_K = 4
SMOKE_MAX_BLOCK_K = 2
SPEC = "MI300X"
CONFIG = "ddddd"
TOL = 1e-12


def build_engine(name: str, matrix, max_block_k: int):
    if name == "grid_fast":
        return ParallelFFTMatvec(
            matrix, ProcessGrid(*GRID, net=FRONTIER_NETWORK), spec=SPEC,
            workspace=True, max_block_k=max_block_k, reduction="fast",
        )
    return ElasticEngine(
        matrix, n_ranks=GRID[0] * GRID[1], max_block_k=max_block_k, workspace=True,
        validate="abft",
    )


def grid_engine(engine) -> ParallelFFTMatvec:
    return engine.engine if isinstance(engine, ElasticEngine) else engine


def arenas(engine):
    grid = grid_engine(engine)
    return [e.workspace for e in grid.engines.values()] + [grid.workspace]


def p50_of(rec: SpanRecorder, span: str, fn, repeats: int = 15) -> float:
    """Median seconds of ``fn()`` over ``repeats`` calls, recorded as spans."""
    for _ in range(repeats):
        with rec.span(span):
            fn()
    return median(rec.durations(span)[-repeats:])


def comm_replay(rec, hardened: bool, nt: int, n_bcast: int, n_reduce: int, kc: int):
    """Seconds of one broadcast and one (fast-path) reduce of a chunk's
    payloads on a two-rank communicator like the grid's row/column ones.

    Payload values are irrelevant to the time, so random blocks of the
    right shape and dtype stand in.  The pairwise path reduces
    frequency-domain segment tables instead (:func:`hardened_layers`).
    """
    comm = SimCommunicator(2, net=SIMPLE_NETWORK if hardened else FRONTIER_NETWORK, name="replay")
    comm.verify_payloads = hardened  # validate= arms receive-side digests
    ws = Workspace(name="replay")
    rng = np.random.default_rng(0)
    payload = rng.standard_normal((nt, n_bcast, kc))
    bcast_s = p50_of(
        rec, "comm.simcomm.bcast",
        lambda: comm.bcast(payload, root=0, phase="pad", workspace=ws, tag="recv"),
    )
    if hardened:
        return bcast_s, 0.0
    partials = [rng.standard_normal((nt, n_reduce, kc)) for _ in range(2)]
    reduce_s = p50_of(
        rec, "comm.simcomm.reduce",
        lambda: comm.reduce(partials, root=0, phase="unpad"),
    )
    return bcast_s, reduce_s


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    hardened = name == "grid_hardened"
    shape, k, mbk = (
        (SMOKE_SHAPE, SMOKE_K, SMOKE_MAX_BLOCK_K) if smoke else (SHAPE, K, MAX_BLOCK_K)
    )
    nt, nd, nm = shape
    chunks = -(-k // mbk)
    result = Result(name, trace)
    blocks, M, D, column = make_inputs(seed, shape, k)
    FM, FtD = np.empty((nt, nd, k)), np.empty((nt, nm, k))

    def build():
        engine = build_engine(name, BlockTriangularToeplitz(blocks), mbk)
        engine.matmat(M, out=FM)
        engine.rmatmat(D, out=FtD)
        return engine

    ref = harness.HostReference()
    engine, setup_s, setup_cold_s = repeated_setup(build, ref, warm=1 if trace else 5)
    grid = grid_engine(engine)
    allocs_before = sum(ws.alloc_count for ws in arenas(engine))
    checks_before = sum(e.sdc_checks for e in grid.engines.values())

    window = seconds * 0.25 if trace else seconds
    mark = len(ref.samples)
    f, a = alternate(
        window, lambda: engine.matmat(M, out=FM), lambda: engine.rmatmat(D, out=FtD), ref
    )
    rss = harness.peak_rss_mb()
    result.attempted = len(f) + len(a)
    harness.put_end_to_end(result, setup_s, f, a, pair_rates(f, a, k), ref.factor(mark))
    result.put("peak_rss_mb", rss)

    # -- gates -------------------------------------------------------------------
    matrix = grid.matrix
    rel_err = reference_gates(result, matrix, M, D, FM, FtD, column, TOL)
    # The single-device reference runs the grid's column chunks too: the
    # pairwise kernel at k = 16 holds every leaf product at once (14 s
    # and 1 GB here), and columns do not interact in either reduction.
    single = FFTMatvec(
        matrix, workspace=True, reduction="pairwise" if hardened else "fast"
    )
    sFM, sFtD = np.empty_like(FM), np.empty_like(FtD)
    for c in range(0, k, mbk):
        sFM[:, :, c:c + mbk] = single.matmat(np.ascontiguousarray(M[:, :, c:c + mbk]))
        sFtD[:, :, c:c + mbk] = single.rmatmat(np.ascontiguousarray(D[:, :, c:c + mbk]))
    if hardened:
        # Bitwise the single-device pairwise engine, and a clean run
        # tripped no detector and replayed nothing.
        result.gates.check(
            "bitwise_vs_single_pairwise",
            np.array_equal(FM, sFM) and np.array_equal(FtD, sFtD),
        )
        report = engine.report
        result.gates.check(
            "no_detections_no_recovery",
            report.corruptions == 0 and report.failures == 0
            and report.chunks_recomputed == 0 and report.chunks_replayed == 0,
        )
    else:
        gap = max(
            float(np.linalg.norm(FM - sFM) / np.linalg.norm(sFM)),
            float(np.linalg.norm(FtD - sFtD) / np.linalg.norm(sFtD)),
        )
        result.gates.check("vs_single_device", gap <= TOL, gap)
    if not trace:
        return result

    # -- per-layer -----------------------------------------------------------------
    rec = SpanRecorder()
    applies = len(f) + len(a)
    result.put("bench.setup_cold_s", setup_cold_s)
    result.put("core.matvec.rel_err", rel_err)
    result.put(
        "util.workspace.steady_allocs",
        sum(ws.alloc_count for ws in arenas(engine)) - allocs_before,
    )
    result.put("util.workspace.arena_mb", sum(ws.nbytes for ws in arenas(engine)) / 1e6)
    result.put("core.parallel.chunks_per_apply", chunks)
    result.put(
        "util.checksum.checks_passed",
        (sum(e.sdc_checks for e in grid.engines.values()) - checks_before) / applies,
    )
    if hardened:
        result.put("util.checksum.false_positives", engine.report.corruptions)
        result.put("core.elastic.chunks_recomputed", engine.report.chunks_recomputed)
        result.put("core.elastic.failures", engine.report.failures)

    # Collective counts and bytes of one F and one F* from the timed
    # communicators' own counters; each stands for every row (column)
    # communicator of its axis, which all carry the same traffic.
    pr, pc = GRID
    col, row = grid.grid.col_comm(0), grid.grid.row_comm(0)
    col.reset_op_counts(), row.reset_op_counts()
    engine.matmat(M, out=FM), engine.rmatmat(D, out=FtD)
    bcasts = col.op_counts["bcast"] * pc + row.op_counts["bcast"] * pr
    reduces = row.op_counts["reduce"] * pr + col.op_counts["reduce"] * pc
    moved = col.bytes_communicated * pc + row.bytes_communicated * pr
    result.put("comm.simcomm.bcasts_per_apply", bcasts / 2)
    result.put("comm.simcomm.reduces_per_apply", reduces / 2)
    result.put("comm.simcomm.bytes_per_apply", moved / 2)

    # The twin of the grid apply that the elastic layer wraps, timed in
    # the same interleaved window as the engine itself.
    twin = engine
    if hardened:
        twin = ParallelFFTMatvec(
            matrix, ProcessGrid(*GRID, net=SIMPLE_NETWORK), workspace=True,
            max_block_k=mbk, reduction="pairwise", validate="abft",
        )
        twin.matmat(M, out=FM), twin.rmatmat(D, out=FtD)
    plain = FFTMatvec(matrix, workspace=True)
    plain.matmat(M, out=FM), plain.rmatmat(D, out=FtD)

    timed_engines = [("engine", engine), ("single", plain)]
    if hardened:
        timed_engines.append(("core.parallel.apply", twin))

    def interleaved():
        rec.op += 1
        for tag, eng in timed_engines:
            with rec.span(tag + "@F"):
                eng.matmat(M, out=FM)
            with rec.span(tag + "@F*"):
                eng.rmatmat(D, out=FtD)

    harness.timed_loop(seconds * 0.3, interleaved)

    def both(span: str) -> float:
        return 0.5 * (rec.p50(span + "@F") + rec.p50(span + "@F*"))

    engine_s = both("engine")
    grid_s = both("core.parallel.apply") if hardened else engine_s
    result.put("core.parallel.vs_single_ratio", engine_s / both("single"))
    result.put("core.elastic.self_ms", ms(engine_s - grid_s) if hardened else 0.0)
    result.put("bench.trace_overhead_frac", engine_s / (0.5 * (median(f) + median(a))) - 1.0)

    # One rank's share of one chunk, phase by phase, on a twin engine
    # shaped like rank (0, 0).  The balanced 2x2 split gives every rank
    # the same shape, so one twin stands for all four.
    (r0, r1), (c0, c1) = grid.row_ranges[0], grid.col_ranges[0]
    if len({e - s for s, e in grid.row_ranges}) != 1 or len({e - s for s, e in grid.col_ranges}) != 1:
        raise RuntimeError("rank replay assumes equal-shaped ranks")
    local = BlockTriangularToeplitz(matrix.blocks[:, r0:r1, c0:c1])
    rank = (
        FFTMatvec(local, workspace=True, reduction="pairwise", validate="abft")
        if hardened
        else FFTMatvec(local, device=SimulatedDevice(SPEC), workspace=True)
    )
    Mr = np.ascontiguousarray(M[:, c0:c1, :mbk])
    Dr = np.ascontiguousarray(D[:, r0:r1, :mbk])
    FMr, FtDr = np.empty((nt, r1 - r0, mbk)), np.empty((nt, c1 - c0, mbk))
    rank.matmat(Mr, out=FMr), rank.rmatmat(Dr, out=FtDr)
    rank_s = replay_layers(result, rec, rank, CONFIG, Mr, Dr, FMr, FtDr, seconds * 0.25)
    result.put(
        "util.workspace.checkout_us",
        checkout_round_us(rank.workspace, "pad", ((c1 - c0) * mbk, 2 * nt), np.float64),
    )

    n_ranks = pr * pc
    if hardened:
        ranks_total, rank_max, comm_total = hardened_layers(
            result, rec, rank, nt, r1 - r0, c1 - c0, mbk, chunks
        )
    else:
        # Fast path: every rank runs the whole five-phase pipeline per chunk.
        ranks_total = chunks * n_ranks * rank_s
        rank_max = chunks * rank_s
        b_f, r_f = comm_replay(rec, False, nt, c1 - c0, r1 - r0, mbk)
        b_a, r_a = comm_replay(rec, False, nt, r1 - r0, c1 - c0, mbk)
        bcast_s = 0.5 * chunks * (pc * b_f + pr * b_a)
        reduce_s = 0.5 * chunks * (pr * r_f + pc * r_a)
        result.put("comm.simcomm.bcast_ms", ms(bcast_s))
        result.put("comm.simcomm.reduce_ms", ms(reduce_s))
        comm_total = bcast_s + reduce_s
    result.put("core.parallel.ranks_total_ms", ms(ranks_total))
    result.put("core.parallel.rank_compute_ms", ms(rank_max))
    result.put("core.parallel.self_ms", ms(grid_s - ranks_total - comm_total))

    # Modeled wall of the same applies (sim clock of a spec'd grid).
    modeled_grid = twin
    if hardened:
        modeled_grid = ParallelFFTMatvec(
            matrix, ProcessGrid(*GRID, net=FRONTIER_NETWORK), spec=SPEC, workspace=True,
            max_block_k=mbk, reduction="pairwise", validate="abft",
        )
    modeled_grid.matmat(M, out=FM)
    modeled = modeled_grid.last_timing.wall
    modeled_grid.rmatmat(D, out=FtD)
    modeled = 0.5 * (modeled + modeled_grid.last_timing.wall)
    result.put("core.parallel.modeled_ms", ms(modeled))
    result.put("core.parallel.model_ratio", grid_s / modeled)
    rec.write_chrome_trace(harness.OUT_DIR / f"trace_{name}.json")
    return result


def hardened_layers(result, rec, rank, nt, nd_r, nm_c, kc, chunks):
    """Pairwise/ABFT layers of one grid apply, from rank-shaped replays.

    On the pairwise path every rank runs the *front* half (pad, FFT,
    reorder, Phase 3, checks) and only the root of each output part runs
    the *back* half, once, after the frequency-domain segment reduce.
    Returns (sum of rank compute, slowest rank's compute, collective
    time) in seconds per grid apply, averaged over F and F*.
    """
    pr, pc = GRID
    be = rank.backend
    rng = np.random.default_rng(0)
    fhat = rank.spectrum("d")
    ranks = rank_max = merge = digest = bcast = reduce = 0.0
    for adjoint, direction in ((False, "@F"), (True, "@F*")):
        phases = phase_seconds(rec, direction)
        back = sum(phases[span] for span in BACK_SPANS)
        front = sum(phases.values()) - phases[CAST_SPAN] - back
        n_in, n_out = (pr, pc) if adjoint else (pc, pr)
        nx = nd_r if adjoint else nm_c
        # Segment tables of the two ranks that feed one output part
        # (values are irrelevant to the time; shapes and keys are exact).
        panel = (
            rng.standard_normal((rank.n_freq, nx, kc))
            + 1j * rng.standard_normal((rank.n_freq, nx, kc))
        )
        op = Operation.C if adjoint else Operation.N
        a_conj = rank.spectrum_conj("d") if adjoint else None
        tables = [
            pairwise_segment_values(
                fhat, panel, op, start, 2 * nx, a_conj=a_conj, backend=be
            )
            for start in (0, nx)
        ]
        comm = SimCommunicator(2, net=SIMPLE_NETWORK, name="replay")
        comm.verify_payloads = True
        reduce_s = p50_of(
            rec, "comm.simcomm.reduce_segments" + direction,
            lambda: comm.reduce_segments(tables, 2 * nx, root=0, phase="unpad", backend=be),
            7,
        )
        merged = {**tables[0], **tables[1]}
        merge_s = p50_of(
            rec, "util.pairwise.merge" + direction,
            lambda: fixed_tree_reduce_segments(merged, 2 * nx, backend=be), 7,
        )
        payload = rng.standard_normal((nt, nx, kc))

        def digests():
            for table in tables:
                checksum.verify_table(
                    table, checksum.table_digest(table), op="reduce", phase="unpad"
                )

        def payload_digests():
            sent = checksum.payload_digest(payload)
            for _ in range(2):
                checksum.verify_payload(payload, sent, op="bcast", phase="pad")

        table_s = p50_of(rec, "util.checksum.table_digest" + direction, digests, 7)
        payload_s = p50_of(rec, "util.checksum.payload_digest" + direction, payload_digests, 7)
        bcast_s, _ = comm_replay(rec, True, nt, nx, 0, kc)
        ranks += 0.5 * chunks * (pr * pc * front + n_out * back)
        rank_max += 0.5 * chunks * (front + back)
        merge += 0.5 * chunks * n_out * merge_s
        digest += 0.5 * chunks * (n_out * table_s + n_in * payload_s)
        bcast += 0.5 * chunks * n_in * bcast_s
        reduce += 0.5 * chunks * n_out * reduce_s
    result.put("util.pairwise.merge_ms", ms(merge))
    result.put("util.checksum.digest_ms", ms(digest))
    result.put("comm.simcomm.bcast_ms", ms(bcast))
    result.put("comm.simcomm.reduce_ms", ms(reduce))
    return ranks, rank_max, bcast + reduce
