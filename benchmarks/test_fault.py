"""Fault-tolerance bench: recovery overhead and bitwise replay.

The ISSUE-9 acceptance benchmark, three claims in one artifact:

* a mid-``matmat`` rank failure recovered onto the ``N - 1`` survivors
  returns **bitwise-identical** results (pairwise reduction), replaying
  at most the one lost chunk — recovery overhead **<= 25%** of the
  apply's work (one chunk of at least four),
* block CG resumed from its latest checkpoint replays only the
  remaining iterations — bitwise equal to the uninterrupted solve while
  skipping the majority of the work,
* the Young/Daly model prices the same story at fleet scale
  (``recovery_cost_model``).

Emits ``BENCH_fault.json`` so CI's chaos smoke step can assert the
bitwise guarantee and the overhead bound at tiny sizes
(``REPRO_BENCH_TINY=1``).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.comm.fault import FailureSchedule
from repro.core.elastic import ElasticEngine
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.comm.grid import ProcessGrid
from repro.inverse.cg import BlockCGState, block_conjugate_gradient
from repro.perf.phase_model import recovery_cost_model
from repro.util.checkpoint import CheckpointStore, state_fingerprint

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
NT, ND, NM = (16, 8, 48) if TINY else (32, 16, 192)
K, MBK = 16, 2  # 8 chunks: one replayed chunk is 12.5% of the work
RANKS = 4

# Replayed-work bound (the deterministic claim): one lost chunk out of
# eight.  The measured wall also pays the grid rebuild, which at bench
# sizes is comparable to a chunk apply — so the wall bound is looser,
# and looser again at TINY where rebuild cost dominates everything; it
# is recorded next to the measured overhead, not asserted.
WORK_OVERHEAD_BOUND = 0.25
WALL_OVERHEAD_BOUND = 1.5 if TINY else 1.0

ARTIFACT = Path(__file__).parent / "BENCH_fault.json"


def make_problem():
    rng = np.random.default_rng(909)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
    block = rng.standard_normal((NT, NM, K))
    return matrix, block


class TestFaultBench:
    def test_recovery_overhead_with_artifact(self):
        matrix, block = make_problem()

        # Ground truth: the plain 2x2 pairwise grid, no elastic layer.
        ref = ParallelFFTMatvec(
            matrix, ProcessGrid(2, 2), reduction="pairwise"
        ).matmat(block)

        t0 = time.perf_counter()
        baseline = ElasticEngine(matrix, RANKS, max_block_k=MBK)
        out_base = baseline.matmat(block)
        t_base = time.perf_counter() - t0

        t0 = time.perf_counter()
        faulty = ElasticEngine(
            matrix,
            RANKS,
            max_block_k=MBK,
            failures=FailureSchedule(kills=[(11, 2)]),
        )
        out_fault = faulty.matmat(block)
        t_fault = time.perf_counter() - t0

        assert np.array_equal(out_base, ref)
        assert np.array_equal(out_fault, ref), "recovered result not bitwise"
        assert faulty.report.failures == 1
        assert faulty.n_ranks == RANKS - 1

        n_chunks = -(-K // MBK)
        work_overhead = faulty.report.chunks_replayed / n_chunks
        wall_overhead = t_fault / t_base - 1.0
        assert 0.0 < work_overhead <= WORK_OVERHEAD_BOUND
        # Reported against its bound in the artifact, not gated: one wall
        # over another on a shared runner (ROADMAP 1(a)); the work
        # overhead above is the deterministic form of the same claim.
        assert t_fault > 0 and t_base > 0

        # CG resume: lose the solve after ~2/3 of its iterations, resume
        # from the store, and pay only the remaining third.
        rng = np.random.default_rng(910)
        A = rng.standard_normal((NM, NM))
        A = A @ A.T + NM * np.eye(NM)
        rhs = rng.standard_normal((NM, 4))
        op = lambda X: A @ X  # noqa: E731 - bench-local operator

        t0 = time.perf_counter()
        states = []
        full = block_conjugate_gradient(
            op, rhs, tol=1e-10, checkpoint_every=1, checkpoint=states.append
        )
        t_full = time.perf_counter() - t0
        assert full.all_converged

        store = CheckpointStore()
        fp = state_fingerprint(A, rhs, 1e-10)
        cut = states[(2 * len(states)) // 3]
        store.save("bcg", cut.to_arrays(), fingerprint=fp, step=cut.iteration)
        t0 = time.perf_counter()
        restored = BlockCGState.from_arrays(
            store.load("bcg", expect_fingerprint=fp).arrays
        )
        resumed = block_conjugate_gradient(op, rhs, tol=1e-10, resume=restored)
        t_resume = time.perf_counter() - t0
        assert np.array_equal(resumed.X, full.X), "resumed CG not bitwise"
        iters_saved = cut.iteration / full.iterations
        assert iters_saved > 0.5  # the cut skipped most of the work

        # Fleet-scale pricing of the same mechanics.
        year = 365.0 * 24 * 3600.0
        model = recovery_cost_model(
            3600.0, year / 512, checkpoint_s=0.5, restart_s=5.0
        )

        print(
            f"\nelastic {RANKS}->{faulty.n_ranks} ranks: "
            f"{faulty.report.chunks_replayed}/{n_chunks} chunks replayed "
            f"({work_overhead * 100:.1f}% work, wall {t_base * 1e3:.1f} -> "
            f"{t_fault * 1e3:.1f} ms); CG resume at iter {cut.iteration}/"
            f"{full.iterations} saved {iters_saved * 100:.0f}% of "
            f"iterations; modeled 512-GPU slowdown {model['slowdown']:.4f}"
        )

        ARTIFACT.write_text(json.dumps({
            "bench": "fault",
            "tiny": TINY,
            "shape": {"nt": NT, "nd": ND, "nm": NM, "k": K, "max_block_k": MBK},
            "ranks_before": RANKS,
            "ranks_after": faulty.n_ranks,
            "failures_injected": faulty.report.failures,
            "chunks_total": n_chunks,
            "chunks_replayed": faulty.report.chunks_replayed,
            "recovery_overhead_fraction": work_overhead,
            "recovery_overhead_bound": WORK_OVERHEAD_BOUND,
            "wall_baseline_s": t_base,
            "wall_with_failure_s": t_fault,
            "wall_overhead_fraction": wall_overhead,
            "wall_overhead_bound": WALL_OVERHEAD_BOUND,
            "recovered_bitwise": True,
            "cg_iterations": full.iterations,
            "cg_resume_iteration": cut.iteration,
            "cg_resume_bitwise": True,
            "cg_wall_full_s": t_full,
            "cg_wall_resume_s": t_resume,
            "modeled_slowdown_512gpu": model["slowdown"],
        }, indent=2) + "\n")
        data = json.loads(ARTIFACT.read_text())
        assert data["recovered_bitwise"] and data["cg_resume_bitwise"]
        assert (
            data["recovery_overhead_fraction"]
            <= data["recovery_overhead_bound"]
        )
