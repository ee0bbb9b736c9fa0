"""Silent-data-corruption bench: detection campaign and modeled overhead.

The ISSUE-10 acceptance benchmark, four claims in one artifact:

* a seeded **bit-flip campaign** over device buffers and collective
  payloads is detected at **100%** — every injected exponent flip
  surfaces as a typed ``SilentCorruption`` and is repaired by
  recomputing only the corrupted chunk,
* a clean run with every check armed raises **zero** detections
  (no false positives) and is **bitwise-identical** to the unchecked
  pairwise run — verification only reads,
* every repaired run is **bitwise-identical** to the clean result with
  **zero grid rebuilds** (the flip lives in a transient buffer, so the
  chunk recompute fully absorbs it),
* the modeled checksum tax (ABFT column checksums + Parseval energy,
  :func:`~repro.perf.phase_model.checksum_overhead_model`) stays under
  **15%** of the blocked apply at the paper's per-GPU extents.

Emits ``BENCH_sdc.json`` and asserts the detection rate and the
overhead bound on what it wrote, at full size and at tiny sizes
(``REPRO_BENCH_TINY=1``).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.comm.fault import CorruptionSchedule
from repro.comm.grid import ProcessGrid
from repro.core.elastic import ElasticEngine
from repro.core.parallel import ParallelFFTMatvec
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.perf.scaling import scaling_sweep

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
NT, ND, NM = (16, 8, 48) if TINY else (32, 16, 192)
K, MBK = 16, 2  # 8 chunks: recomputing one is 12.5% of the work
RANKS = 4
N_TRIALS = 8 if TINY else 16

# The ISSUE bound: modeled ABFT + Parseval cost on the blocked apply at
# the paper's per-GPU extents (5000 columns/GCD, Figure-4 scale).  The
# bench-execution shape above is far smaller than a production panel,
# so its modeled fraction is reported but not bounded.
OVERHEAD_BOUND = 0.15

ARTIFACT = Path(__file__).parent / "BENCH_sdc.json"


def make_problem():
    rng = np.random.default_rng(909)
    matrix = BlockTriangularToeplitz.random(NT, ND, NM, rng=rng, decay=0.05)
    block = rng.standard_normal((NT, NM, K))
    return matrix, block


class TestSDCBench:
    def test_detection_campaign_with_artifact(self):
        matrix, block = make_problem()

        # Ground truth: the plain 2x2 pairwise grid, no checks at all.
        ref = ParallelFFTMatvec(
            matrix, ProcessGrid(2, 2), reduction="pairwise"
        ).matmat(block)

        t0 = time.perf_counter()
        plain = ElasticEngine(matrix, RANKS, reduction="pairwise", max_block_k=MBK)
        out_plain = plain.matmat(block)
        t_plain = time.perf_counter() - t0
        assert np.array_equal(out_plain, ref)

        # Armed clean run: the no-false-positive claim.  The probe
        # schedule injects nothing but counts every corruptible event,
        # which doubles as the campaign's event horizon.
        probe = CorruptionSchedule()
        t0 = time.perf_counter()
        armed = ElasticEngine(
            matrix, RANKS, reduction="pairwise", max_block_k=MBK, corruptions=probe
        )
        out_armed = armed.matmat(block)
        t_armed = time.perf_counter() - t0
        clean_bitwise = bool(np.array_equal(out_armed, ref))
        assert clean_bitwise, "armed clean run not bitwise"
        false_positives = armed.report.corruptions
        assert false_positives == 0
        horizon = probe.calls
        assert horizon > 0

        # The campaign: one seeded exponent flip per trial, anywhere in
        # the event stream (FFT/SBGEMM/IFFT device buffers, bcast and
        # reduce payloads), on any rank.
        detected = 0
        injected = 0
        recompute_bitwise = True
        chunks_recomputed = 0
        rebuilds = 0
        t0 = time.perf_counter()
        for trial in range(N_TRIALS):
            sched = CorruptionSchedule.seeded(
                1000 + trial, RANKS, n_flips=1, horizon=horizon
            )
            eng = ElasticEngine(
                matrix, RANKS, reduction="pairwise", max_block_k=MBK, corruptions=sched
            )
            out = eng.matmat(block)
            injected += len(sched.injected)
            if eng.report.corruptions >= 1:
                detected += 1
            recompute_bitwise &= bool(np.array_equal(out, ref))
            chunks_recomputed += eng.report.chunks_recomputed
            rebuilds += eng.report.rebuilds
        t_campaign = time.perf_counter() - t0

        assert injected == N_TRIALS, "a trial failed to inject its flip"
        detection_rate = detected / N_TRIALS
        assert detection_rate == 1.0, f"missed {N_TRIALS - detected} flips"
        assert recompute_bitwise, "a repaired run was not bitwise"
        assert chunks_recomputed >= N_TRIALS
        assert rebuilds == 0, "SDC repair must not rebuild the grid"

        # Modeled checksum tax at the paper's Figure-4 extents (the
        # ISSUE bound) and, informationally, at the bench shape.
        (point,) = scaling_sweep(gpu_counts=(512,), checksums=True)
        overhead_paper = point.checksum_overhead
        coverage_paper = point.sdc_coverage
        assert 0.0 < overhead_paper <= OVERHEAD_BOUND

        print(
            f"\nsdc campaign: {detected}/{N_TRIALS} flips detected over a "
            f"{horizon}-event horizon ({chunks_recomputed} chunk "
            f"recomputes, {rebuilds} rebuilds, bitwise={recompute_bitwise}); "
            f"armed clean apply {t_plain * 1e3:.1f} -> {t_armed * 1e3:.1f} "
            f"ms; modeled paper-scale checksum tax "
            f"{overhead_paper * 100:.2f}% covering "
            f"{coverage_paper * 100:.1f}% of the apply"
        )

        ARTIFACT.write_text(json.dumps({
            "bench": "sdc",
            "tiny": TINY,
            "shape": {"nt": NT, "nd": ND, "nm": NM, "k": K, "max_block_k": MBK},
            "ranks": RANKS,
            "trials": N_TRIALS,
            "event_horizon": horizon,
            "flips_injected": injected,
            "flips_detected": detected,
            "detection_rate": detection_rate,
            "false_positives": false_positives,
            "clean_bitwise_identical": clean_bitwise,
            "recompute_bitwise_identical": recompute_bitwise,
            "chunks_recomputed": chunks_recomputed,
            "rebuilds": rebuilds,
            "wall_plain_s": t_plain,
            "wall_armed_clean_s": t_armed,
            "wall_campaign_s": t_campaign,
            "checksum_overhead_fraction": overhead_paper,
            "checksum_overhead_bound": OVERHEAD_BOUND,
            "coverage": coverage_paper,
            "paper_scale_gpus": point.p,
        }, indent=2) + "\n")
        data = json.loads(ARTIFACT.read_text())
        assert data["detection_rate"] == 1.0, data
        assert data["false_positives"] == 0, data
        assert data["clean_bitwise_identical"], data
        assert data["recompute_bitwise_identical"], data
        assert data["rebuilds"] == 0, data
        assert data["checksum_overhead_fraction"] <= data["checksum_overhead_bound"], data
