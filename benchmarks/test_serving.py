"""Serving bench: cross-request coalescing vs serve-one under load.

The acceptance benchmark for the multi-tenant service
(:mod:`repro.serve`): identical Poisson request traces — a mix of
matvec / rmatvec applies and regularized least-squares solves from
several tenants — are replayed through a coalescing
:class:`~repro.serve.service.SolverService` and a ``max_block_k=1``
baseline.  At full size the coalesced service must

* actually coalesce at the highest arrival rate (mean batch > 1.5) and
  record the throughput ratio over serve-one (``speedup`` per rate in
  the artifact, ~2.2x at full size: concurrent applies share blocked
  pipeline passes; concurrent solves run as one block CG, one blocked
  Hessian pass per iteration for the whole batch).  The ratio is
  reported, not asserted — tier-1 carries no raw ratio-of-walls gate
  (ROADMAP item 1(a)),
* return apply results **bitwise-identical** to sequential engine
  applies and solve results within the CG tolerance (block CG is
  tolerance-equivalent, not bitwise — see ``docs/SERVING.md``),
* shed nothing (no overload/tenant rejections at these rates), and
* keep the engine cache inside its :class:`DeviceAllocator` byte
  budget (the allocator refuses over-budget admission by construction,
  so this asserts the accounting stayed wired up).

It emits ``BENCH_serving.json`` next to this file.  CI's tiny smoke
(``REPRO_BENCH_TINY=1``) runs a shrunken trace through the same schema
and correctness gates.
"""

import json
import os
from pathlib import Path

from repro.serve.bench import run_serving_benchmark

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
NT, ND, NM = (16, 8, 48) if TINY else (64, 24, 96)
RATES = (200.0, 2000.0) if TINY else (50.0, 2000.0)
N_REQUESTS = 96 if TINY else 240

ARTIFACT = Path(__file__).parent / "BENCH_serving.json"


class TestServingBench:
    def test_coalescing_vs_serve_one_with_artifact(self):
        artifact = run_serving_benchmark(
            nt=NT, nd=ND, nm=NM, rates=RATES, n_requests=N_REQUESTS
        )

        # Schema spot checks (documented in docs/BENCHMARKS.md).
        assert artifact["bench"] == "serving"
        assert "window_s" not in artifact  # no batching timer to report
        assert artifact["shape"] == {"nt": NT, "nd": ND, "nm": NM}
        assert len(artifact["rates"]) == len(RATES)
        for row in artifact["rates"]:
            for side in ("coalesced", "serve_one"):
                stats = row[side]
                assert stats["completed"] == N_REQUESTS
                assert stats["rejected"] == 0
                assert stats["throughput_rps"] > 0
                # Where the median went: waiting for the engine, and on it.
                assert stats["queue_wait_p50_ms"] > 0 and stats["exec_p50_ms"] > 0
            coalesced = row["coalesced"]
            # Coalescing must be invisible in the results: applies
            # bitwise, solves within the (slack-adjusted) CG tolerance.
            assert coalesced["bitwise_identical"] is True
            assert coalesced["solves_within_tol"] is True
            # The coalescer must actually coalesce at the high rate.
            if row["rate_rps"] == max(RATES):
                assert coalesced["mean_batch"] > 1.5
            assert row["speedup"] > 0

        cache = artifact["cache"]
        assert cache["within_budget"] is True
        assert cache["peak_bytes"] <= cache["budget_bytes"]

        ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
        assert ARTIFACT.exists()
