"""Figure 4 bench: mixed-precision scaling from 8 to 4,096 GPUs.

Regenerates the weak-scaling speedup/error series: times from the
calibrated scaling model at paper sizes (Nm = 5000p), errors *measured*
by running the real SPMD engine at every GPU count (up to 4,096 actual
in-process ranks with a proportionally reduced local problem).
"""

import numpy as np
import pytest

from repro.comm.partition import (
    communication_aware_partition,
    matvec_comm_cost,
    published_frontier_rows,
)
from repro.figures import fig4
from repro.figures.fig4 import figure4, measured_scaling_error
from repro.perf.scaling import matvec_time_at_scale, paper_config_for


@pytest.fixture(scope="session")
def measured_error():
    """``measured_scaling_error``, each SPMD run done once per session.

    ``figure4``'s 4096-GPU row and ``measured_scaling_error(4096)`` are
    one measurement (published grid rows, the paper's config at that
    count): the first test to ask runs its 4096 in-process ranks, the
    other reads the result.
    """
    seen = {}

    def measure(p, pr=None, config=None):
        key = (
            p,
            pr if pr is not None else published_frontier_rows(p),
            str(config if config is not None else paper_config_for(p)),
        )
        if key not in seen:
            seen[key] = measured_scaling_error(p, pr=pr, config=config)
        return seen[key]

    return measure


class TestFigure4:
    def test_regenerate_figure4(self, benchmark, measured_error, monkeypatch):
        monkeypatch.setattr(fig4, "measured_scaling_error", measured_error)
        rows, text = benchmark.pedantic(
            lambda: figure4(max_error_ranks=4096), rounds=1, iterations=1
        )
        print("\n" + text)
        speedups = [r.point.speedup for r in rows]
        errors = [r.measured_error for r in rows if r.measured_error is not None]
        # paper facts: speedup > 1 everywhere, declines at scale;
        # measured error stays under 1e-6 and grows past 512 GPUs
        assert all(s > 1.0 for s in speedups)
        assert speedups[0] > speedups[-1]
        assert all(e < 1e-6 for e in errors)
        assert errors[-1] > errors[0]

    def test_spmd_error_measurement_4096_ranks(self, benchmark, measured_error):
        err = benchmark.pedantic(
            measured_error, args=(4096,), rounds=1, iterations=1
        )
        print(f"\nmeasured rel. error at 4096 simulated ranks: {err:.3e}")
        assert 1e-9 < err < 1e-6

    def test_partitioning_ablation(self, benchmark):
        # communication-aware partitioning vs naive 1-row grid (paper:
        # >3x at 4,096 GPUs)
        def ablation():
            rows = []
            for p in (512, 1024, 2048, 4096):
                naive = matvec_time_at_scale(p, 1, "ddddd")["total"]
                pub = matvec_time_at_scale(
                    p, published_frontier_rows(p), "ddddd"
                )["total"]
                pr_model, _ = communication_aware_partition(5000 * p, 100, 1000, p)
                model = matvec_time_at_scale(p, pr_model, "ddddd")["total"]
                rows.append((p, naive, pub, model, pr_model))
            return rows

        rows = benchmark(ablation)
        print("\npartitioning ablation (double precision totals):")
        print(f"{'GPUs':>6} {'1-row':>10} {'published':>10} {'model-opt':>10} {'model pr':>9}")
        for p, naive, pub, model, pr in rows:
            print(f"{p:6d} {naive * 1e3:8.2f}ms {pub * 1e3:8.2f}ms "
                  f"{model * 1e3:8.2f}ms {pr:9d}")
        p4096 = rows[-1]
        assert p4096[1] > 3 * p4096[2]  # published grid >3x better
        assert p4096[3] <= p4096[2] * 1.0001  # model-opt at least as good

    def test_20billion_parameter_matvec(self, benchmark):
        # paper: >20B parameters in ~0.11 s on 4,096 GPUs
        t = benchmark(
            lambda: matvec_time_at_scale(4096, 16, "dssds")["total"]
        )
        params = 5000 * 4096 * 1000
        print(f"\n{params / 1e9:.1f}B-parameter matvec on 4096 GPUs: "
              f"{t * 1e3:.1f} ms modeled (paper: ~110 ms)")
        assert 5e-3 < t < 0.5

    def test_comm_precision_ablation(self, benchmark):
        # dssds halves the Phase-5 reduce volume: matters little because
        # the communication is latency-bound (the paper's observation)
        def ablation():
            out = {}
            for cfg in ("dssdd", "dssds"):
                out[cfg] = matvec_time_at_scale(4096, 16, cfg)["total"]
            return out

        res = benchmark(ablation)
        print(f"\ncomm-precision ablation at 4096 GPUs: {res}")
        assert abs(res["dssdd"] - res["dssds"]) / res["dssdd"] < 0.10
