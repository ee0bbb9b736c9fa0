"""Tests for the multi-GPU scaling model (Figure 4 facts)."""

import pytest

from repro.comm.netmodel import FRONTIER_NETWORK
from repro.perf.scaling import (
    matvec_time_at_scale,
    paper_config_for,
    scaling_sweep,
)
from repro.util.timing import HostModel


class TestPaperConfigSchedule:
    def test_dssdd_below_512(self):
        for p in (8, 64, 256):
            assert paper_config_for(p) == "dssdd"

    def test_dssds_at_512_and_above(self):
        for p in (512, 1024, 4096):
            assert paper_config_for(p) == "dssds"


class TestTimeAtScale:
    def test_breakdown_keys(self):
        t = matvec_time_at_scale(64, 1, "ddddd")
        assert set(t) == {"compute", "bcast", "reduce", "total"}
        assert t["total"] == pytest.approx(t["compute"] + t["bcast"] + t["reduce"])

    def test_one_row_has_no_broadcast_cost(self):
        t = matvec_time_at_scale(64, 1, "ddddd")
        assert t["bcast"] == 0.0

    def test_pr_must_divide_p(self):
        with pytest.raises(ValueError):
            matvec_time_at_scale(64, 3, "ddddd")

    def test_single_phase5_halves_reduce_volume(self):
        # comm in lower precision: dssds reduces in single
        d = matvec_time_at_scale(256, 1, "dssdd")
        s = matvec_time_at_scale(256, 1, "dssds")
        assert s["reduce"] < d["reduce"]

    def test_partitioning_beats_naive_at_4096(self):
        # paper: >3x from communication-aware partitioning at 4096 GPUs
        naive = matvec_time_at_scale(4096, 1, "ddddd")["total"]
        multi = min(
            matvec_time_at_scale(4096, pr, "ddddd")["total"] for pr in (8, 16)
        )
        assert naive > 3 * multi

    def test_paper_20b_matvec_time_order(self):
        # paper: 20B-parameter matvec in ~0.11 s at 4096 GPUs; our model
        # lands within the same order of magnitude
        t = matvec_time_at_scale(4096, 16, "dssds")["total"]
        assert 5e-3 < t < 0.5

    def test_adjoint_swaps_collectives(self):
        f = matvec_time_at_scale(1024, 8, "ddddd")
        a = matvec_time_at_scale(1024, 8, "ddddd", adjoint=True)
        # F broadcasts the big parameter block over strided columns; F*
        # broadcasts the small data block over contiguous rows
        assert a["bcast"] < f["bcast"]
        assert a["reduce"] > f["reduce"]


class TestScalingSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return scaling_sweep()

    def test_default_counts(self, points):
        assert [pt.p for pt in points] == [8, 16, 32, 64, 128, 256, 512,
                                           1024, 2048, 4096]

    def test_published_grid_schedule(self, points):
        rows = {pt.p: pt.pr for pt in points}
        assert rows[512] == 1 and rows[1024] == 8 and rows[4096] == 16

    def test_speedup_above_one_everywhere(self, points):
        for pt in points:
            assert pt.speedup > 1.0

    def test_speedup_declines_at_scale(self, points):
        # Figure 4 shape: communication (not sped up by mixed precision)
        # grows, so the mixed-precision speedup shrinks
        small = points[0].speedup
        large = points[-1].speedup
        assert small > 1.7
        assert 1.05 < large < 1.5
        assert large < small

    def test_monotone_total_time_with_p_at_scale(self, points):
        t512 = next(pt for pt in points if pt.p == 512).time_double
        t4096 = next(pt for pt in points if pt.p == 4096).time_double
        assert t4096 > t512

    def test_custom_rows_override(self):
        pts = scaling_sweep(gpu_counts=(4096,), rows=[1])
        assert pts[0].pr == 1
        default = scaling_sweep(gpu_counts=(4096,))[0]
        assert default.pr == 16
        assert pts[0].time_double > default.time_double  # published beats naive


class TestBlockedOverlappedScaling:
    def test_overlap_never_exceeds_serial(self):
        from repro.perf.scaling import blocked_matvec_time_at_scale

        for p, pr in ((64, 1), (1024, 8), (4096, 16)):
            d = blocked_matvec_time_at_scale(p, pr, "dssdd", k=16, max_block_k=4)
            assert d["overlapped"] <= d["serial"] * (1 + 1e-12)
            assert d["hidden"] >= 0.0
            assert d["n_chunks"] == 4

    def test_overlap_hides_comm_at_scale(self):
        # At 4096 GPUs the machine-spanning broadcast is expensive;
        # prefetching it behind chunk compute must save real time.
        from repro.perf.scaling import blocked_matvec_time_at_scale

        d = blocked_matvec_time_at_scale(4096, 16, "dssds", k=16, max_block_k=4)
        assert d["hidden"] > 0.0
        assert d["per_vector"] == pytest.approx(d["overlapped"] / 16)

    def test_skew_increases_time(self):
        from repro.perf.scaling import blocked_matvec_time_at_scale

        base = blocked_matvec_time_at_scale(64, 1, "ddddd", k=16, max_block_k=4)
        skew = blocked_matvec_time_at_scale(
            64, 1, "ddddd", k=16, max_block_k=4, skew=0.5
        )
        assert skew["overlapped"] > base["overlapped"]

    def test_sweep_carries_overlap_columns(self):
        pts = scaling_sweep(gpu_counts=(64, 1024))
        for pt in pts:
            assert pt.time_mixed_overlap > 0.0
            assert pt.overlap_speedup >= 1.0

    def test_bad_args_rejected(self):
        from repro.perf.scaling import blocked_matvec_time_at_scale
        from repro.util.validation import ReproError

        with pytest.raises(ValueError):
            blocked_matvec_time_at_scale(64, 3, "ddddd")
        with pytest.raises(ReproError):
            blocked_matvec_time_at_scale(64, 1, "ddddd", skew=-1.0)

    def test_blocked_compute_below_per_vector_rate(self):
        # The SBGEMM phase model: a 4-wide chunk charges less than 4x
        # the single-vector pipeline (launches + spectrum amortized).
        from repro.gpu.specs import MI250X_GCD
        from repro.perf.phase_model import phase_times
        from repro.perf.scaling import blocked_matvec_time_at_scale

        # p=64 on one grid row: every rank owns the full nd=100 and a
        # 5000-parameter local block — the extents the chunk model sees.
        d = blocked_matvec_time_at_scale(64, 1, "ddddd", k=16, max_block_k=4)
        per_vec = sum(
            phase_times(5000, 100, 1000, "ddddd", MI250X_GCD).values()
        )
        assert d["compute"] < 4 * per_vec


def test_skew_penalty_at_scale():
    # The critical rank owning 1.5x the even share gates every chunk, at
    # every scale; with more grid rows than sensors the skewed sensor
    # extent clamps to the global one instead of raising.
    from repro.perf.scaling import blocked_matvec_time_at_scale

    for p, pr in ((64, 1), (1024, 8), (4096, 16)):
        even = blocked_matvec_time_at_scale(p, pr, "dssds", k=16, max_block_k=4)
        skewed = blocked_matvec_time_at_scale(p, pr, "dssds", k=16, max_block_k=4, skew=0.5)
        assert skewed["total"] > even["total"], p
    assert blocked_matvec_time_at_scale(1024, 256, "ddddd", k=16, max_block_k=4, skew=0.5)["total"] > 0


@pytest.mark.parametrize(
    "host", [None, HostModel(gen_time=50e-6, save_time=100e-6)], ids=["nohost", "fused"]
)
@pytest.mark.parametrize("adjoint", [False, True], ids=["F", "Fstar"])
@pytest.mark.parametrize("p,pr", [(8, 1), (64, 1), (512, 1), (4096, 16)])
def test_skew_penalty_grows_with_skew(p, pr, adjoint, host):
    from repro.perf.scaling import blocked_matvec_time_at_scale

    def run(**kw):
        return blocked_matvec_time_at_scale(
            p, pr, paper_config_for(p), k=16, max_block_k=4, adjoint=adjoint, host=host, **kw
        )

    even = run()
    assert run(skew=0.0) == even  # skew=0 is the even split, bit for bit
    skewed = [run(skew=s) for s in (0.25, 0.5)]
    for key in ("total", "overlapped3"):
        walls = [even[key]] + [d[key] for d in skewed]
        assert walls[0] < walls[1] < walls[2], key


def test_sweep_skew_slows_only_the_blocked_columns():
    # The classic per-matvec columns model the even split; the blocked
    # columns carry the critical rank's enlarged block.
    even = scaling_sweep(gpu_counts=(64, 1024, 4096))
    skewed = scaling_sweep(gpu_counts=(64, 1024, 4096), skew=0.5)
    for e, s in zip(even, skewed):
        assert (s.time_double, s.time_mixed) == (e.time_double, e.time_mixed)
        assert s.time_double_overlap > e.time_double_overlap
        assert s.time_mixed_overlap > e.time_mixed_overlap
        assert s.time_mixed_blocked_serial > e.time_mixed_blocked_serial


class TestOverlappedChunkSchedule:
    def test_compute_bound_hides_all_interior_comm(self):
        from repro.perf.phase_model import overlapped_chunk_schedule

        # x >> b + r: only bcast(0) and reduce(n-1) stay exposed.
        sched = overlapped_chunk_schedule(
            [1.0] * 4, [10.0] * 4, [2.0] * 4
        )
        assert sched["overlapped"] == pytest.approx(1.0 + 4 * 10.0 + 2.0)
        assert sched["serial"] == pytest.approx(4 * 13.0)

    def test_comm_bound_converges_to_comm_time(self):
        from repro.perf.phase_model import overlapped_chunk_schedule

        # b + r >> x: the comm stream is the critical path.
        sched = overlapped_chunk_schedule(
            [10.0] * 3, [0.1] * 3, [5.0] * 3
        )
        # comm stream: b0 b1 r0 b2 r1 r2 = 45; every compute (and its
        # dependency edges) hides inside the comm timeline.
        assert sched["overlapped"] == pytest.approx(45.0)
        assert sched["overlapped"] < sched["serial"]

    def test_zero_efficiency_converges_to_serial(self):
        from repro.perf.phase_model import overlapped_chunk_schedule

        free = overlapped_chunk_schedule([1.0] * 4, [10.0] * 4, [2.0] * 4)
        taxed = overlapped_chunk_schedule(
            [1.0] * 4, [10.0] * 4, [2.0] * 4, overlap_efficiency=0.0
        )
        # Every overlapped collective (3 prefetched bcasts + 3 interior
        # reduces) is fully exposed: overlap buys nothing.
        assert taxed["overlapped"] == pytest.approx(
            free["overlapped"] + 3 * 1.0 + 3 * 2.0
        )
        assert taxed["overlapped"] == pytest.approx(taxed["serial"])

    def test_half_efficiency_between_extremes(self):
        from repro.perf.phase_model import overlapped_chunk_schedule

        walls = [
            overlapped_chunk_schedule(
                [1.0] * 4, [10.0] * 4, [2.0] * 4, overlap_efficiency=eff
            )["overlapped"]
            for eff in (1.0, 0.5, 0.0)
        ]
        assert walls[0] < walls[1] < walls[2]

    def test_empty_and_mismatched(self):
        from repro.perf.phase_model import overlapped_chunk_schedule
        from repro.util.validation import ReproError

        assert overlapped_chunk_schedule([], [], [])["serial"] == 0.0
        with pytest.raises(ReproError):
            overlapped_chunk_schedule([1.0], [1.0, 2.0], [1.0])
