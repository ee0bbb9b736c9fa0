"""Three-stream schedule model + pairwise phase model + host scaling."""

import pytest

from repro.comm.netmodel import FRONTIER_NETWORK
from repro.gpu.specs import get_gpu
from repro.perf.phase_model import block_phase_times, overlapped_chunk_schedule
from repro.perf.scaling import (
    ScalingPoint,
    blocked_matvec_time_at_scale,
    scaling_sweep,
)
from repro.util.timing import HostModel
from repro.util.validation import ReproError

SPEC = get_gpu("mi300x")

BCAST = [3.0, 3.0, 3.0]
COMPUTE = [5.0, 5.0, 5.0]
REDUCE = [2.0, 2.0, 2.0]
GEN = [1.0, 1.0, 1.0]
SAVE = [0.5, 0.5, 0.5]


class TestScheduleContract:
    def test_seven_keys_always_present(self):
        for kw in ({}, {"chunk_gen": GEN, "chunk_save": SAVE}):
            out = overlapped_chunk_schedule(BCAST, COMPUTE, REDUCE, **kw)
            assert set(out) == {
                "serial",
                "overlapped",
                "hidden",
                "serial3",
                "two_stream_host",
                "overlapped3",
                "hidden_host",
            }

    def test_no_host_degenerates(self):
        out = overlapped_chunk_schedule(BCAST, COMPUTE, REDUCE)
        assert out["serial3"] == out["serial"]
        assert out["two_stream_host"] == out["overlapped"]
        assert out["overlapped3"] == out["overlapped"]
        assert out["hidden_host"] == 0.0

    def test_host_keys_leave_two_stream_keys_unchanged(self):
        base = overlapped_chunk_schedule(BCAST, COMPUTE, REDUCE)
        host = overlapped_chunk_schedule(
            BCAST, COMPUTE, REDUCE, chunk_gen=GEN, chunk_save=SAVE
        )
        for key in ("serial", "overlapped", "hidden"):
            assert host[key] == base[key]

    def test_fused_wall_strictly_between(self):
        out = overlapped_chunk_schedule(
            BCAST, COMPUTE, REDUCE, chunk_gen=GEN, chunk_save=SAVE
        )
        host_total = sum(GEN) + sum(SAVE)
        assert out["serial3"] == pytest.approx(out["serial"] + host_total)
        assert out["two_stream_host"] == pytest.approx(
            out["overlapped"] + host_total
        )
        assert out["overlapped"] <= out["overlapped3"] < out["two_stream_host"]
        assert out["hidden_host"] == pytest.approx(
            out["two_stream_host"] - out["overlapped3"]
        )

    def test_overlap_host_false_charges_serially(self):
        out = overlapped_chunk_schedule(
            BCAST,
            COMPUTE,
            REDUCE,
            chunk_gen=GEN,
            chunk_save=SAVE,
            overlap_host=False,
        )
        assert out["overlapped3"] == out["two_stream_host"]
        assert out["hidden_host"] == 0.0

    def test_host_dominated_schedule_gated_by_host(self):
        # When gen costs dwarf everything the host stream is the
        # critical path: the fused wall approaches the gen total.
        gen = [100.0, 100.0, 100.0]
        out = overlapped_chunk_schedule(
            BCAST, COMPUTE, REDUCE, chunk_gen=gen, chunk_save=[0.0] * 3
        )
        assert out["overlapped3"] >= sum(gen)
        assert out["overlapped3"] < out["two_stream_host"]

    @pytest.mark.parametrize(
        "compute, gen, save",
        [
            ([5.0] * 4, [1.0] * 4, [0.5] * 4),  # device-bound
            ([1.0] * 4, [3.0] * 4, [2.0] * 4),  # host-bound
            ([4.0, 1.0, 6.0, 2.0], [2.0, 0.5, 3.0, 1.0], [1.0, 2.5, 0.5, 3.0]),
            ([2.0], [1.0], [1.0]),  # single slot: nothing to overlap
        ],
    )
    def test_zero_comm_wall_within_double_buffer_closed_form(
        self, compute, gen, save
    ):
        # Section 4.2.2's host/device double buffering, cross-checked in
        # closed form: with free collectives the fused wall can beat
        # neither side's total work, nor lose to the slot-barrier
        # schedule gen_0 + sum_i max(compute_i, gen_{i+1} + save_{i-1})
        # + save_last (events order strictly less than barriers do).
        n = len(compute)
        out = overlapped_chunk_schedule(
            [0.0] * n, compute, [0.0] * n, chunk_gen=gen, chunk_save=save
        )
        slots = sum(
            max(
                compute[i],
                (gen[i + 1] if i + 1 < n else 0.0) + (save[i - 1] if i > 0 else 0.0),
            )
            for i in range(n)
        )
        closed_form = gen[0] + slots + save[-1]
        lower = max(sum(compute), sum(gen) + sum(save))
        assert lower <= out["overlapped3"] <= closed_form + 1e-12

    def test_empty_schedule_is_all_zero(self):
        out = overlapped_chunk_schedule([], [], [])
        assert all(v == 0.0 for v in out.values())

    def test_rejects_mismatched_host_lengths(self):
        with pytest.raises(ReproError):
            overlapped_chunk_schedule(
                BCAST, COMPUTE, REDUCE, chunk_gen=[1.0], chunk_save=SAVE
            )


class TestPairwisePhaseModel:
    ARGS = dict(nm=4000, nd=100, nt=1000, k=8, config="dssdd", spec=SPEC)

    def test_overhead_positive_and_bounded(self):
        fast = block_phase_times(**self.ARGS)
        pw = block_phase_times(**self.ARGS, reduction="pairwise")
        t_fast, t_pw = sum(fast.values()), sum(pw.values())
        assert t_pw > t_fast
        assert (t_pw - t_fast) / t_fast <= 0.15

    def test_only_sbgemv_phase_changes(self):
        fast = block_phase_times(**self.ARGS)
        pw = block_phase_times(**self.ARGS, reduction="pairwise")
        for phase in fast:
            if phase == "sbgemv":
                assert pw[phase] > fast[phase]
            else:
                assert pw[phase] == fast[phase]

    def test_k1_pairwise_skips_gemv_path(self):
        args = dict(self.ARGS, k=1)
        fast = block_phase_times(**args)
        pw = block_phase_times(**args, reduction="pairwise")
        # Fast k=1 dispatches GEMV; pairwise rides the width-1 blocked
        # GEMM path with the determinism tax — the charges must differ.
        assert pw["sbgemv"] != fast["sbgemv"]

    def test_rejects_bad_mode(self):
        with pytest.raises(ReproError):
            block_phase_times(**self.ARGS, reduction="det")


HM = HostModel(gen_time=50e-6, save_time=100e-6)


class TestHostAtScale:
    def test_no_host_degenerates(self):
        t = blocked_matvec_time_at_scale(64, 1, "dssdd", k=16, max_block_k=4)
        assert t["two_stream_host"] == t["overlapped"]
        assert t["overlapped3"] == t["overlapped"]
        assert t["hidden_host"] == 0.0

    @pytest.mark.parametrize("p", [64, 4096])
    def test_fused_beats_serial_host(self, p):
        pr = 1 if p == 64 else 16
        t = blocked_matvec_time_at_scale(
            p, pr, "dssdd", k=16, max_block_k=4, host=HM
        )
        assert t["two_stream_host"] == pytest.approx(
            t["overlapped"] + 16 * HM.per_vector
        )
        assert t["overlapped3"] < t["two_stream_host"]
        assert t["overlapped3"] >= t["overlapped"]
        assert t["per_vector_overlap3"] == pytest.approx(t["overlapped3"] / 16)

    def test_overlap_host_false_reproduces_serial_charge(self):
        t = blocked_matvec_time_at_scale(
            64, 1, "dssdd", k=16, max_block_k=4, host=HM, overlap_host=False
        )
        assert t["overlapped3"] == t["two_stream_host"]


class TestScalingPointHost:
    def test_defaults_and_speedup(self):
        base = dict(
            p=8, pr=1, pc=8, config="dssdd", time_double=1.0, time_mixed=0.5
        )
        pt = ScalingPoint(**base)
        assert pt.time_mixed_two_stream_host == 0.0
        assert pt.time_mixed_overlap3 == 0.0
        pt2 = ScalingPoint(
            **base,
            time_mixed_two_stream_host=3.0,
            time_mixed_overlap3=2.0,
        )
        assert pt2.time_mixed_two_stream_host / pt2.time_mixed_overlap3 == pytest.approx(1.5)

    def test_sweep_carries_host_columns(self):
        pts = scaling_sweep(gpu_counts=[64], k=4, max_block_k=2, host=HM)
        (pt,) = pts
        assert pt.time_mixed_overlap3 > 0.0
        assert pt.time_mixed_two_stream_host > pt.time_mixed_overlap3

    def test_sweep_without_host_zeroes_columns(self):
        (pt,) = scaling_sweep(gpu_counts=[64], k=4, max_block_k=2)
        assert pt.time_mixed_two_stream_host == 0.0
        assert pt.time_mixed_overlap3 == 0.0
