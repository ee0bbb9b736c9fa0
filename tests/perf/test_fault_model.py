"""Tests for the Young/Daly recovery-cost model: expected slowdown versus
MTBF for a checkpointed job."""

import math

import pytest

from repro.perf.phase_model import recovery_cost_model
from repro.util.validation import ReproError

HOUR = 3600.0
YEAR = 365.0 * 24.0 * HOUR


class TestRecoveryCostModel:
    def test_no_failures_under_infinite_mtbf(self):
        out = recovery_cost_model(HOUR, math.inf, checkpoint_s=1.0, restart_s=10.0)
        assert out["expected_failures"] == 0.0
        assert out["rework_s"] == 0.0
        assert out["restart_overhead_s"] == 0.0
        # One checkpoint interval spanning the whole job: its cost is the
        # only overhead left.
        assert out["interval_s"] == HOUR
        assert out["slowdown"] == pytest.approx(
            (HOUR + out["checkpoint_overhead_s"]) / HOUR
        )

    def test_young_optimal_interval(self):
        ckpt, mtbf = 2.0, 6.0 * HOUR
        out = recovery_cost_model(24.0 * HOUR, mtbf, ckpt, restart_s=30.0)
        assert out["interval_s"] == pytest.approx(math.sqrt(2.0 * ckpt * mtbf))

    def test_interval_capped_at_work(self):
        out = recovery_cost_model(10.0, YEAR, checkpoint_s=1.0, restart_s=1.0)
        assert out["interval_s"] <= 10.0

    def test_rework_is_half_an_interval_per_failure(self):
        out = recovery_cost_model(HOUR, 12.0 * HOUR, checkpoint_s=1.0, restart_s=5.0)
        assert out["n_checkpoints"] == pytest.approx(HOUR / out["interval_s"])
        assert out["rework_s"] == pytest.approx(
            out["expected_failures"] * out["interval_s"] / 2.0
        )
        assert out["expected_s"] == pytest.approx(
            HOUR
            + out["checkpoint_overhead_s"]
            + out["rework_s"]
            + out["restart_overhead_s"]
        )

    def test_slowdown_grows_as_mtbf_shrinks(self):
        slow = [
            recovery_cost_model(HOUR, mtbf, 0.5, 5.0)["slowdown"]
            for mtbf in (YEAR, 30 * 24 * HOUR, 24 * HOUR, 6 * HOUR)
        ]
        assert all(b > a for a, b in zip(slow, slow[1:]))
        assert slow[0] >= 1.0

    def test_zero_checkpoint_cost_checkpoints_freely(self):
        # Free checkpoints: the optimum degenerates but must stay valid.
        out = recovery_cost_model(HOUR, 24 * HOUR, checkpoint_s=0.0, restart_s=5.0)
        assert out["checkpoint_overhead_s"] == 0.0
        assert out["slowdown"] >= 1.0

    def test_validation(self):
        with pytest.raises(ReproError):
            recovery_cost_model(0.0, HOUR, 1.0, 1.0)
        with pytest.raises(ReproError):
            recovery_cost_model(HOUR, 0.0, 1.0, 1.0)
        with pytest.raises(ReproError):
            recovery_cost_model(HOUR, HOUR, -1.0, 1.0)
        with pytest.raises(ReproError):
            recovery_cost_model(HOUR, HOUR, 1.0, -1.0)
