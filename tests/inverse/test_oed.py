"""Tests for optimal sensor placement (the Remark-1 outer loop)."""

import numpy as np
import pytest

from repro.inverse.lti import AdvectionDiffusion1D, HeatEquation1D
from repro.inverse.mesh import Grid1D
from repro.inverse.oed import expected_information_gain, greedy_sensor_placement
from repro.inverse.p2o import P2OMap, SensorBlockCache, build_p2o_blocks
from repro.inverse.observation import ObservationOperator
from repro.inverse.prior import GaussianPrior
from repro.util.validation import ReproError


class TestEIG:
    def test_zero_hessian_zero_gain(self):
        assert expected_information_gain(np.zeros((4, 4))) == 0.0

    def test_positive_for_informative_data(self):
        assert expected_information_gain(np.eye(3)) == pytest.approx(
            1.5 * np.log(2.0)
        )

    def test_monotone_in_hessian(self):
        H = np.diag([1.0, 2.0])
        assert expected_information_gain(2 * H) > expected_information_gain(H)

    def test_nonsquare_rejected(self):
        with pytest.raises(ReproError):
            expected_information_gain(np.zeros((2, 3)))


@pytest.fixture(scope="module")
def oed_setup():
    grid = Grid1D(16)
    system = HeatEquation1D(grid, dt=0.05, kappa=0.2)
    prior = GaussianPrior(16, 6, gamma=1e-3, delta=2.0)
    return grid, system, prior


class TestGreedy:
    def test_selects_requested_count(self, oed_setup):
        _, system, prior = oed_setup
        res = greedy_sensor_placement(system, [2, 6, 10, 14], 2, 6, prior, 0.05)
        assert len(res.selected) == 2
        assert len(set(res.selected)) == 2

    def test_gains_monotone_nondecreasing(self, oed_setup):
        # adding a sensor can only add information
        _, system, prior = oed_setup
        res = greedy_sensor_placement(system, [2, 6, 10, 14], 3, 6, prior, 0.05)
        assert res.gains == sorted(res.gains)

    def test_evaluation_count(self, oed_setup):
        # greedy over k candidates selecting s: k + (k-1) + ... evaluations
        _, system, prior = oed_setup
        res = greedy_sensor_placement(system, [2, 6, 10, 14], 2, 6, prior, 0.05)
        assert res.evaluations == 4 + 3
        assert res.matvec_count > 0

    def test_selected_from_candidates(self, oed_setup):
        _, system, prior = oed_setup
        cands = [1, 5, 9, 13]
        res = greedy_sensor_placement(system, cands, 2, 6, prior, 0.05)
        assert set(res.selected) <= set(cands)

    def test_too_many_requested(self, oed_setup):
        _, system, prior = oed_setup
        with pytest.raises(ReproError):
            greedy_sensor_placement(system, [2, 6], 3, 6, prior, 0.05)

    def test_duplicate_candidates_rejected(self, oed_setup):
        _, system, prior = oed_setup
        with pytest.raises(ReproError):
            greedy_sensor_placement(system, [2, 2, 6], 1, 6, prior, 0.05)

    def test_precision_config_does_not_change_selection(self, oed_setup):
        # the paper's premise: 1e-7-level matvec error is far below the
        # information-gain differences between sensor sites
        _, system, prior = oed_setup
        kw = dict(n_select=2, nt=6, prior=prior, noise_std=0.05)
        sel_d = greedy_sensor_placement(system, [2, 7, 12], config="ddddd", **kw)
        sel_s = greedy_sensor_placement(system, [2, 7, 12], config="dssdd", **kw)
        assert sel_d.selected == sel_s.selected

    def test_blocked_assembly_carries_all_actions(self, oed_setup):
        # Every candidate Hessian must be assembled with blocked passes:
        # the per-evaluation actions are 2 * nt * |trial| logical
        # matvecs riding 2 matmats, so matmat_count == 2 * evaluations.
        _, system, prior = oed_setup
        res = greedy_sensor_placement(system, [2, 6, 10, 14], 2, 6, prior, 0.05)
        assert res.matmat_count == 2 * res.evaluations
        assert res.matvec_count > 0

    def test_matches_uncached_per_candidate_rebuild(self, oed_setup):
        # The sensor-block cache + blocked assembly must reproduce the
        # original algorithm: rebuild the p2o map per candidate and
        # assemble the Hessian column by column.
        _, system, prior = oed_setup
        res = greedy_sensor_placement(system, [2, 6, 10], 2, 6, prior, 0.05)

        selected, gains = [], []
        remaining = [2, 6, 10]
        for _ in range(2):
            best_gain, best_idx = -np.inf, None
            for cand in remaining:
                trial = selected + [cand]
                obs = ObservationOperator(system.n, trial)
                p2o = P2OMap(system, obs, 6)
                nt, nd = 6, len(trial)
                hd = np.empty((nt * nd, nt * nd))
                for col in range(nt * nd):
                    e = np.zeros((nt, nd))
                    e[col // nd, col % nd] = 1.0 / 0.05
                    v = prior.apply(p2o.applyT(e))
                    hd[:, col] = (p2o.apply(v) / 0.05).ravel()
                gain = expected_information_gain(hd)
                if gain > best_gain:
                    best_gain, best_idx = gain, cand
            selected.append(best_idx)
            remaining.remove(best_idx)
            gains.append(best_gain)

        assert res.selected == selected
        assert res.gains == pytest.approx(gains, rel=1e-9)

    def test_spread_beats_clustered_for_diffusion(self):
        # with diffusive smoothing, greedy avoids placing the second
        # sensor adjacent to the first
        grid = Grid1D(24)
        system = HeatEquation1D(grid, dt=0.05, kappa=0.3)
        prior = GaussianPrior(24, 5, gamma=1e-3, delta=2.0)
        res = greedy_sensor_placement(
            system, [11, 12, 13, 3, 20], 2, 5, prior, 0.05
        )
        first, second = res.selected
        assert abs(first - second) > 1


class TestSensorBlockCache:
    def test_rows_match_build_p2o_blocks_bitwise(self, oed_setup):
        _, system, prior = oed_setup
        cache = SensorBlockCache(system, 6)
        sensors = [3, 9, 12]
        obs = ObservationOperator(system.n, sensors)
        ref = build_p2o_blocks(system, obs, 6)
        assert np.array_equal(cache.blocks(sensors), ref)

    def test_rows_computed_once(self, oed_setup):
        _, system, _ = oed_setup
        cache = SensorBlockCache(system, 6)
        cache.blocks([3, 9])
        r1 = cache.row(3)
        cache.blocks([3, 12])
        assert cache.row(3) is r1  # cached object, not recomputed
        assert len(cache) == 3

    def test_out_of_range_sensor_rejected(self, oed_setup):
        _, system, _ = oed_setup
        with pytest.raises(ReproError):
            SensorBlockCache(system, 6).row(system.n)

    def test_precomputed_blocks_shortcut_p2o(self, oed_setup):
        _, system, _ = oed_setup
        obs = ObservationOperator(system.n, [4, 11])
        cache = SensorBlockCache(system, 6)
        direct = P2OMap(system, obs, 6)
        shortcut = P2OMap(system, obs, 6, blocks=cache.blocks([4, 11]))
        assert np.array_equal(
            shortcut.matrix.blocks, direct.matrix.blocks
        )

    def test_bad_precomputed_shape_rejected(self, oed_setup):
        _, system, _ = oed_setup
        obs = ObservationOperator(system.n, [4, 11])
        with pytest.raises(ReproError):
            P2OMap(system, obs, 6, blocks=np.zeros((6, 3, system.n)))
