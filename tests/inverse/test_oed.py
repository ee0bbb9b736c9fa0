"""Tests for optimal sensor placement (the Remark-1 outer loop)."""

import numpy as np
import pytest

from repro.inverse import oed
from repro.inverse.bayes import LinearBayesianProblem
from repro.inverse.lti import AdvectionDiffusion1D, HeatEquation1D
from repro.inverse.mesh import Grid1D
from repro.inverse.oed import expected_information_gain, greedy_sensor_placement
from repro.inverse.posterior import DataSpacePosterior
from repro.inverse.p2o import P2OMap, build_p2o_blocks
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

    @pytest.mark.parametrize("config, rel", [("ddddd", 1e-9)])
    @pytest.mark.parametrize("n_select", [2, 3])
    def test_matches_uncached_per_candidate_rebuild(self, oed_setup, n_select, config, rel):
        # The one kernel assembly + Schur-complement scoring must reproduce
        # the original algorithm: rebuild the p2o map per candidate and
        # assemble the Hessian column by column with engine F* / F.
        _, system, prior = oed_setup
        res = greedy_sensor_placement(system, [2, 6, 10], n_select, 6, prior, 0.05)

        selected, gains = [], []
        remaining = [2, 6, 10]
        for _ in range(n_select):
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
                    v = prior.apply_block(p2o.applyT(e, config=config)[:, :, None])[:, :, 0]
                    hd[:, col] = (p2o.apply(v, config=config) / 0.05).ravel()
                gain = expected_information_gain(hd)
                if gain > best_gain:
                    best_gain, best_idx = gain, cand
            selected.append(best_idx)
            remaining.remove(best_idx)
            gains.append(best_gain)

        assert res.selected == selected
        assert res.gains == pytest.approx(gains, rel=rel)

    def test_non_finite_hessian_names_the_candidate(self, oed_setup, monkeypatch):
        _, system, prior = oed_setup
        monkeypatch.setattr(
            LinearBayesianProblem, "data_space_hessian",
            lambda self: np.full((6 * 3, 6 * 3), np.nan),
        )
        with pytest.raises(ReproError, match="candidate sensor 2 is not finite"):
            greedy_sensor_placement(system, [2, 6, 10], 2, 6, prior, 0.05)

    def test_indefinite_schur_complement_names_the_candidate(self, oed_setup, monkeypatch):
        _, system, prior = oed_setup
        monkeypatch.setattr(
            LinearBayesianProblem, "data_space_hessian",
            lambda self: -2.0 * np.eye(6 * 3),
        )
        with pytest.raises(ReproError, match="candidate sensor 2 is not positive definite"):
            greedy_sensor_placement(system, [2, 6, 10], 2, 6, prior, 0.05)

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


class TestPrecomputedBlocks:
    def test_precomputed_blocks_shortcut_p2o(self, oed_setup):
        _, system, _ = oed_setup
        obs = ObservationOperator(system.n, [4, 11])
        direct = P2OMap(system, obs, 6)
        shortcut = P2OMap(system, obs, 6, blocks=build_p2o_blocks(system, obs, 6))
        assert np.array_equal(
            shortcut.matrix.blocks, direct.matrix.blocks
        )

    def test_bad_precomputed_shape_rejected(self, oed_setup):
        _, system, _ = oed_setup
        obs = ObservationOperator(system.n, [4, 11])
        with pytest.raises(ReproError):
            P2OMap(system, obs, 6, blocks=np.zeros((6, 3, system.n)))


class TestOneAssembly:
    def test_greedy_and_posterior_run_no_engine_action(self, monkeypatch):
        # Sensor placement and the posterior read one data-space assembly:
        # neither runs an F / F* action on any engine it builds.
        built = []

        class RecordingP2OMap(oed.P2OMap):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(oed, "P2OMap", RecordingP2OMap)
        system = HeatEquation1D(Grid1D(16), dt=0.05, kappa=0.2)
        prior = GaussianPrior(16, 8)
        res = greedy_sensor_placement(system, [2, 6, 10, 14], 2, 8, prior, 0.05)
        p2o = RecordingP2OMap(system, ObservationOperator(16, res.selected), 8)
        DataSpacePosterior.compute(LinearBayesianProblem(p2o, prior, 0.05))
        assert len(built) == 2
        assert all(p.engine.matvec_count == 0 for p in built), [p.engine.matvec_count for p in built]
