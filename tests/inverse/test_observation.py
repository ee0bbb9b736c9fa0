"""Tests for sensor observation operators."""

import numpy as np
import pytest

from repro.inverse.observation import ObservationOperator
from repro.util.validation import ReproError


class TestConstruction:
    def test_basic(self):
        obs = ObservationOperator(10, [2, 7])
        assert obs.nd == 2

    def test_duplicate_sensors_rejected(self):
        with pytest.raises(ReproError):
            ObservationOperator(10, [2, 2])

    def test_out_of_range(self):
        with pytest.raises(ReproError):
            ObservationOperator(10, [10])

    def test_empty(self):
        with pytest.raises(ReproError):
            ObservationOperator(10, [])

    def test_negative_width(self):
        with pytest.raises(ReproError):
            ObservationOperator(10, [2], width=-1)


class TestPointwise:
    def test_observe_state(self, rng):
        obs = ObservationOperator(8, [1, 5])
        u = rng.standard_normal(8)
        np.testing.assert_array_equal(obs.observe(u), u[[1, 5]])

    def test_observe_history(self, rng):
        obs = ObservationOperator(8, [1, 5])
        hist = rng.standard_normal((4, 8))
        np.testing.assert_allclose(obs.observe(hist), hist[:, [1, 5]])

    def test_matrix_rows_sum_to_one(self):
        obs = ObservationOperator(10, [0, 4, 9], width=1)
        np.testing.assert_allclose(obs.matrix().sum(axis=1), 1.0)

    def test_width_averages(self, rng):
        obs = ObservationOperator(10, [5], width=1)
        u = rng.standard_normal(10)
        assert obs.observe(u)[0] == pytest.approx(np.mean(u[4:7]))

    def test_width_clipped_at_boundary(self):
        obs = ObservationOperator(10, [0], width=2)
        B = obs.matrix()
        assert B[0, :3].sum() == pytest.approx(1.0)
        assert np.all(B[0, 3:] == 0)


class TestAdjoint:
    def test_adjoint_consistency(self, rng):
        obs = ObservationOperator(12, [3, 8], width=1)
        u = rng.standard_normal(12)
        d = rng.standard_normal(2)
        assert np.dot(obs.observe(u), d) == pytest.approx(
            np.dot(u, obs.adjoint(d))
        )

    def test_adjoint_history(self, rng):
        obs = ObservationOperator(12, [3, 8])
        hist = rng.standard_normal((5, 2))
        out = obs.adjoint(hist)
        assert out.shape == (5, 12)

    def test_shape_errors(self):
        obs = ObservationOperator(12, [3])
        with pytest.raises(ReproError):
            obs.observe(np.zeros(11))
        with pytest.raises(ReproError):
            obs.adjoint(np.zeros(2))
        with pytest.raises(ReproError):
            obs.observe(np.zeros((2, 3, 4)))
        with pytest.raises(ReproError):
            obs.adjoint(np.zeros((2, 1, 4)))
