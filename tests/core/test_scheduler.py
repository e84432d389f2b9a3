"""Tests for the scheduler classes of the simulation oracle."""

import numpy as np
import pytest

from repro.models.zoo import two_phase_race_ctmdp
from tests.oracles.simulate import (
    SchedulerError,
    StationaryScheduler,
    StepScheduler,
    UniformRandomScheduler,
)


@pytest.fixture
def race():
    return two_phase_race_ctmdp()[0]


class TestStationary:
    def test_deterministic_point_mass(self, race):
        scheduler = StationaryScheduler.from_list([1, 0, 0])
        dist = scheduler.distribution(race, 0, 0, [])
        np.testing.assert_allclose(dist, [0.0, 1.0])

    def test_out_of_range_choice_rejected(self, race):
        scheduler = StationaryScheduler.from_list([5, 0, 0])
        with pytest.raises(SchedulerError):
            scheduler.distribution(race, 0, 0, [])

    def test_absorbing_state_rejected(self):
        from repro.core.ctmdp import CTMDP

        ctmdp = CTMDP.from_transitions(2, [(0, "a", {1: 1.0})])
        scheduler = StationaryScheduler.from_list([0, 0])
        with pytest.raises(SchedulerError):
            scheduler.distribution(ctmdp, 1, 0, [])


class TestStep:
    def test_row_selected_by_step(self, race):
        decisions = np.array([[0, 0, 0], [1, 0, 0]], dtype=np.int32)
        scheduler = StepScheduler(decisions=decisions)
        np.testing.assert_allclose(scheduler.distribution(race, 0, 0, []), [1.0, 0.0])
        np.testing.assert_allclose(scheduler.distribution(race, 0, 1, []), [0.0, 1.0])

    def test_steps_beyond_horizon_reuse_last_row(self, race):
        decisions = np.array([[1, 0, 0]], dtype=np.int32)
        scheduler = StepScheduler(decisions=decisions)
        np.testing.assert_allclose(scheduler.distribution(race, 0, 99, []), [0.0, 1.0])

    def test_negative_marker_falls_back_to_first(self, race):
        decisions = np.array([[-1, -1, -1]], dtype=np.int32)
        scheduler = StepScheduler(decisions=decisions)
        np.testing.assert_allclose(scheduler.distribution(race, 0, 0, []), [1.0, 0.0])


class TestUniformRandom:
    def test_equal_weights(self, race):
        scheduler = UniformRandomScheduler()
        np.testing.assert_allclose(scheduler.distribution(race, 0, 0, []), [0.5, 0.5])
        np.testing.assert_allclose(scheduler.distribution(race, 1, 0, []), [1.0])
