"""Tests for the parameter-sweep sensitivity analyses."""

import pytest

from repro.analysis.sweeps import (
    sweep_cluster_size,
    sweep_failure_rate,
    sweep_repair_speed,
)


class TestSweeps:
    def test_cluster_size_points(self):
        points = sweep_cluster_size((1, 2), t=50.0)
        assert [p.parameter for p in points] == [1.0, 2.0]
        assert all(0.0 < p.probability < 1.0 for p in points)
        assert points[1].states > points[0].states
        # E(N) grows with N.
        assert points[1].uniform_rate > points[0].uniform_rate

    def test_faster_repairs_reduce_risk(self):
        points = sweep_repair_speed(1, (0.5, 1.0, 2.0), t=100.0)
        probabilities = [p.probability for p in points]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_higher_failure_rates_increase_risk(self):
        points = sweep_failure_rate(1, (0.5, 1.0, 2.0), t=100.0)
        probabilities = [p.probability for p in points]
        assert probabilities == sorted(probabilities)

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            sweep_repair_speed(1, (0.0,))
        with pytest.raises(ValueError):
            sweep_failure_rate(1, (-1.0,))
