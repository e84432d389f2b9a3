"""Statistical cross-validation of the analytic solvers via simulation."""

import math

import numpy as np
import pytest

from repro.core.scheduler import StationaryScheduler
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import timed_reachability
from repro.errors import ModelError
from repro.models.zoo import two_phase_race_ctmdp
from repro.sim.simulate import (
    simulate_ctmc_reachability,
    simulate_ctmdp_reachability,
)


class TestCTMCSimulation:
    def test_matches_analytic_exponential(self, rng):
        chain = CTMC.from_transitions(2, [(0, 1, 2.0)])
        t = 0.7
        estimate = simulate_ctmc_reachability(chain, {1}, t, runs=8000, rng=rng)
        low, high = estimate.confidence_interval(z=4.0)
        analytic = 1.0 - math.exp(-2.0 * t)
        assert low <= analytic <= high

    def test_matches_analytic_on_cycle_with_loss(self, rng):
        chain = CTMC.from_transitions(
            3, [(0, 1, 1.0), (0, 2, 2.0), (2, 0, 1.0)]
        )
        t = 1.5
        estimate = simulate_ctmc_reachability(chain, {1}, t, runs=8000, rng=rng)
        analytic = timed_reachability(chain, [1], t, epsilon=1e-12).values[0]
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= analytic <= high

    def test_self_loops_are_harmless(self, rng):
        from repro.ctmc.uniformization import uniformize

        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        padded = uniformize(chain, rate=10.0)
        t = 0.9
        est = simulate_ctmc_reachability(padded, {1}, t, runs=8000, rng=rng)
        low, high = est.confidence_interval(z=4.0)
        assert low <= 1.0 - math.exp(-t) <= high

    def test_goal_at_start(self, rng):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        estimate = simulate_ctmc_reachability(chain, {0}, 1.0, runs=10, rng=rng)
        assert estimate.probability == 1.0

    def test_invalid_runs_rejected(self, rng):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        with pytest.raises(ModelError):
            simulate_ctmc_reachability(chain, {1}, 1.0, runs=0, rng=rng)


class TestCTMDPSimulation:
    def test_stationary_scheduler_matches_induced_ctmc(self, rng):
        ctmdp, _goal = two_phase_race_ctmdp()
        scheduler = StationaryScheduler.from_list([1, 0, 0])
        induced = ctmdp.induced_ctmc([1, 0, 0])
        t = 0.5
        analytic = timed_reachability(induced, [2], t, epsilon=1e-12).values[0]
        estimate = simulate_ctmdp_reachability(
            ctmdp, scheduler, {2}, t, runs=8000, rng=rng
        )
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= analytic <= high

    def test_standard_error_shrinks(self, rng):
        ctmdp, _ = two_phase_race_ctmdp()
        scheduler = StationaryScheduler.from_list([0, 0, 0])
        small = simulate_ctmdp_reachability(ctmdp, scheduler, {2}, 0.5, runs=200, rng=rng)
        large = simulate_ctmdp_reachability(ctmdp, scheduler, {2}, 0.5, runs=8000, rng=rng)
        assert large.standard_error < small.standard_error

    def test_confidence_interval_clipped(self):
        from repro.sim.simulate import SimulationEstimate

        estimate = SimulationEstimate(probability=0.01, standard_error=0.05, runs=10)
        low, high = estimate.confidence_interval(z=3.0)
        assert low == 0.0
        assert high <= 1.0

    def test_invalid_runs_rejected(self, rng):
        ctmdp, _ = two_phase_race_ctmdp()
        scheduler = StationaryScheduler.from_list([0, 0, 0])
        with pytest.raises(ModelError):
            simulate_ctmdp_reachability(ctmdp, scheduler, {2}, 1.0, runs=-5, rng=rng)
