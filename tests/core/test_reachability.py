"""Tests for Algorithm 1 (timed reachability in uniform CTMDPs)."""

import math

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.core.reachability import timed_reachability, unbounded_reachability
from repro.core.scheduler import StepScheduler, UniformRandomScheduler
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import timed_reachability as ctmc_reachability
from repro.errors import ModelError, NonUniformError
from repro.models.zoo import erlang_vs_exponential_race, two_phase_race_ctmdp
from repro.sim.simulate import simulate_ctmdp_reachability


def single_action_ctmdp_from_ctmc(chain: CTMC) -> CTMDP:
    """Wrap a uniform CTMC as a one-action-per-state CTMDP."""
    transitions = []
    for state in range(chain.num_states):
        rates = {dst: rate for dst, rate in chain.successors(state)}
        if rates:
            transitions.append((state, "only", rates))
    return CTMDP.from_transitions(chain.num_states, transitions, initial=chain.initial)


class TestAgainstCTMC:
    def test_single_action_matches_ctmc_solver(self):
        chain = CTMC.from_transitions(
            4,
            [
                (0, 1, 2.0),
                (0, 0, 1.0),
                (1, 2, 1.0),
                (1, 0, 2.0),
                (2, 3, 3.0),
                (3, 3, 3.0),
            ],
        )
        ctmdp = single_action_ctmdp_from_ctmc(chain)
        goal = np.array([False, False, True, False])
        for t in (0.2, 1.0, 3.0):
            expected = ctmc_reachability(chain, goal, t, epsilon=1e-12).values
            for objective in ("max", "min"):
                result = timed_reachability(ctmdp, goal, t, epsilon=1e-10, objective=objective)
                np.testing.assert_allclose(result.values, expected, atol=1e-8)

    def test_exponential_single_step(self):
        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {1: 3.0}), (1, "a", {1: 3.0})]
        )
        goal = np.array([False, True])
        for t in (0.1, 1.0):
            result = timed_reachability(ctmdp, goal, t, epsilon=1e-10)
            assert result.value(0) == pytest.approx(1.0 - math.exp(-3.0 * t), abs=1e-9)


class TestOptimisation:
    def test_max_at_least_min(self):
        ctmdp, goal = two_phase_race_ctmdp()
        for t in (0.01, 0.1, 0.5, 2.0):
            sup = timed_reachability(ctmdp, goal, t).value(0)
            inf = timed_reachability(ctmdp, goal, t, objective="min").value(0)
            assert sup >= inf - 1e-12

    def test_max_dominates_any_stationary_scheduler(self):
        ctmdp, goal = two_phase_race_ctmdp()
        t = 0.4
        sup = timed_reachability(ctmdp, goal, t, epsilon=1e-10).value(0)
        inf = timed_reachability(ctmdp, goal, t, epsilon=1e-10, objective="min").value(0)
        for choice0 in (0, 1):
            chain = ctmdp.induced_ctmc([choice0, 0, 0])
            value = ctmc_reachability(chain, [2], t, epsilon=1e-12).values[0]
            assert inf - 1e-9 <= value <= sup + 1e-9

    def test_crossover_makes_optimum_time_dependent(self):
        """For short horizons the direct slow path wins, for long ones
        the fast detour: the sup strictly exceeds both stationary
        schedulers somewhere in between."""
        ctmdp, goal = two_phase_race_ctmdp()
        direct = ctmdp.induced_ctmc([0, 0, 0])
        detour = ctmdp.induced_ctmc([1, 0, 0])
        # Identify which stationary choice is which by the rate into goal.
        values_small = (
            ctmc_reachability(direct, [2], 0.005, epsilon=1e-12).values[0],
            ctmc_reachability(detour, [2], 0.005, epsilon=1e-12).values[0],
        )
        values_large = (
            ctmc_reachability(direct, [2], 3.0, epsilon=1e-12).values[0],
            ctmc_reachability(detour, [2], 3.0, epsilon=1e-12).values[0],
        )
        # The winner flips between the horizons.
        assert (values_small[0] > values_small[1]) != (values_large[0] > values_large[1])
        for t in (0.005, 3.0):
            sup = timed_reachability(ctmdp, goal, t, epsilon=1e-10).value(0)
            stationary_best = max(
                ctmc_reachability(direct, [2], t, epsilon=1e-12).values[0],
                ctmc_reachability(detour, [2], t, epsilon=1e-12).values[0],
            )
            assert sup >= stationary_best - 1e-9

    def test_erlang_race_crossover(self):
        ctmdp, goal = erlang_vs_exponential_race()
        short = timed_reachability(ctmdp, goal, 0.05, epsilon=1e-9)
        long = timed_reachability(ctmdp, goal, 3.0, epsilon=1e-9)
        assert 0.0 < short.value(0) < long.value(0) <= 1.0


class TestScheduler:
    def test_recorded_scheduler_achieves_optimum(self, rng):
        ctmdp, goal = two_phase_race_ctmdp()
        t = 0.6
        result = timed_reachability(ctmdp, goal, t, epsilon=1e-8, record_scheduler=True)
        assert result.decisions is not None
        assert result.decisions.shape == (result.iterations, ctmdp.num_states)
        scheduler = StepScheduler(decisions=result.decisions)
        estimate = simulate_ctmdp_reachability(
            ctmdp, scheduler, goal={2}, t=t, runs=6000, rng=rng
        )
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= result.value(0) <= high

    def test_random_scheduler_below_max(self, rng):
        ctmdp, goal = two_phase_race_ctmdp()
        t = 0.6
        sup = timed_reachability(ctmdp, goal, t, epsilon=1e-8).value(0)
        estimate = simulate_ctmdp_reachability(
            ctmdp, UniformRandomScheduler(), goal={2}, t=t, runs=6000, rng=rng
        )
        low, _high = estimate.confidence_interval(z=4.0)
        assert low <= sup + 1e-9


class TestEdgeCases:
    def test_time_zero(self):
        ctmdp, goal = two_phase_race_ctmdp()
        result = timed_reachability(ctmdp, goal, 0.0)
        np.testing.assert_allclose(result.values, goal.astype(float))
        assert result.iterations == 0

    def test_empty_goal(self):
        ctmdp, _ = two_phase_race_ctmdp()
        result = timed_reachability(ctmdp, [], 1.0)
        np.testing.assert_allclose(result.values, 0.0)

    def test_goal_state_is_one(self):
        ctmdp, goal = two_phase_race_ctmdp()
        result = timed_reachability(ctmdp, goal, 1.0)
        assert result.values[2] == 1.0

    def test_absorbing_non_goal_state_is_zero(self):
        ctmdp = CTMDP.from_transitions(
            3, [(0, "a", {1: 1.0, 2: 1.0}), (1, "a", {1: 2.0})]
        )
        goal = np.array([False, True, False])
        result = timed_reachability(ctmdp, goal, 5.0)
        assert result.values[2] == 0.0
        assert 0.0 < result.values[0] < 1.0

    def test_values_within_unit_interval(self):
        ctmdp, goal = two_phase_race_ctmdp()
        for t in (0.1, 1.0, 10.0, 100.0):
            values = timed_reachability(ctmdp, goal, t).values
            assert (values >= 0.0).all() and (values <= 1.0).all()

    def test_monotone_in_time(self):
        ctmdp, goal = two_phase_race_ctmdp()
        values = [timed_reachability(ctmdp, goal, t).value(0) for t in (0.1, 0.5, 1.0, 5.0)]
        assert values == sorted(values)

    def test_non_uniform_rejected(self):
        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "b", {0: 7.0})]
        )
        with pytest.raises(NonUniformError):
            timed_reachability(ctmdp, [1], 1.0)

    def test_negative_time_rejected(self):
        ctmdp, goal = two_phase_race_ctmdp()
        with pytest.raises(ModelError):
            timed_reachability(ctmdp, goal, -1.0)

    def test_bad_objective_rejected(self):
        ctmdp, goal = two_phase_race_ctmdp()
        with pytest.raises(ModelError):
            timed_reachability(ctmdp, goal, 1.0, objective="best")

    def test_wrong_mask_shape_rejected(self):
        ctmdp, _ = two_phase_race_ctmdp()
        with pytest.raises(ModelError):
            timed_reachability(ctmdp, np.array([True]), 1.0)


class TestUnbounded:
    def test_converges_to_timed_limit(self):
        ctmdp, goal = two_phase_race_ctmdp()
        eventual = unbounded_reachability(ctmdp, goal)
        timed = timed_reachability(ctmdp, goal, 50.0, epsilon=1e-10)
        np.testing.assert_allclose(timed.values, eventual, atol=1e-6)

    def test_unreachable_is_zero(self):
        ctmdp = CTMDP.from_transitions(
            3, [(0, "a", {0: 1.0}), (1, "a", {2: 1.0}), (2, "a", {2: 1.0})]
        )
        values = unbounded_reachability(ctmdp, [2])
        assert values[0] == 0.0
        assert values[1] == 1.0

    def test_min_objective(self):
        ctmdp, goal = two_phase_race_ctmdp()
        values = unbounded_reachability(ctmdp, goal, objective="min")
        # Both choices eventually reach the goal with probability one.
        np.testing.assert_allclose(values, 1.0, atol=1e-9)

    def test_empty_goal(self):
        ctmdp, _ = two_phase_race_ctmdp()
        np.testing.assert_allclose(unbounded_reachability(ctmdp, []), 0.0)

    def test_bad_objective_rejected(self):
        ctmdp, goal = two_phase_race_ctmdp()
        with pytest.raises(ModelError):
            unbounded_reachability(ctmdp, goal, objective="avg")
