"""Tests for the direct closed-IMC simulator, and the independent
end-to-end validation of the transformation it enables."""

import math

import pytest

from repro.core.reachability import timed_reachability
from repro.errors import ModelError
from repro.imc.model import IMC, TAU, IMCBuilder
from repro.imc.transform import imc_to_ctmdp
from repro.sim.imc_sim import random_resolver, simulate_imc_reachability


class TestBasics:
    def test_exponential_delay(self, rng):
        imc = IMC(num_states=2, markov=[(0, 2.0, 1), (1, 2.0, 1)])
        t = 0.6
        estimate = simulate_imc_reachability(imc, {1}, t, runs=8000, rng=rng)
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= 1.0 - math.exp(-2.0 * t) <= high

    def test_zero_time_interactive_visits_count(self, rng):
        # 0 -(rate)-> 1 -tau-> 2 -tau-> 0: state 2 is only ever visited
        # for zero time, but visits count.
        imc = IMC(
            num_states=3,
            interactive=[(1, TAU, 2), (2, TAU, 0)],
            markov=[(0, 1.0, 1)],
        )
        t = 1.0
        estimate = simulate_imc_reachability(imc, {2}, t, runs=6000, rng=rng)
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= 1.0 - math.exp(-t) <= high

    def test_absorbing_dead_end(self, rng):
        imc = IMC(num_states=2, markov=[(0, 1.0, 1)])
        estimate = simulate_imc_reachability(imc, {0}, 1.0, runs=10, rng=rng)
        assert estimate.probability == 1.0  # start state is goal
        estimate = simulate_imc_reachability(
            IMC(num_states=3, markov=[(0, 1.0, 1)]), {2}, 10.0, runs=50, rng=rng
        )
        assert estimate.probability == 0.0

    def test_zeno_guard(self, rng):
        imc = IMC(num_states=2, interactive=[(0, TAU, 1), (1, TAU, 0)])
        with pytest.raises(ModelError, match="Zeno"):
            simulate_imc_reachability(imc, {}, 1.0, runs=1, rng=rng, max_interactive_steps=10)

    def test_invalid_runs(self, rng):
        imc = IMC(num_states=2, markov=[(0, 1.0, 1)])
        with pytest.raises(ModelError):
            simulate_imc_reachability(imc, {1}, 1.0, runs=0, rng=rng)

    def test_bad_resolver_detected(self, rng):
        imc = IMC(
            num_states=2,
            interactive=[(0, TAU, 1)],
            markov=[(1, 1.0, 0)],
        )
        with pytest.raises(ModelError, match="resolver"):
            simulate_imc_reachability(
                imc, {}, 1.0, resolver=lambda m, s, h: 7, runs=1, rng=rng
            )


class TestTheoremOneEndToEnd:
    """Independent validation: the IMC's native semantics (simulated)
    agrees with the transformed CTMDP's analytic bounds."""

    def _nondeterministic_model(self):
        builder = IMCBuilder()
        start = builder.state("start")
        choice = builder.state("choice")
        fast = builder.state("fast")
        slow = builder.state("slow")
        goal = builder.state("goal")
        builder.markov(start, 4.0, choice)
        builder.tau(choice, fast)
        builder.tau(choice, slow)
        builder.markov(fast, 4.0, goal)
        builder.markov(slow, 1.0, goal)
        builder.markov(slow, 3.0, start)
        builder.tau(goal, start)
        return builder.build(initial=start), goal

    def test_random_resolution_within_bounds(self, rng):
        imc, goal_state = self._nondeterministic_model()
        t = 0.8
        result = imc_to_ctmdp(imc, require_uniform=True)
        mask = result.goal_mask_from_predicate(
            lambda s: s == goal_state, via="interactive"
        )
        sup = timed_reachability(result.ctmdp, mask, t, epsilon=1e-9).value(
            result.ctmdp.initial
        )
        inf = timed_reachability(
            result.ctmdp, mask, t, epsilon=1e-9, objective="min"
        ).value(result.ctmdp.initial)
        estimate = simulate_imc_reachability(
            imc, {goal_state}, t, resolver=random_resolver(rng), runs=6000, rng=rng
        )
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= sup + 1e-9
        assert high >= inf - 1e-9

    def test_deterministic_resolution_within_bounds(self, rng):
        imc, goal_state = self._nondeterministic_model()
        t = 0.8
        result = imc_to_ctmdp(imc, require_uniform=True)
        mask = result.goal_mask_from_predicate(
            lambda s: s == goal_state, via="interactive"
        )
        sup = timed_reachability(result.ctmdp, mask, t, epsilon=1e-9).value(
            result.ctmdp.initial
        )
        inf = timed_reachability(
            result.ctmdp, mask, t, epsilon=1e-9, objective="min"
        ).value(result.ctmdp.initial)

        def first_listed(imc, state, history):
            return 0

        estimate = simulate_imc_reachability(
            imc, {goal_state}, t, resolver=first_listed, runs=6000, rng=rng
        )
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= sup + 1e-9
        assert high >= inf - 1e-9

    def test_deterministic_ctmc_like_model_matches_exactly(self, rng):
        # Without nondeterminism: the analytic value must lie inside the
        # simulation confidence interval.
        imc = IMC(
            num_states=3,
            interactive=[(1, TAU, 2)],
            markov=[(0, 2.0, 1), (2, 2.0, 0)],
        )
        t = 1.0
        result = imc_to_ctmdp(imc)
        mask = result.goal_mask_from_predicate(lambda s: s == 2, via="markov")
        value = timed_reachability(result.ctmdp, mask, t, epsilon=1e-10).value(
            result.ctmdp.initial
        )
        estimate = simulate_imc_reachability(imc, {2}, t, runs=8000, rng=rng)
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= value <= high
