"""Property-based tests for Algorithm 1 over random uniform CTMDPs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctmdp import CTMDP
from repro.core.reachability import (
    replay_step_scheduler,
    timed_reachability,
    unbounded_reachability,
)
from repro.core.until import timed_until
from repro.ctmc.reachability import timed_reachability as ctmc_reachability
from tests.oracles.simulate import StepScheduler


@st.composite
def random_uniform_ctmdps(draw, max_states: int = 6, rate: float = 3.0):
    """A random uniform CTMDP where every state has 1..3 transitions."""
    n = draw(st.integers(min_value=2, max_value=max_states))
    transitions = []
    for state in range(n):
        for choice in range(draw(st.integers(1, 3))):
            branches = draw(st.integers(1, 3))
            targets = [draw(st.integers(0, n - 1)) for _ in range(branches)]
            weights = [draw(st.floats(0.1, 1.0)) for _ in range(branches)]
            total = sum(weights)
            rates: dict[int, float] = {}
            for target, weight in zip(targets, weights):
                rates[target] = rates.get(target, 0.0) + rate * weight / total
            transitions.append((state, f"a{choice}", rates))
    return CTMDP.from_transitions(n, transitions)


@st.composite
def models_with_goals(draw):
    ctmdp = draw(random_uniform_ctmdps())
    mask = np.zeros(ctmdp.num_states, dtype=bool)
    mask[draw(st.integers(0, ctmdp.num_states - 1))] = True
    return ctmdp, mask


class TestInvariants:
    @given(data=models_with_goals(), t=st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_values_in_unit_interval(self, data, t):
        ctmdp, goal = data
        for objective in ("max", "min"):
            values = timed_reachability(ctmdp, goal, t, objective=objective).values
            assert (values >= 0.0).all()
            assert (values <= 1.0).all()

    @given(data=models_with_goals())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_time(self, data):
        ctmdp, goal = data
        values = [
            timed_reachability(ctmdp, goal, t, epsilon=1e-9).value(0)
            for t in (0.2, 1.0, 4.0)
        ]
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9

    @given(data=models_with_goals(), t=st.floats(0.1, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_max_dominates_min(self, data, t):
        ctmdp, goal = data
        sup = timed_reachability(ctmdp, goal, t).values
        inf = timed_reachability(ctmdp, goal, t, objective="min").values
        assert (sup >= inf - 1e-10).all()

    @given(data=models_with_goals(), t=st.floats(0.1, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_every_stationary_scheduler_bracketed(self, data, t):
        ctmdp, goal = data
        sup = timed_reachability(ctmdp, goal, t, epsilon=1e-9).values
        inf = timed_reachability(ctmdp, goal, t, epsilon=1e-9, objective="min").values
        counts = np.diff(ctmdp.choice_ptr)
        # Try the all-first and all-last stationary schedulers.
        for pick in (np.zeros_like(counts), counts - 1):
            chain = ctmdp.induced_ctmc(pick)
            values = ctmc_reachability(chain, goal, t, epsilon=1e-11).values
            assert (values <= sup + 1e-7).all()
            assert (values >= inf - 1e-7).all()

    @given(data=models_with_goals(), t=st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_until_below_reachability(self, data, t):
        ctmdp, goal = data
        safe = np.ones(ctmdp.num_states, dtype=bool)
        safe[-1] = False  # forbid one state
        reach = timed_reachability(ctmdp, goal, t, epsilon=1e-9).values
        until = timed_until(ctmdp, safe, goal, t, epsilon=1e-9).values
        assert (until <= reach + 1e-9).all()

    @given(data=models_with_goals())
    @settings(max_examples=30, deadline=None)
    def test_timed_converges_to_unbounded(self, data):
        """Timed values approach the unbounded values from below, and
        the gap shrinks with the horizon.  (Random models can mix
        arbitrarily slowly, so no fixed horizon reaches the limit to
        fixed precision; monotone convergence is the robust claim.)"""
        ctmdp, goal = data
        eventual = unbounded_reachability(ctmdp, goal, tol=1e-13)
        short = timed_reachability(ctmdp, goal, 30.0, epsilon=1e-10).values
        long = timed_reachability(ctmdp, goal, 90.0, epsilon=1e-10).values
        assert (short <= eventual + 1e-7).all()
        assert (long <= eventual + 1e-7).all()
        gap_short = np.max(eventual - short)
        gap_long = np.max(eventual - long)
        assert gap_long <= gap_short + 1e-9

    @given(data=models_with_goals(), t=st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_epsilon_refinement_consistent(self, data, t):
        ctmdp, goal = data
        coarse = timed_reachability(ctmdp, goal, t, epsilon=1e-4).values
        fine = timed_reachability(ctmdp, goal, t, epsilon=1e-10).values
        np.testing.assert_allclose(coarse, fine, atol=2e-4)

    @given(data=models_with_goals(), t=st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_recorded_scheduler_reproduces_optimum_both_objectives(self, data, t):
        """The extracted greedy scheduler is optimal for *both*
        objectives: replaying the recorded decisions through the exact
        Poisson recursion reproduces the optimal values.  (This is the
        property the min-objective extraction bug violated.)"""
        ctmdp, goal = data
        for objective in ("max", "min"):
            result = timed_reachability(
                ctmdp, goal, t, epsilon=1e-10, objective=objective,
                record_scheduler=True,
            )
            assert result.decisions is not None
            # A step scheduler must accept exactly this array shape.
            scheduler = StepScheduler(decisions=result.decisions)
            assert len(scheduler.decisions) == result.iterations
            replayed = replay_step_scheduler(
                ctmdp, goal, t, result.decisions, epsilon=1e-10
            )
            np.testing.assert_allclose(replayed.values, result.values, atol=1e-9)

    @given(data=models_with_goals(), t=st.floats(0.1, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_recorded_scheduler_reproduces_value_when_stationary(self, data, t):
        """If the recorded optimal decisions happen to be the same at
        every step, the induced CTMC must achieve exactly the optimum."""
        ctmdp, goal = data
        result = timed_reachability(
            ctmdp, goal, t, epsilon=1e-10, record_scheduler=True
        )
        decisions = result.decisions
        if decisions is None or len(decisions) == 0:
            return
        stationary = (decisions == decisions[0]).all()
        if not stationary:
            return
        pick = np.maximum(decisions[0], 0)
        chain = ctmdp.induced_ctmc(pick)
        values = ctmc_reachability(chain, goal, t, epsilon=1e-12).values
        np.testing.assert_allclose(values, result.values, atol=1e-7)
