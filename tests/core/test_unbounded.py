"""Unbounded reachability pins its qualitative sets.

``core.reachability.unbounded_reachability`` fixes the objective's
Prob0 and Prob1 sets before value iteration, so every state whose value
is decided by the graph alone carries that exact value.  On the FTWC,
where every state reaches either goal almost surely, plain value
iteration runs its whole budget without converging; the pinned solve is
exactly 1 everywhere.  A solve that exhausts ``max_iterations`` raises
instead of returning the unconverged vector.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.ctmdp import CTMDP
from repro.core.reachability import (
    replay_step_scheduler,
    timed_reachability,
    unbounded_reachability,
)
from repro.errors import ConvergenceError
from repro.logic import check
from repro.models import ftwc_direct
from tests.core.test_reachability_properties import models_with_goals
from tests.oracles.value_iteration import (
    unbounded_reachability as plain_unbounded_reachability,
)


class TestAgreement:
    @given(data=models_with_goals())
    @settings(max_examples=40, deadline=None)
    def test_matches_plain_value_iteration(self, data):
        """The strategy's weights bound the VI contraction factor away
        from 1, so plain VI on the embedded DTMDP at tol=1e-13 is well
        inside 1e-6 of the fixpoint the pinned solve reaches."""
        ctmdp, goal = data
        embedded = ctmdp.embedded_dtmdp()
        for objective in ("max", "min"):
            pinned = unbounded_reachability(ctmdp, goal, objective=objective, tol=1e-13)
            plain = plain_unbounded_reachability(
                embedded, goal, objective=objective, tol=1e-13
            )
            np.testing.assert_allclose(pinned, plain, atol=1e-6)


class TestFTWC:
    @pytest.mark.parametrize("objective", ["max", "min"])
    @pytest.mark.parametrize("label", ["no_premium", "premium"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_every_state_is_exactly_one(self, n, label, objective):
        """Every FTWC state reaches either label almost surely under
        every scheduler.  Plain value iteration on ``no_premium`` ends
        its 1,000,000-step budget at 0.99238 from the initial state of
        N=2; the pinned solve is exact."""
        model = ftwc_direct.build_ctmdp(n)
        goal = model.goal_mask if label == "no_premium" else ~model.goal_mask
        values = unbounded_reachability(model.ctmdp, goal, objective=objective)
        assert (values == 1.0).all()

    def test_ctmc_route_is_exact(self):
        chain, _configs, goal = ftwc_direct.build_ctmc(2)
        labels = {"no_premium": goal, "premium": ~goal}
        result = check('P=? [ F "no_premium" ]', chain, labels)
        assert result.value == 1.0


def _slow_chain() -> tuple[CTMDP, np.ndarray]:
    """States 0..4 each move one step on or fall into the sink 6; 5 is
    the goal.  State ``i`` has value ``2 ** -(5 - i)``, which value
    iteration propagates one state per step."""
    transitions = [(i, "a", {i + 1: 1.0, 6: 1.0}) for i in range(5)]
    transitions += [(5, "stay", {5: 2.0}), (6, "stay", {6: 2.0})]
    goal = np.zeros(7, dtype=bool)
    goal[5] = True
    return CTMDP.from_transitions(7, transitions), goal


class TestBudget:
    def test_exhausted_budget_raises(self):
        ctmdp, goal = _slow_chain()
        with pytest.raises(ConvergenceError, match=r"within 3 iterations.*last delta"):
            unbounded_reachability(ctmdp, goal, max_iterations=3)
        with pytest.raises(ConvergenceError, match=r"within 3 iterations.*last delta"):
            plain_unbounded_reachability(ctmdp.embedded_dtmdp(), goal, max_iterations=3)

    def test_sufficient_budget_converges(self):
        ctmdp, goal = _slow_chain()
        expected = [1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0, 0.0]
        np.testing.assert_array_equal(
            unbounded_reachability(ctmdp, goal, max_iterations=6), expected
        )
        np.testing.assert_array_equal(
            plain_unbounded_reachability(ctmdp.embedded_dtmdp(), goal, max_iterations=6),
            expected,
        )


class TestSchedulerReplay:
    def test_min_scheduler_replays_the_zero(self):
        """States that cannot reach the goal stay exactly 0 in the min
        sweep, and replaying the recorded scheduler reproduces them."""
        ctmdp = CTMDP.from_transitions(
            4,
            [
                (0, "sure", {1: 2.0}),
                (0, "coin", {1: 1.0, 2: 1.0}),
                (1, "stay", {1: 2.0}),
                (2, "stay", {2: 2.0}),
                (3, "stay", {3: 2.0}),
            ],
        )
        goal = np.array([False, True, False, False])
        result = timed_reachability(
            ctmdp, goal, 2.0, epsilon=1e-10, objective="min", record_scheduler=True
        )
        replayed = replay_step_scheduler(
            ctmdp, goal, 2.0, result.decisions, epsilon=1e-10
        )
        np.testing.assert_allclose(replayed.values, result.values, atol=1e-9)
        assert replayed.values[2] == 0.0 and replayed.values[3] == 0.0
