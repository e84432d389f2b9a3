"""Tests for the qualitative (graph-based) reachability sets on CTMDPs."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.ctmdp import CTMDP
from repro.graph import graph_of, prob0_forall, prob1_exists, prob1_forall
from repro.mdp import unbounded_reachability
from repro.models.ftwc_direct import build_ctmdp
from tests.core.test_reachability_properties import models_with_goals


@pytest.fixture
def maze() -> CTMDP:
    """0 chooses between a sure path to 1(goal) and a coin that may drop
    into the trap 2; 3 is disconnected."""
    return CTMDP.from_transitions(
        4,
        [
            (0, "sure", {1: 1.0}),
            (0, "coin", {1: 1.0, 2: 1.0}),
            (1, "stay", {1: 1.0}),
            (2, "stay", {2: 1.0}),
            (3, "stay", {3: 1.0}),
        ],
    )


class TestCannotReach:
    def test_disconnected_state(self, maze):
        zero = prob0_forall(graph_of(maze), [1])
        np.testing.assert_array_equal(zero, [False, False, True, True])

    def test_goal_state_reaches_itself(self, maze):
        assert not prob0_forall(graph_of(maze), [1])[1]


class TestAlmostSure:
    def test_max_uses_the_sure_action(self, maze):
        sure = prob1_exists(graph_of(maze), [1])
        np.testing.assert_array_equal(sure, [True, True, False, False])

    def test_min_fails_because_of_the_coin(self, maze):
        always = prob1_forall(graph_of(maze), [1])
        # The adversary plays "coin" forever... one coin flip suffices to
        # possibly land in the trap, so state 0 is not almost-sure under
        # every scheduler.
        np.testing.assert_array_equal(always, [False, True, False, False])

    def test_single_action_chain(self):
        chain = CTMDP.from_transitions(
            3, [(0, "a", {1: 1.0}), (1, "a", {2: 1.0}), (2, "a", {2: 1.0})]
        )
        np.testing.assert_array_equal(prob1_exists(graph_of(chain), [2]), True)
        np.testing.assert_array_equal(prob1_forall(graph_of(chain), [2]), True)

    def test_ftwc_outage_unavoidable(self):
        """No repair policy can prevent the FTWC from eventually losing
        premium service: the goal is reached almost surely under every
        scheduler."""
        model = build_ctmdp(1)
        assert prob1_forall(graph_of(model.ctmdp), model.goal_mask).all()

    @given(data=models_with_goals())
    @settings(max_examples=40, deadline=None)
    def test_consistent_with_numeric_values(self, data):
        ctmdp, goal = data
        # Plain value iteration: the core solver pins these very sets.
        embedded = ctmdp.embedded_dtmdp()
        numeric_max = unbounded_reachability(embedded, goal, objective="max")
        numeric_min = unbounded_reachability(embedded, goal, objective="min")
        as_max = prob1_exists(graph_of(ctmdp), goal)
        as_min = prob1_forall(graph_of(ctmdp), goal)
        zero = prob0_forall(graph_of(ctmdp), goal)
        # Qualitative one-sets must be numeric ones and vice versa
        # (generous tolerance: value iteration approaches 1 from below).
        assert (numeric_max[as_max] > 1.0 - 1e-6).all()
        assert (numeric_min[as_min] > 1.0 - 1e-6).all()
        assert (numeric_max[zero] < 1e-12).all()
        # Monotonicity: almost-sure-for-all implies almost-sure-for-some.
        assert (as_max | ~as_min).all()
