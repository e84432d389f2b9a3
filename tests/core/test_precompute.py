"""Qualitative precomputation in the numeric solvers.

With ``precompute=True`` the timed engines also leave the Prob0 set of
the requested objective out of the sweep; the unbounded engine
additionally pins the Prob1 set.  Prob0 states are exactly 0 at every
step of the plain sweep too, so timed answers are bitwise identical to
the plain ones.  Unbounded value iteration stops on a tolerance, so its
comparison stays within epsilon.
"""

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
from repro.models import ftwc_direct
from tests.core.test_reachability_properties import models_with_goals


class TestTimedAgreement:
    @given(data=models_with_goals(), t=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_reachability_clamped_matches_plain(self, data, t):
        ctmdp, goal = data
        for objective in ("max", "min"):
            plain = timed_reachability(
                ctmdp, goal, t, epsilon=1e-10, objective=objective
            )
            clamped = timed_reachability(
                ctmdp, goal, t, epsilon=1e-10, objective=objective,
                precompute=True,
            )
            np.testing.assert_array_equal(clamped.values, plain.values)
            # At least the goal states leave the sweep.
            assert clamped.states_eliminated >= int(goal.sum())
            assert clamped.certificate.states_eliminated == clamped.states_eliminated
            assert plain.states_eliminated == 0

    @given(data=models_with_goals(), t=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_until_clamped_matches_plain(self, data, t):
        ctmdp, goal = data
        safe = np.ones(ctmdp.num_states, dtype=bool)
        safe[-1] = False
        for objective in ("max", "min"):
            plain = timed_until(
                ctmdp, safe, goal, t, epsilon=1e-10, objective=objective
            )
            clamped = timed_until(
                ctmdp, safe, goal, t, epsilon=1e-10, objective=objective,
                precompute=True,
            )
            np.testing.assert_array_equal(clamped.values, plain.values)
            assert clamped.states_eliminated >= int(goal.sum())


class TestUnboundedAgreement:
    @given(data=models_with_goals())
    @settings(max_examples=40, deadline=None)
    def test_clamped_matches_plain(self, data):
        """The strategy's weights bound the VI contraction factor away
        from 1, so plain VI at tol=1e-13 is well inside 1e-6 of the
        fixpoint the clamped solve pins exactly."""
        ctmdp, goal = data
        for objective in ("max", "min"):
            plain = unbounded_reachability(ctmdp, goal, objective=objective, tol=1e-13)
            clamped = unbounded_reachability(
                ctmdp, goal, objective=objective, tol=1e-13, precompute=True
            )
            np.testing.assert_allclose(clamped, plain, atol=1e-6)


class TestSchedulerReplay:
    def test_clamped_min_scheduler_replays_the_zero(self):
        """Clamped min-states carry a goal-avoiding witness choice, so
        replaying the recorded scheduler reproduces the exact zero."""
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
            ctmdp, goal, 2.0, epsilon=1e-10, objective="min",
            record_scheduler=True, precompute=True,
        )
        assert result.states_eliminated == 3  # goal 1 + zero states 2, 3
        replayed = replay_step_scheduler(
            ctmdp, goal, 2.0, result.decisions, epsilon=1e-10
        )
        np.testing.assert_allclose(replayed.values, result.values, atol=1e-9)
        assert replayed.values[2] == 0.0 and replayed.values[3] == 0.0

    @given(data=models_with_goals(), t=st.floats(0.1, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_recorded_scheduler_reproduces_clamped_values(self, data, t):
        ctmdp, goal = data
        for objective in ("max", "min"):
            result = timed_reachability(
                ctmdp, goal, t, epsilon=1e-10, objective=objective,
                record_scheduler=True, precompute=True,
            )
            replayed = replay_step_scheduler(
                ctmdp, goal, t, result.decisions, epsilon=1e-10
            )
            np.testing.assert_allclose(replayed.values, result.values, atol=1e-9)


class TestFTWCAnchors:
    def test_timed_value_and_elimination(self):
        """FTWC N=2, t=100: the 211 goal states fold into the scalar
        recursion (the Prob0 sets are empty) and the worst-case value
        equals the plain sweep's."""
        model = ftwc_direct.build_ctmdp(2)
        plain = timed_reachability(model.ctmdp, model.goal_mask, 100.0, epsilon=1e-6)
        clamped = timed_reachability(
            model.ctmdp, model.goal_mask, 100.0, epsilon=1e-6, precompute=True
        )
        assert clamped.states_eliminated == 211
        np.testing.assert_array_equal(clamped.values, plain.values)
        assert clamped.certificate.healthy

    def test_unbounded_precompute_beats_the_convergence_tail(self):
        """Every FTWC state is Prob1E, so Pmax(F goal) = 1 exactly.
        Plain VI stalls below 1 (the per-iteration delta under-runs the
        tolerance long before the slow-mixing fixpoint); the clamped
        solve pins the one-set and returns the exact answer.  This is
        the case for qualitative precomputation: it is not merely
        faster, on slow-mixing models it is *more correct*."""
        model = ftwc_direct.build_ctmdp(2)
        clamped = unbounded_reachability(
            model.ctmdp, model.goal_mask, objective="max", precompute=True
        )
        assert (clamped == 1.0).all()
        plain = unbounded_reachability(model.ctmdp, model.goal_mask, objective="max")
        assert (plain <= 1.0).all()
        # Document the tail: plain VI visibly under-shoots on this model.
        assert plain.min() < 1.0 - 1e-6
