"""The active-set sweep against the full-row oracle, bit for bit.

Algorithm 1's sweep iterates only the undecided states: not goal, not
blocked, with at least one transition.  Every other state has a
closed-form value at every step, so the answers must equal the full-row
recursion of :mod:`tests.oracles.sweep` exactly.  Recorded decisions
equal the oracle's at the swept states and follow a fixed template
everywhere else: the first transition (``0``) where a state has
transitions, ``-1`` where it has none.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctmdp import CTMDP
from repro.core.reachability import (
    PreparedTimedReachability,
    replay_step_scheduler,
    timed_reachability,
)
from repro.core.until import timed_until
from repro.models import ftwc_direct
from repro.models.job_scheduling import build_job_scheduling
from tests.core.test_reachability_properties import models_with_goals
from tests.oracles.sweep import full_row_replay, full_row_sweep

EPSILON = 1e-10


def _expected_decisions(ctmdp, goal, blocked, oracle):
    """The oracle's decisions at the swept states, the template elsewhere."""
    counts = np.diff(ctmdp.choice_ptr)
    template = np.where(counts > 0, 0, -1).astype(np.int32)
    swept = ~goal & (counts > 0)
    if blocked is not None:
        swept &= ~blocked
    return np.where(swept, oracle, template)


def _solve(ctmdp, goal, blocked, t, objective):
    if blocked is None:
        return timed_reachability(
            ctmdp, goal, t, epsilon=EPSILON, objective=objective, record_scheduler=True
        )
    return timed_until(
        ctmdp, ~blocked, goal, t, epsilon=EPSILON, objective=objective,
        record_scheduler=True,
    )


class TestOracleEquality:
    @given(data=models_with_goals(), t=st.floats(0.1, 10.0), until=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_values_and_decisions(self, data, t, until):
        ctmdp, goal = data
        blocked = None
        if until:
            blocked = np.zeros(ctmdp.num_states, dtype=bool)
            blocked[-1] = not goal[-1]
        for objective in ("max", "min"):
            values, decisions = full_row_sweep(
                ctmdp, goal, t, EPSILON, objective, blocked=blocked
            )
            result = _solve(ctmdp, goal, blocked, t, objective)
            np.testing.assert_array_equal(result.values, values)
            swept = ~goal & (np.diff(ctmdp.choice_ptr) > 0)
            if blocked is not None:
                swept &= ~blocked
            if not swept.any():
                # Nothing outside the goal and the blocked states moves:
                # the goal indicator, answered without a sweep.
                assert result.iterations == 0
                assert result.decisions is None
                continue
            np.testing.assert_array_equal(
                result.decisions.dense(),
                _expected_decisions(ctmdp, goal, blocked, decisions),
            )

    @pytest.mark.parametrize("until", [False, True])
    def test_deadlock_states_record_no_choice(self, until):
        """State 2 has no transition: value 0, decision ``-1``."""
        ctmdp = CTMDP.from_transitions(
            4,
            [
                (0, "a", {1: 1.0, 2: 1.0}),
                (0, "b", {3: 2.0}),
                (1, "stay", {1: 2.0}),
                (3, "back", {0: 1.0, 3: 1.0}),
            ],
        )
        goal = np.array([False, True, False, False])
        blocked = np.array([False, False, False, True]) if until else None
        for objective in ("max", "min"):
            values, decisions = full_row_sweep(
                ctmdp, goal, 2.0, EPSILON, objective, blocked=blocked
            )
            result = _solve(ctmdp, goal, blocked, 2.0, objective)
            np.testing.assert_array_equal(result.values, values)
            recorded = result.decisions.dense()
            np.testing.assert_array_equal(
                recorded, _expected_decisions(ctmdp, goal, blocked, decisions)
            )
            assert (recorded[:, 2] == -1).all()

    @given(data=models_with_goals(), t=st.floats(0.1, 10.0), until=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_replay(self, data, t, until):
        """Replay computes only the swept rows, with the same bits."""
        ctmdp, goal = data
        safe = blocked = None
        if until:
            safe = np.ones(ctmdp.num_states, dtype=bool)
            safe[-1] = False
            blocked = ~(safe | goal)
        rng = np.random.default_rng(int(t * 1e6))
        counts = np.diff(ctmdp.choice_ptr)
        decisions = rng.integers(-1, counts.max() + 1, size=(5, ctmdp.num_states))
        replayed = replay_step_scheduler(
            ctmdp, goal, t, decisions, epsilon=EPSILON, safe=safe
        )
        np.testing.assert_array_equal(
            replayed.values,
            full_row_replay(ctmdp, goal, t, decisions, EPSILON, blocked=blocked),
        )


class TestManyChoices:
    """The job-scheduling model has states with 3, 6, 10 and 15 choices:
    the sweep takes the 3-choice optima column by column and all wider
    ones with one ``reduceat``, and both must give the oracle's bits."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_job_scheduling([0.5, 0.8, 1.0, 1.5, 2.5, 4.0], processors=2)

    def test_layout_takes_both_paths(self, model):
        active = PreparedTimedReachability(model.ctmdp, model.goal_mask)._active
        assert 0 < active.num_wide < active.num_multi
        assert [choices for choices, _, _ in active.blocks] == [3]

    @pytest.mark.parametrize("until", [False, True])
    def test_values_and_decisions(self, model, until):
        ctmdp, goal = model.ctmdp, model.goal_mask
        blocked = None
        if until:
            blocked = np.zeros(ctmdp.num_states, dtype=bool)
            blocked[np.flatnonzero(~goal)[-5:]] = True
        for objective in ("max", "min"):
            values, decisions = full_row_sweep(
                ctmdp, goal, 3.0, EPSILON, objective, blocked=blocked
            )
            result = _solve(ctmdp, goal, blocked, 3.0, objective)
            np.testing.assert_array_equal(result.values, values)
            np.testing.assert_array_equal(
                result.decisions.dense(),
                _expected_decisions(ctmdp, goal, blocked, decisions),
            )

    def test_cone_solve(self, model):
        ctmdp, goal = model.ctmdp, model.goal_mask
        values, _ = full_row_sweep(ctmdp, goal, 3.0, 1e-6, "min")
        prepared = PreparedTimedReachability(ctmdp, goal, state=ctmdp.initial)
        value = prepared.solve(3.0, objective="min").value(ctmdp.initial)
        assert value.hex() == float(values[ctmdp.initial]).hex()


@pytest.fixture(scope="module", params=[4, 8, 16])
def ftwc(request):
    return ftwc_direct.build_ctmdp(request.param)


class TestFTWC:
    @pytest.mark.parametrize("label", ["no_premium", "premium"])
    @pytest.mark.parametrize("t", [1.0, 100.0, 500.0])
    def test_values_equal_oracle(self, ftwc, label, t):
        goal = ftwc.goal_mask if label == "no_premium" else ~ftwc.goal_mask
        prepared = PreparedTimedReachability(ftwc.ctmdp, goal)
        for objective in ("max", "min"):
            values, _ = full_row_sweep(ftwc.ctmdp, goal, t, 1e-6, objective)
            np.testing.assert_array_equal(
                prepared.solve(t, objective=objective).values, values
            )


@pytest.mark.parametrize("label", ["no_premium", "premium"])
def test_ftwc_decisions_follow_oracle_and_template(label):
    model = ftwc_direct.build_ctmdp(4)
    goal = model.goal_mask if label == "no_premium" else ~model.goal_mask
    for objective in ("max", "min"):
        _, decisions = full_row_sweep(model.ctmdp, goal, 100.0, 1e-6, objective)
        result = timed_reachability(
            model.ctmdp, goal, 100.0, objective=objective, record_scheduler=True
        )
        np.testing.assert_array_equal(
            result.decisions.dense(),
            _expected_decisions(model.ctmdp, goal, None, decisions),
        )
