"""Regression tests for scheduler extraction under the ``min`` objective.

The historical bug: the argbest step of Algorithm 1's scheduler
recording used ``transition_values >= best - tol`` for *both*
objectives.  Under ``objective="min"`` every transition value is
``>=`` the segment minimum, so the "minimising" scheduler silently
degenerated to "always the first transition".  The model below is
crafted so that the first transition of the branching state is the
*maximiser* -- on the old code the recorded min scheduler achieves the
max value and every test here fails.
"""

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.core.reachability import replay_step_scheduler, timed_reachability
from repro.errors import ModelError
from tests.oracles.simulate import StepScheduler


def branching_model() -> CTMDP:
    """Uniform (E = 3) model where state 0's first transition is the
    max choice and its second the min choice: ``fast`` jumps straight
    into the goal, ``slow`` detours through state 2 which mostly leads
    back to 0."""
    return CTMDP.from_transitions(
        3,
        [
            (0, "fast", {1: 3.0}),
            (0, "slow", {2: 3.0}),
            (1, "stay", {1: 3.0}),
            (2, "back", {0: 2.0, 1: 1.0}),
        ],
    )


GOAL = [1]


class TestMinSchedulerExtraction:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_recorded_min_scheduler_achieves_min_value(self, t):
        """The headline regression: replaying the recorded min
        scheduler must reproduce the min values.  On the old ``>=``
        extraction the recording degenerates to the first (max)
        transition and the replayed value is the max value instead."""
        ctmdp = branching_model()
        result = timed_reachability(
            ctmdp, GOAL, t, epsilon=1e-10, objective="min", record_scheduler=True
        )
        assert result.decisions is not None
        replayed = replay_step_scheduler(
            ctmdp, GOAL, t, result.decisions, epsilon=1e-10
        )
        np.testing.assert_allclose(replayed.values, result.values, atol=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_min_scheduler_picks_the_slow_transition(self, t):
        """On this model the minimiser at state 0 is transition 1 at
        every recorded step with non-negligible Poisson weight."""
        ctmdp = branching_model()
        result = timed_reachability(
            ctmdp, GOAL, t, epsilon=1e-10, objective="min", record_scheduler=True
        )
        recorded = result.decisions[:, 0]
        assert (recorded[recorded >= 0] == 1).all()

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_first_transition_scheduler_is_strictly_worse(self, t):
        """What the old code recorded -- always the first transition --
        must be strictly worse (larger) than the true minimum, i.e. the
        model really discriminates the two extractions."""
        ctmdp = branching_model()
        result = timed_reachability(ctmdp, GOAL, t, epsilon=1e-10, objective="min")
        first_only = np.zeros((1, ctmdp.num_states), dtype=np.int32)
        degenerate = replay_step_scheduler(ctmdp, GOAL, t, first_only, epsilon=1e-10)
        assert degenerate.values[0] > result.value(0) + 0.1

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_recorded_max_scheduler_achieves_max_value(self, t):
        """The max direction must keep working after the fix."""
        ctmdp = branching_model()
        result = timed_reachability(
            ctmdp, GOAL, t, epsilon=1e-10, objective="max", record_scheduler=True
        )
        replayed = replay_step_scheduler(
            ctmdp, GOAL, t, result.decisions, epsilon=1e-10
        )
        np.testing.assert_allclose(replayed.values, result.values, atol=1e-12)

    def test_greedy_wrapper_row_convention_matches_replay(self):
        """A StepScheduler over the recorded decisions and
        replay_step_scheduler share the row convention: forward step j
        reads row j."""
        ctmdp = branching_model()
        result = timed_reachability(
            ctmdp, GOAL, 1.0, epsilon=1e-10, objective="min", record_scheduler=True
        )
        scheduler = StepScheduler(decisions=result.decisions)
        for step in (0, 1, len(result.decisions) + 5):
            row = min(step, len(result.decisions) - 1)
            expected = max(int(result.decisions[row][0]), 0)
            dist = scheduler.distribution(ctmdp, 0, step, [])
            assert dist[expected] == 1.0


class TestEvaluateStepScheduler:
    def test_t_zero_returns_goal_indicator(self):
        ctmdp = branching_model()
        values = replay_step_scheduler(
            ctmdp, GOAL, 0.0, np.zeros((1, 3), dtype=np.int32)
        ).values
        np.testing.assert_array_equal(values, [0.0, 1.0, 0.0])

    def test_rejects_bad_shapes(self):
        ctmdp = branching_model()
        with pytest.raises(ModelError):
            replay_step_scheduler(ctmdp, GOAL, 1.0, np.zeros((2, 5), dtype=np.int32))
        with pytest.raises(ModelError):
            replay_step_scheduler(ctmdp, GOAL, 1.0, np.zeros((0, 3), dtype=np.int32))

    def test_out_of_range_choices_clamp_like_step_scheduler(self):
        """-1 (no recorded choice) falls back to the first transition,
        matching StepScheduler's semantics."""
        ctmdp = branching_model()
        minus = np.full((1, 3), -1, dtype=np.int32)
        zeros = np.zeros((1, 3), dtype=np.int32)
        a = replay_step_scheduler(ctmdp, GOAL, 1.0, minus)
        b = replay_step_scheduler(ctmdp, GOAL, 1.0, zeros)
        np.testing.assert_array_equal(a.values, b.values)

    def test_bracketed_by_min_and_max(self):
        """Any recorded decision array evaluates between inf and sup."""
        ctmdp = branching_model()
        t = 1.5
        sup = timed_reachability(ctmdp, GOAL, t, epsilon=1e-10).values
        inf = timed_reachability(ctmdp, GOAL, t, epsilon=1e-10, objective="min").values
        rng = np.random.default_rng(7)
        counts = np.diff(ctmdp.choice_ptr)
        for _ in range(5):
            decisions = np.column_stack(
                [rng.integers(0, max(c, 1), size=40) for c in counts]
            ).astype(np.int32)
            values = replay_step_scheduler(ctmdp, GOAL, t, decisions, epsilon=1e-10).values
            assert (values <= sup + 1e-9).all()
            assert (values >= inf - 1e-9).all()
