"""Tests for expected hitting times in uniform CTMDPs."""

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.core.expected_time import expected_time_analysis
from repro.errors import ModelError
from repro.models.ftwc_direct import build_ctmdp
from repro.models.job_scheduling import build_job_scheduling
from repro.models.zoo import two_phase_race_ctmdp


class TestAnalytic:
    def test_single_exponential_step(self):
        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {1: 3.0}), (1, "a", {1: 3.0})]
        )
        times = expected_time_analysis(ctmdp, [1]).values
        assert times[0] == pytest.approx(1.0 / 3.0)
        assert times[1] == 0.0

    def test_erlang_chain(self):
        # Three sequential rate-2 steps: expected time 1.5.
        ctmdp = CTMDP.from_transitions(
            4,
            [
                (0, "a", {1: 2.0}),
                (1, "a", {2: 2.0}),
                (2, "a", {3: 2.0}),
                (3, "a", {3: 2.0}),
            ],
        )
        times = expected_time_analysis(ctmdp, [3]).values
        np.testing.assert_allclose(times, [1.5, 1.0, 0.5, 0.0], atol=1e-9)

    def test_geometric_retry(self):
        # From 0: rate 1 to goal, rate 3 back to 0 (self-loop): success
        # per jump w.p. 1/4, jumps at rate 4 -> E[T] = 1/(4 * 1/4) = 1.
        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {1: 1.0, 0: 3.0}), (1, "a", {1: 4.0})]
        )
        times = expected_time_analysis(ctmdp, [1]).values
        assert times[0] == pytest.approx(1.0, abs=1e-9)


class TestOptimisation:
    def test_min_picks_fast_branch(self):
        ctmdp, goal = two_phase_race_ctmdp(fast=10.0, slow=1.0)
        times = expected_time_analysis(ctmdp, goal, objective="min").values
        worst = expected_time_analysis(ctmdp, goal, objective="max").values
        # Direct branch: success rate 1 -> E[T] = 1.  Detour: two rate-10
        # phases with rate-1 self-loops at uniform rate 11: each phase
        # succeeds w.p. 10/11 per jump -> E = 2 * (11/10) * (1/11) = 0.2.
        assert times[0] == pytest.approx(0.2, abs=1e-9)
        assert worst[0] == pytest.approx(1.0, abs=1e-9)
        assert (times <= worst + 1e-12).all()

    def test_job_scheduling_single_processor_order_free(self):
        model = build_job_scheduling([1.0, 2.0, 4.0], processors=1)
        best = expected_time_analysis(model.ctmdp, model.goal_mask, "min").values
        worst = expected_time_analysis(model.ctmdp, model.goal_mask, "max").values
        expected = 1.0 + 0.5 + 0.25  # sum of service times
        assert best[model.ctmdp.initial] == pytest.approx(expected, abs=1e-8)
        assert worst[model.ctmdp.initial] == pytest.approx(expected, abs=1e-8)

    def test_job_scheduling_two_processors_scheduling_matters(self):
        model = build_job_scheduling([0.5, 1.0, 4.0], processors=2)
        best = expected_time_analysis(model.ctmdp, model.goal_mask, "min").values
        worst = expected_time_analysis(model.ctmdp, model.goal_mask, "max").values
        assert best[model.ctmdp.initial] < worst[model.ctmdp.initial] - 1e-6

    def test_ftwc_expected_time_to_outage(self):
        model = build_ctmdp(1)
        best = expected_time_analysis(model.ctmdp, model.goal_mask, "min").values
        worst = expected_time_analysis(model.ctmdp, model.goal_mask, "max").values
        start = model.ctmdp.initial
        # An outage takes hundreds of hours in expectation and the
        # adversarial repair assignment reaches it sooner.
        assert 100.0 < best[start] <= worst[start] < 1.0e6
        assert np.isfinite(worst[start])


class TestInfinite:
    def test_unreachable_goal_is_infinite(self):
        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {0: 1.0}), (1, "a", {1: 1.0})]
        )
        times = expected_time_analysis(ctmdp, [1]).values
        assert np.isinf(times[0])
        assert times[1] == 0.0

    def test_max_infinite_when_avoidable(self):
        # The scheduler can loop in 0 forever via the second action.
        ctmdp = CTMDP.from_transitions(
            2,
            [
                (0, "go", {1: 2.0}),
                (0, "loop", {0: 2.0}),
                (1, "stay", {1: 2.0}),
            ],
        )
        best = expected_time_analysis(ctmdp, [1], "min").values
        worst = expected_time_analysis(ctmdp, [1], "max").values
        assert best[0] == pytest.approx(0.5, abs=1e-9)
        assert np.isinf(worst[0])

    def test_empty_goal_all_infinite(self):
        ctmdp, _ = two_phase_race_ctmdp()
        assert np.isinf(expected_time_analysis(ctmdp, []).values).all()

    def test_bad_objective_rejected(self):
        ctmdp, goal = two_phase_race_ctmdp()
        with pytest.raises(ModelError):
            expected_time_analysis(ctmdp, goal, objective="avg")
