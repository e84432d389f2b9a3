"""Tests for the stochastic job-scheduling case study."""

import math
from itertools import permutations

import numpy as np
import pytest

from repro.core.reachability import timed_reachability
from repro.ctmc.reachability import timed_reachability as ctmc_reachability
from repro.errors import ModelError
from repro.models.job_scheduling import build_job_scheduling


class TestStructure:
    def test_uniform_by_construction(self):
        model = build_job_scheduling([1.0, 2.0, 3.0], processors=2)
        assert model.ctmdp.is_uniform()
        assert model.ctmdp.uniform_rate() == pytest.approx(6.0)

    def test_state_count(self):
        model = build_job_scheduling([1.0, 2.0, 3.0], processors=2)
        assert model.ctmdp.num_states == 8
        assert model.state_of([]) == 0
        assert model.state_of([0, 2]) == 5

    def test_choices_are_running_subsets(self):
        model = build_job_scheduling([1.0, 1.0, 1.0], processors=2)
        full = model.ctmdp.num_states - 1
        assert model.ctmdp.num_choices(full) == 3  # C(3, 2)
        one_left = model.state_of([1])
        assert model.ctmdp.num_choices(one_left) == 1

    def test_validation(self):
        with pytest.raises(ModelError):
            build_job_scheduling([], processors=1)
        with pytest.raises(ModelError):
            build_job_scheduling([1.0, -2.0], processors=1)
        with pytest.raises(ModelError):
            build_job_scheduling([1.0], processors=0)
        with pytest.raises(ModelError):
            build_job_scheduling([1.0], processors=1).state_of([4])


class TestAnalysis:
    def test_single_processor_single_job(self):
        model = build_job_scheduling([2.0], processors=1)
        for t in (0.3, 1.0):
            result = timed_reachability(model.ctmdp, model.goal_mask, t, epsilon=1e-10)
            assert result.value(model.ctmdp.initial) == pytest.approx(
                1.0 - math.exp(-2.0 * t), abs=1e-9
            )

    def test_enough_processors_is_parallel_race(self):
        # With k >= m all jobs run: P(all done by t) = prod(1 - e^{-l t}).
        rates = [1.0, 2.0, 3.0]
        model = build_job_scheduling(rates, processors=3)
        t = 0.8
        result = timed_reachability(model.ctmdp, model.goal_mask, t, epsilon=1e-10)
        expected = np.prod([1.0 - math.exp(-r * t) for r in rates])
        assert result.value(model.ctmdp.initial) == pytest.approx(expected, abs=1e-8)

    def test_symmetric_jobs_make_all_policies_equal(self):
        model = build_job_scheduling([1.5] * 3, processors=2)
        t = 1.0
        sup = timed_reachability(model.ctmdp, model.goal_mask, t, epsilon=1e-9)
        inf = timed_reachability(
            model.ctmdp, model.goal_mask, t, epsilon=1e-9, objective="min"
        )
        assert sup.value(model.ctmdp.initial) == pytest.approx(
            inf.value(model.ctmdp.initial), abs=1e-9
        )

    def test_asymmetric_jobs_make_scheduling_matter(self):
        model = build_job_scheduling([0.5, 1.0, 4.0], processors=2)
        t = 1.5
        sup = timed_reachability(model.ctmdp, model.goal_mask, t, epsilon=1e-9)
        inf = timed_reachability(
            model.ctmdp, model.goal_mask, t, epsilon=1e-9, objective="min"
        )
        assert sup.value(model.ctmdp.initial) > inf.value(model.ctmdp.initial) + 1e-6

    def _static_policy_value(self, model, priority, t):
        """Induced CTMC of the static priority policy: in every state run
        the ``k`` remaining jobs that come first in ``priority``."""
        choices = np.zeros(model.ctmdp.num_states, dtype=np.int64)
        for state in range(1, model.ctmdp.num_states):
            remaining = [j for j in range(len(model.rates)) if state & (1 << j)]
            width = min(model.processors, len(remaining))
            preferred = tuple(
                sorted(sorted(remaining, key=priority.index)[:width])
            )
            transitions = model.ctmdp.transitions_of(state)
            for idx, transition in enumerate(transitions):
                if transition.action == "run{" + ",".join(map(str, preferred)) + "}":
                    choices[state] = idx
                    break
            else:  # pragma: no cover - defensive
                raise AssertionError("static choice not found")
        chain = model.ctmdp.induced_ctmc(choices)
        return ctmc_reachability(chain, model.goal_mask, t, epsilon=1e-11).values[
            model.ctmdp.initial
        ]

    def test_optimum_dominates_every_static_priority(self):
        rates = [0.5, 1.0, 4.0]
        model = build_job_scheduling(rates, processors=2)
        t = 1.2
        sup = timed_reachability(model.ctmdp, model.goal_mask, t, epsilon=1e-9).value(
            model.ctmdp.initial
        )
        inf = timed_reachability(
            model.ctmdp, model.goal_mask, t, epsilon=1e-9, objective="min"
        ).value(model.ctmdp.initial)
        static_values = [
            self._static_policy_value(model, list(priority), t)
            for priority in permutations(range(len(rates)))
        ]
        assert max(static_values) <= sup + 1e-8
        assert min(static_values) >= inf - 1e-8

    def test_more_processors_never_hurt(self):
        rates = [1.0, 2.0, 3.0]
        t = 0.7
        values = []
        for processors in (1, 2, 3):
            model = build_job_scheduling(rates, processors)
            values.append(
                timed_reachability(model.ctmdp, model.goal_mask, t, epsilon=1e-9).value(
                    model.ctmdp.initial
                )
            )
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9
