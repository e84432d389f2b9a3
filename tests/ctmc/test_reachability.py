"""Tests for CTMC time-bounded reachability."""

import math

import numpy as np
import pytest

from repro.ctmc.model import CTMC
from repro.ctmc.reachability import timed_reachability, timed_reachability_curve
from repro.errors import ModelError
from repro.states import state_mask
from tests.zoo import queue_with_breakdowns


class TestAnalytic:
    def test_single_exponential_step(self):
        chain = CTMC.from_transitions(2, [(0, 1, 3.0)])
        for t in (0.1, 0.5, 2.0):
            value = timed_reachability(chain, [1], t).values[0]
            assert value == pytest.approx(1.0 - math.exp(-3.0 * t), abs=1e-9)

    def test_two_sequential_steps_erlang(self):
        chain = CTMC.from_transitions(3, [(0, 1, 2.0), (1, 2, 2.0)])
        t = 1.3
        # Erlang(2, 2) cdf.
        expected = 1.0 - math.exp(-2.0 * t) * (1.0 + 2.0 * t)
        assert timed_reachability(chain, [2], t).values[0] == pytest.approx(expected, abs=1e-9)

    def test_race_branching_probability(self):
        # From 0: rate 1 to goal, rate 3 elsewhere (absorbing).  The
        # eventual probability is 1/4, approached as t grows.
        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (0, 2, 3.0)])
        value = timed_reachability(chain, [1], 50.0).values[0]
        assert value == pytest.approx(0.25, abs=1e-9)

    def test_goal_state_has_probability_one(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        values = timed_reachability(chain, [1], 1.0).values
        assert values[1] == 1.0

    def test_time_zero(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        np.testing.assert_allclose(timed_reachability(chain, [1], 0.0).values, [0.0, 1.0])

    def test_leaving_goal_does_not_matter(self):
        # Visiting B counts even if the chain would leave B again.
        chain = CTMC.from_transitions(2, [(0, 1, 2.0), (1, 0, 100.0)])
        t = 1.0
        value = timed_reachability(chain, [1], t).values[0]
        assert value == pytest.approx(1.0 - math.exp(-2.0 * t), abs=1e-9)

    def test_unreachable_goal_zero(self):
        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 0, 1.0)])
        assert timed_reachability(chain, [2], 10.0).values[0] == pytest.approx(0.0, abs=1e-12)


class TestProperties:
    def test_monotone_in_time(self):
        chain, goal = queue_with_breakdowns(capacity=3)
        values = [timed_reachability(chain, goal, t).values[chain.initial] for t in (1.0, 2.0, 5.0, 10.0)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_empty_goal_zero(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        np.testing.assert_allclose(timed_reachability(chain, [], 4.0).values, 0.0)

    def test_negative_time_rejected(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        with pytest.raises(ModelError):
            timed_reachability(chain, [1], -1.0)

    def test_goal_mask_validates_range(self):
        with pytest.raises(ModelError):
            state_mask(3, [5])


class TestCurve:
    def test_matches_pointwise_solver(self):
        chain, goal = queue_with_breakdowns(capacity=3)
        ts = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        curve = timed_reachability_curve(chain, goal, ts, epsilon=1e-12)
        pointwise = [timed_reachability(chain, goal, t, epsilon=1e-12).values[chain.initial] for t in ts]
        np.testing.assert_allclose(curve, pointwise, atol=1e-9)

    def test_start_in_goal_is_constant_one(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)], initial=1)
        curve = timed_reachability_curve(chain, [1], [0.0, 1.0, 2.0])
        np.testing.assert_allclose(curve, 1.0)

    def test_custom_start_state(self):
        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)])
        curve = timed_reachability_curve(chain, [2], [1.0], initial=1)
        assert curve[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)

    def test_monotone(self):
        chain, goal = queue_with_breakdowns(capacity=2)
        curve = timed_reachability_curve(chain, goal, [0.5, 1.0, 3.0, 9.0])
        assert list(curve) == sorted(curve)

    def test_negative_time_rejected(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        with pytest.raises(ModelError):
            timed_reachability_curve(chain, [1], [-2.0])


class TestIntervalReachability:
    def test_degenerate_window_equals_plain_reachability(self):
        from repro.ctmc.reachability import interval_reachability_analysis

        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0)])
        for t in (0.5, 2.0):
            plain = timed_reachability(chain, [2], t, epsilon=1e-12).values[0]
            window = interval_reachability_analysis(chain, [2], 0.0, t, epsilon=1e-12).value
            assert window == pytest.approx(plain, abs=1e-9)

    def test_early_visits_do_not_count(self):
        from repro.ctmc.reachability import interval_reachability_analysis

        # Fast into goal, fast out again: being in the goal during the
        # window is unlikely if the window starts late.
        chain = CTMC.from_transitions(3, [(0, 1, 50.0), (1, 2, 50.0)])
        # Goal = state 1, visited around t ~ 0.02 and left immediately.
        late = interval_reachability_analysis(chain, [1], 1.0, 1.5, epsilon=1e-12).value
        early = interval_reachability_analysis(chain, [1], 0.0, 0.5, epsilon=1e-12).value
        assert late < 1e-6
        assert early > 0.999

    def test_point_window(self):
        from repro.ctmc.reachability import interval_reachability_analysis

        # [t, t]: probability to BE in the goal exactly at t.
        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        t = 0.8
        from repro.ctmc.uniformization import transient_analysis

        expected = transient_analysis(chain, t, epsilon=1e-12).distribution[1]
        value = interval_reachability_analysis(chain, [1], t, t, epsilon=1e-12).value
        assert value == pytest.approx(expected, abs=1e-9)

    def test_window_validation(self):
        from repro.ctmc.reachability import interval_reachability_analysis
        from repro.errors import ModelError

        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        with pytest.raises(ModelError):
            interval_reachability_analysis(chain, [1], 2.0, 1.0)
        with pytest.raises(ModelError):
            interval_reachability_analysis(chain, [1], -1.0, 1.0)

    def test_monotone_in_window_end(self):
        from repro.ctmc.reachability import interval_reachability_analysis

        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        values = [
            interval_reachability_analysis(chain, [2], 1.0, end, epsilon=1e-12).value
            for end in (1.0, 2.0, 4.0)
        ]
        assert values == sorted(values)


class TestIntervalCertificate:
    def chain(self) -> CTMC:
        return CTMC.from_transitions(
            3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0)]
        )

    def test_composed_certificate_is_healthy(self):
        from repro.ctmc.reachability import interval_reachability_analysis

        result = interval_reachability_analysis(
            self.chain(), [2], 1.0, 4.0, epsilon=1e-10
        )
        certificate = result.certificate
        assert certificate.algorithm == "ctmc.interval_reachability"
        assert certificate.healthy
        # Each stage was granted epsilon, so the composite budget doubles.
        assert certificate.epsilon == pytest.approx(2e-10)
        assert certificate.error_bound >= 0.0
        assert 0.0 <= result.value <= 1.0

    def test_bare_value_is_bitwise_identical(self):
        """The value is exactly the transient distribution at the window
        start dotted with the reachability values over the window."""
        from repro.ctmc.reachability import (
            interval_reachability_analysis,
            timed_reachability,
        )
        from repro.ctmc.uniformization import transient_analysis

        chain = self.chain()
        transient = transient_analysis(chain, 0.5, epsilon=1e-11)
        reach = timed_reachability(chain, [2], 2.5, epsilon=1e-11)
        bare = float(np.clip(transient.distribution @ reach.values, 0.0, 1.0))
        analysed = interval_reachability_analysis(chain, [2], 0.5, 3.0, epsilon=1e-11)
        assert bare == analysed.value

    def test_error_bound_dominates_the_stages(self):
        from repro.ctmc.reachability import (
            PreparedCTMCReachability,
            interval_reachability_analysis,
        )
        from repro.ctmc.uniformization import transient_analysis

        chain = self.chain()
        composed = interval_reachability_analysis(
            chain, [2], 1.0, 4.0, epsilon=1e-10
        ).certificate
        pi0 = np.zeros(3)
        pi0[chain.initial] = 1.0
        a = transient_analysis(
            chain, 1.0, initial_distribution=pi0, epsilon=1e-10
        ).certificate
        solver = PreparedCTMCReachability(chain, np.array([False, False, True]))
        b = solver.solve(3.0, epsilon=1e-10).certificate
        # |pi~.v~ - pi.v| <= a + b + a*b: the composed bound carries both.
        assert composed.error_bound == pytest.approx(
            a.error_bound + b.error_bound + a.error_bound * b.error_bound
        )
        assert composed.right == a.right + b.right

    def test_check_returns_the_composed_certificate(self):
        from repro.logic.check import check

        chain = self.chain()
        labels = {"goal": np.array([False, False, True])}
        result = check('P=? [ F[1,4] "goal" ]', chain, labels, epsilon=1e-10)
        assert result.certificate is not None
        assert result.certificate.algorithm == "ctmc.interval_reachability"
        assert result.certificate.healthy
        assert 0.0 <= result.value <= 1.0
