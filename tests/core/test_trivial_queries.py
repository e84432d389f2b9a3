"""Trivially answerable queries must not require uniformity.

The ``t == 0`` / empty-goal early returns used to call
``ctmdp.uniform_rate()``, so a trivially-zero query on a non-uniform
model raised :class:`~repro.errors.NonUniformError` although its answer
(the goal indicator) does not depend on the time dynamics at all.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.ctmdp import CTMDP
from repro.core.reachability import PreparedTimedReachability, timed_reachability
from repro.core.until import timed_until
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import PreparedCTMCReachability
from repro.ctmc.reachability import timed_reachability as ctmc_reachability
from repro.ctmc.until import timed_until as ctmc_until
from repro.errors import NonUniformError
from repro.obs import NumericalCertificate


def non_uniform_model() -> CTMDP:
    """Exit rates 2 and 5 -- decidedly not uniform."""
    return CTMDP.from_transitions(
        2,
        [
            (0, "a", {1: 2.0}),
            (1, "b", {0: 5.0}),
        ],
    )


def uniform_model() -> CTMDP:
    return CTMDP.from_transitions(
        2,
        [
            (0, "a", {1: 3.0}),
            (1, "b", {0: 3.0}),
        ],
    )


class TestReachabilityEarlyReturns:
    def test_empty_goal_on_non_uniform_model_does_not_raise(self):
        result = timed_reachability(non_uniform_model(), [], 10.0)
        np.testing.assert_array_equal(result.values, [0.0, 0.0])
        assert result.iterations == 0
        assert result.uniform_rate == 0.0

    @pytest.mark.parametrize("t", [0.0, 7.5])
    def test_empty_goal_every_time_bound(self, t):
        result = timed_reachability(non_uniform_model(), [], t, objective="min")
        assert result.values.sum() == 0.0
        assert result.time_bound == t

    def test_t_zero_on_uniform_model_reports_prepared_rate(self):
        """With a prepared (uniform) solver, the degenerate t=0 solve
        reports the actual rate without recomputing it."""
        prepared = PreparedTimedReachability(uniform_model(), [1])
        result = prepared.solve(0.0)
        np.testing.assert_array_equal(result.values, [0.0, 1.0])
        assert result.uniform_rate == 3.0
        assert result.iterations == 0

    def test_empty_goal_prepared_solver_reports_zero_rate(self):
        """The unprepared path (empty goal): no rate is ever computed,
        0.0 is reported."""
        prepared = PreparedTimedReachability(non_uniform_model(), [])
        result = prepared.solve(123.0)
        assert result.uniform_rate == 0.0
        assert not result.values.any()

    def test_preparing_nonempty_goal_on_non_uniform_still_fails_fast(self):
        """Non-trivial analyses on non-uniform models stay rejected at
        preparation -- the algorithm would be unsound there."""
        with pytest.raises(NonUniformError):
            PreparedTimedReachability(non_uniform_model(), [1])

    def test_t_zero_nonempty_goal_uniform_via_front_end(self):
        result = timed_reachability(uniform_model(), [1], 0.0)
        np.testing.assert_array_equal(result.values, [0.0, 1.0])


class TestUntilEarlyReturns:
    def test_t_zero_on_non_uniform_model_does_not_raise(self):
        model = non_uniform_model()
        result = timed_until(model, [0], [1], 0.0)
        np.testing.assert_array_equal(result.values, [0.0, 1.0])
        assert result.uniform_rate == 0.0
        assert result.iterations == 0

    def test_empty_goal_on_non_uniform_model_does_not_raise(self):
        model = non_uniform_model()
        result = timed_until(model, [0, 1], [], 50.0)
        assert not result.values.any()
        assert result.uniform_rate == 0.0

    def test_degenerate_until_on_uniform_model_reports_rate(self):
        """On a uniform model the early return still reports the true
        rate, preserving the old behaviour where it was well-defined."""
        result = timed_until(uniform_model(), [0], [1], 0.0)
        assert result.uniform_rate == 3.0

    def test_non_trivial_until_on_non_uniform_still_raises(self):
        with pytest.raises(NonUniformError):
            timed_until(non_uniform_model(), [0], [1], 1.0)


class TestNothingMoves:
    """When no state outside the goal (and, for until, outside the
    blocked set) has a transition, the goal and blocked states are
    absorbing and the answer is the goal indicator -- without a rate,
    a sweep or a Poisson window."""

    @staticmethod
    def assert_indicator(result, expected, algorithm, epsilon):
        np.testing.assert_array_equal(result.values, expected)
        assert result.iterations == 0
        assert result.certificate == NumericalCertificate.trivial(algorithm, epsilon)

    def test_ctmc_without_transitions(self):
        chain = CTMC(rates=sp.csr_matrix((2, 2)))
        result = ctmc_reachability(chain, [1], 10.0)
        self.assert_indicator(result, [0.0, 1.0], "ctmc.reachability", 1e-10)

    def test_ctmc_whose_only_transition_leaves_the_goal(self):
        chain = CTMC.from_transitions(3, [(2, 0, 1.0)], initial=0)
        result = PreparedCTMCReachability(chain, [2]).solve(10.0)
        self.assert_indicator(result, [0.0, 0.0, 1.0], "ctmc.reachability", 1e-10)

    def test_ctmdp_without_transitions(self):
        model = CTMDP.from_transitions(2, [])
        for objective in ("max", "min"):
            result = timed_reachability(model, [1], 10.0, objective=objective)
            self.assert_indicator(result, [0.0, 1.0], "ctmdp.reachability", 1e-6)
            assert result.uniform_rate == 0.0

    def test_ctmdp_whose_only_transition_leaves_the_goal(self):
        model = CTMDP.from_transitions(2, [(1, "a", {0: 2.0})])
        result = PreparedTimedReachability(model, [1]).solve(5.0)
        self.assert_indicator(result, [0.0, 1.0], "ctmdp.reachability", 1e-6)

    def test_ctmdp_until_with_non_uniform_blocked_states(self):
        """Only blocked states move, at exit rates 1 and 2."""
        model = CTMDP.from_transitions(
            3, [(0, "a", {1: 1.0}), (1, "b", {0: 2.0})]
        )
        result = timed_until(model, [], [2], 5.0)
        self.assert_indicator(result, [0.0, 0.0, 1.0], "ctmdp.until", 1e-6)

    def test_ctmc_until_with_only_blocked_transitions(self):
        chain = CTMC.from_transitions(2, [(0, 1, 1.0)])
        result = ctmc_until(chain, [], [1], 5.0)
        self.assert_indicator(result, [0.0, 1.0], "ctmc.reachability", 1e-10)
