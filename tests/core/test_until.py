"""Tests for time-bounded until (CTMDP and CTMC)."""

import math

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.core.reachability import timed_reachability
from repro.core.until import timed_until
from repro.ctmc.model import CTMC
from repro.ctmc.until import timed_until as ctmc_timed_until
from repro.errors import ModelError
from repro.models.zoo import two_phase_race_ctmdp


@pytest.fixture
def corridor() -> tuple[CTMDP, np.ndarray, np.ndarray]:
    """0 -> 1 -> 2(goal); 0 can also fall into 3 (unsafe) which leads to
    the goal as well -- until must not count the detour through 3."""
    ctmdp = CTMDP.from_transitions(
        4,
        [
            (0, "go", {1: 1.0, 3: 1.0}),
            (1, "go", {2: 1.0, 1: 1.0}),
            (2, "stay", {2: 2.0}),
            (3, "up", {2: 1.0, 3: 1.0}),
        ],
    )
    safe = np.array([True, True, False, False])
    goal = np.array([False, False, True, False])
    return ctmdp, safe, goal


class TestCTMDPUntil:
    def test_reduces_to_reachability_with_full_safe_set(self):
        ctmdp, goal = two_phase_race_ctmdp()
        safe = np.ones(ctmdp.num_states, dtype=bool)
        for t in (0.1, 1.0):
            reach = timed_reachability(ctmdp, goal, t, epsilon=1e-9)
            until = timed_until(ctmdp, safe, goal, t, epsilon=1e-9)
            np.testing.assert_allclose(until.values, reach.values, atol=1e-12)

    def test_unsafe_detour_excluded(self, corridor):
        ctmdp, safe, goal = corridor
        t = 2.0
        until = timed_until(ctmdp, safe, goal, t, epsilon=1e-10)
        reach = timed_reachability(ctmdp, goal, t, epsilon=1e-10)
        # Reachability counts the path through state 3; until does not.
        assert until.value(0) < reach.value(0)
        # Blocked state has value zero although it can reach the goal.
        assert until.values[3] == 0.0
        assert until.values[2] == 1.0

    def test_analytic_value(self, corridor):
        """From 0: the first jump must go to 1 (prob 1/2), then the next
        effective event must be the 1->2 move; all clocks race at rate 2
        with success probability 1/2 per step -- an explicit Poisson sum
        validates the implementation."""
        ctmdp, safe, goal = corridor
        t = 1.3
        until = timed_until(ctmdp, safe, goal, t, epsilon=1e-12)
        # P = sum_{n>=2} psi(n; 2t) * P(two successes happen as the
        # first two effective steps among n jumps): jump chain from 0:
        # to 1 w.p. 1/2 (else blocked); from 1 self-loop w.p. 1/2 each
        # step until the success.  Expand: P = sum_{k>=2} psi(k)
        # * 1/2 * (1 - (1/2)^{k-1}).
        lam = 2.0 * t
        total = 0.0
        for k in range(2, 200):
            psi = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
            total += psi * 0.5 * (1.0 - 0.5 ** (k - 1))
        assert until.value(0) == pytest.approx(total, abs=1e-9)

    def test_min_objective(self, corridor):
        ctmdp, safe, goal = corridor
        sup = timed_until(ctmdp, safe, goal, 1.0, objective="max")
        inf = timed_until(ctmdp, safe, goal, 1.0, objective="min")
        assert (inf.values <= sup.values + 1e-12).all()

    def test_time_zero(self, corridor):
        ctmdp, safe, goal = corridor
        result = timed_until(ctmdp, safe, goal, 0.0)
        np.testing.assert_allclose(result.values, goal.astype(float))

    def test_empty_goal(self, corridor):
        ctmdp, safe, _ = corridor
        result = timed_until(ctmdp, safe, [], 1.0)
        np.testing.assert_allclose(result.values, 0.0)

    def test_bad_objective_rejected(self, corridor):
        ctmdp, safe, goal = corridor
        with pytest.raises(ModelError):
            timed_until(ctmdp, safe, goal, 1.0, objective="avg")

    def test_negative_time_rejected(self, corridor):
        ctmdp, safe, goal = corridor
        with pytest.raises(ModelError):
            timed_until(ctmdp, safe, goal, -1.0)


class TestCTMCUntil:
    def test_matches_ctmdp_on_single_action_chain(self, corridor):
        ctmdp, safe, goal = corridor
        # Induce the (only) stationary scheduler's CTMC and compare.
        chain = ctmdp.induced_ctmc([0, 0, 0, 0])
        t = 1.3
        expected = timed_until(ctmdp, safe, goal, t, epsilon=1e-12)
        actual = ctmc_timed_until(chain, safe, goal, t, epsilon=1e-12)
        np.testing.assert_allclose(actual.values, expected.values, atol=1e-9)

    def test_reduces_to_reachability(self):
        from repro.ctmc.reachability import timed_reachability as ctmc_reach

        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)])
        safe = np.ones(3, dtype=bool)
        for t in (0.5, 2.0):
            np.testing.assert_allclose(
                ctmc_timed_until(chain, safe, [2], t).values,
                ctmc_reach(chain, [2], t).values,
                atol=1e-12,
            )

    def test_blocked_states_zero(self):
        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)])
        safe = np.array([True, False, False])
        values = ctmc_timed_until(chain, safe, [2], 5.0).values
        # The only route passes through blocked state 1.
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == 0.0
        assert values[2] == 1.0
