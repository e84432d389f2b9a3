"""One-state solves: the start state's cone against the full sweep.

A solver prepared for a start state sweeps only the non-goal states the
start reaches through non-goal states that can also reach the goal.
Its value at the start -- and, when it sweeps at all, its iteration
count and certificate -- must be bitwise those of the all-states sweep.
A start in the goal (1) or one that cannot reach it (0) is answered
without a sweep, and a state the solve did not compute is never read as
a number.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctmdp import CTMDP
from repro.core.reachability import PreparedTimedReachability
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import PreparedCTMCReachability
from repro.errors import ModelError
from repro.obs import NumericalCertificate
from tests.core.test_reachability_properties import models_with_goals

EPSILON = 1e-10


@st.composite
def ctmcs_with_goals(draw, max_states: int = 6):
    """A random non-uniform CTMC, 0..3 edges per state, with a random
    goal set that leaves at least one state outside."""
    n = draw(st.integers(2, max_states))
    rates = sp.lil_matrix((n, n))
    for src in range(n):
        for _ in range(draw(st.integers(0, 3))):
            rates[src, draw(st.integers(0, n - 1))] += draw(st.floats(0.1, 5.0))
    goal = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    goal[draw(st.integers(0, n - 1))] = False
    return CTMC(rates=sp.csr_matrix(rates)), goal


def _assert_cone_matches(full, cone, start):
    """The start's value is bitwise the full sweep's; so is every other
    number the cone solve reports, its iteration count and its
    certificate, except that the sweep residual (the largest excursion
    outside ``[0, 1]``) is taken over the computed states only: it can
    only be smaller, never larger, than the full sweep's."""
    assert cone.value(start).hex() == full.value(start).hex()
    computed = ~np.isnan(cone.values)
    assert computed[start]
    np.testing.assert_array_equal(cone.values[computed], full.values[computed])
    if cone.iterations:
        assert cone.iterations == full.iterations
        assert cone.certificate.sweep_residual <= full.certificate.sweep_residual
        assert cone.certificate.error_bound <= full.certificate.error_bound
        assert replace(
            cone.certificate,
            sweep_residual=full.certificate.sweep_residual,
            error_bound=full.certificate.error_bound,
        ) == full.certificate


class TestGeneratedModels:
    @given(
        data=models_with_goals(),
        start=st.integers(0, 5),
        t=st.floats(0.0, 10.0),
        objective=st.sampled_from(["max", "min"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_ctmdp(self, data, start, t, objective):
        ctmdp, goal = data
        start %= ctmdp.num_states
        full = PreparedTimedReachability(ctmdp, goal).solve(t, EPSILON, objective)
        cone = PreparedTimedReachability(ctmdp, goal, state=start).solve(
            t, EPSILON, objective
        )
        _assert_cone_matches(full, cone, start)

    @given(data=ctmcs_with_goals(), start=st.integers(0, 5), t=st.floats(0.0, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_ctmc(self, data, start, t):
        ctmc, goal = data
        start %= ctmc.num_states
        full = PreparedCTMCReachability(ctmc, goal).solve(t, EPSILON)
        cone = PreparedCTMCReachability(ctmc, goal, state=start).solve(t, EPSILON)
        _assert_cone_matches(full, cone, start)


def _chain_ctmdp():
    """0 -> 1 -> goal 2; 3 is a trap; 4 reaches the goal but not from 0."""
    return CTMDP.from_transitions(
        5,
        [
            (0, "a", {1: 2.0}),
            (0, "b", {3: 2.0}),
            (1, "a", {2: 1.0, 1: 1.0}),
            (2, "a", {2: 2.0}),
            (3, "a", {3: 2.0}),
            (4, "a", {2: 2.0}),
        ],
    )


GOAL = np.array([False, False, True, False, False])


class TestTrivialStarts:
    @pytest.mark.parametrize(("start", "expected"), [(2, 1.0), (3, 0.0)])
    def test_ctmdp(self, start, expected):
        solver = PreparedTimedReachability(_chain_ctmdp(), GOAL, state=start)
        for objective in ("max", "min"):
            result = solver.solve(5.0, EPSILON, objective)
            assert result.value(start) == expected
            assert result.iterations == 0
            assert result.certificate == NumericalCertificate.trivial(
                "ctmdp.reachability", EPSILON
            )

    @pytest.mark.parametrize(("start", "expected"), [(2, 1.0), (3, 0.0)])
    def test_ctmc(self, start, expected):
        ctmc = CTMC(rates=_chain_ctmdp().rate_matrix[[0, 2, 3, 4, 5]].tocsr())
        result = PreparedCTMCReachability(ctmc, GOAL, state=start).solve(5.0, EPSILON)
        assert result.value(start) == expected
        assert result.iterations == 0
        assert result.certificate == NumericalCertificate.trivial(
            "ctmc.reachability", EPSILON
        )


class TestUncomputedStates:
    def test_states_outside_the_cone_raise(self):
        result = PreparedTimedReachability(_chain_ctmdp(), GOAL, state=0).solve(5.0)
        assert result.iterations > 0
        assert 0.0 < result.value(0) < 1.0
        assert 0.0 < result.value(1) < 1.0  # in the cone
        assert result.value(2) == 1.0  # the goal
        for state in (3, 4):  # cannot reach the goal / not reached from 0
            assert np.isnan(result.values[state])
            with pytest.raises(ModelError, match="outside the cone"):
                result.value(state)

    def test_trivial_solve_reads_only_start_and_goal(self):
        result = PreparedTimedReachability(_chain_ctmdp(), GOAL, state=3).solve(5.0)
        assert result.value(3) == 0.0
        assert result.value(2) == 1.0
        with pytest.raises(ModelError):
            result.value(1)

    def test_ctmc_states_outside_the_cone_raise(self):
        ctmc = CTMC(rates=_chain_ctmdp().rate_matrix[[0, 2, 3, 4, 5]].tocsr())
        result = PreparedCTMCReachability(ctmc, GOAL, state=1).solve(5.0)
        assert 0.0 < result.value(1) < 1.0
        with pytest.raises(ModelError, match="outside the cone"):
            result.value(0)

    def test_start_out_of_range(self):
        with pytest.raises(ModelError, match="start state 5"):
            PreparedTimedReachability(_chain_ctmdp(), GOAL, state=5)
