"""Tests for the uIMC-to-uCTMDP transformation (Theorem 1, executably).

The preservation theorem is exercised in three ways:

* deterministic closed IMCs (no real nondeterminism) are compared
  against an independently built CTMC of the same process;
* for nondeterministic models, simulation under arbitrary schedulers
  must fall between the transformed model's ``inf`` and ``sup``;
* the transformation's structural bookkeeping (state maps, statistics)
  is validated on random models.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.reachability import timed_reachability
from repro.core.scheduler import UniformRandomScheduler
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import timed_reachability as ctmc_reachability
from repro.errors import TransformationError
from repro.imc.model import IMC, TAU, IMCBuilder
from repro.imc.transform import imc_to_ctmdp
from repro.sim.simulate import simulate_ctmdp_reachability
from tests.conftest import random_closed_uniform_imcs


class TestDeterministicEquivalence:
    def test_ctmc_as_imc_gives_identical_reachability(self):
        # Uniform chain: every state has exit rate 3.
        transitions = [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 0.5), (1, 0, 2.5), (2, 0, 3.0)]
        chain = CTMC.from_transitions(3, transitions)
        imc = IMC(num_states=3, markov=[(s, r, t) for s, t, r in transitions])
        result = imc_to_ctmdp(imc)
        goal = result.goal_mask_from_predicate(lambda s: s == 2)
        for t in (0.3, 1.0, 4.0):
            expected = ctmc_reachability(chain, [2], t, epsilon=1e-12).values[0]
            value = timed_reachability(result.ctmdp, goal, t, epsilon=1e-10)
            assert value.value(result.ctmdp.initial) == pytest.approx(expected, abs=1e-8)

    def test_tau_chains_are_timeless(self):
        # 0 -(rate 2)-> 1 -tau-> 2 -tau-> 3 -(rate 2)-> goal 4.
        builder = IMCBuilder()
        states = [builder.state(f"s{k}") for k in range(5)]
        builder.markov(states[0], 2.0, states[1])
        builder.tau(states[1], states[2])
        builder.tau(states[2], states[3])
        builder.markov(states[3], 2.0, states[4])
        builder.tau(states[4], states[0])  # keep it deadlock-free
        # State 4 must not be absorbing and not Markov... it has tau back.
        imc = builder.build()
        result = imc_to_ctmdp(imc)
        # s4 is visited instantaneously (it tau-escapes immediately), so
        # the goal is mapped via the interactive configuration.
        goal = result.goal_mask_from_predicate(lambda s: s == states[4], via="interactive")
        t = 1.7
        expected = 1.0 - math.exp(-2.0 * t) * (1.0 + 2.0 * t)  # Erlang(2, 2)
        value = timed_reachability(result.ctmdp, goal, t, epsilon=1e-10)
        assert value.value(result.ctmdp.initial) == pytest.approx(expected, abs=1e-8)

    def test_max_equals_min_without_nondeterminism(self):
        imc = IMC(
            num_states=3,
            interactive=[(1, TAU, 2)],
            markov=[(0, 1.0, 1), (2, 1.0, 0)],
        )
        result = imc_to_ctmdp(imc)
        goal = result.goal_mask_from_predicate(lambda s: s == 2)
        sup = timed_reachability(result.ctmdp, goal, 2.0)
        inf = timed_reachability(result.ctmdp, goal, 2.0, objective="min")
        np.testing.assert_allclose(sup.values, inf.values, atol=1e-12)


class TestNondeterministicBounds:
    def test_simulation_between_inf_and_sup(self, rng):
        # A genuine choice: after the first jump, tau-branch to a fast
        # or a slow path towards the goal.
        builder = IMCBuilder()
        start = builder.state("start")
        choice = builder.state("choice")
        fast = builder.state("fast")
        slow = builder.state("slow")
        goal_state = builder.state("goal")
        builder.markov(start, 4.0, choice)
        builder.tau(choice, fast)
        builder.tau(choice, slow)
        builder.markov(fast, 4.0, goal_state)
        builder.markov(slow, 1.0, goal_state)
        builder.markov(slow, 3.0, start)
        builder.tau(goal_state, start)
        imc = builder.build(initial=start)
        result = imc_to_ctmdp(imc, require_uniform=True)
        mask = result.goal_mask_from_predicate(lambda s: s == goal_state, via="interactive")
        t = 0.8
        sup = timed_reachability(result.ctmdp, mask, t, epsilon=1e-8)
        inf = timed_reachability(result.ctmdp, mask, t, epsilon=1e-8, objective="min")
        assert inf.value(result.ctmdp.initial) < sup.value(result.ctmdp.initial)
        estimate = simulate_ctmdp_reachability(
            result.ctmdp,
            UniformRandomScheduler(),
            goal=set(np.flatnonzero(mask)),
            t=t,
            runs=4000,
            rng=rng,
        )
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= sup.value(result.ctmdp.initial) + 1e-9
        assert high >= inf.value(result.ctmdp.initial) - 1e-9


class TestStructure:
    @given(imc=random_closed_uniform_imcs())
    @settings(max_examples=50, deadline=None)
    def test_transform_produces_uniform_ctmdp(self, imc):
        result = imc_to_ctmdp(imc, require_uniform=True)
        assert result.ctmdp.is_uniform(tol=1e-6)
        assert result.ctmdp.num_states == len(result.state_original)
        assert result.ctmdp.num_transitions == len(result.row_original)

    @given(imc=random_closed_uniform_imcs())
    @settings(max_examples=50, deadline=None)
    def test_statistics_consistent(self, imc):
        result = imc_to_ctmdp(imc)
        stats = result.statistics
        assert stats.interactive_states == result.ctmdp.num_states
        assert stats.interactive_transitions == result.ctmdp.num_transitions
        assert stats.markov_states >= 1
        assert stats.memory_bytes > 0
        assert stats.transform_seconds >= 0.0

    @given(imc=random_closed_uniform_imcs())
    @settings(max_examples=50, deadline=None)
    def test_goal_masks_well_formed(self, imc):
        result = imc_to_ctmdp(imc)
        for via in ("markov", "interactive"):
            mask = result.goal_mask_from_predicate(lambda s: s % 2 == 0, via=via)
            assert mask.shape == (result.ctmdp.num_states,)
        everything = result.goal_mask_from_predicate(lambda s: True, via="markov")
        assert everything.all()
        nothing = result.goal_mask_from_predicate(lambda s: False, via="markov")
        assert not nothing.any()

    def test_unknown_goal_mapping_rejected(self):
        imc = IMC(num_states=2, markov=[(0, 1.0, 1), (1, 1.0, 0)])
        result = imc_to_ctmdp(imc)
        with pytest.raises(ValueError):
            result.goal_mask_from_predicate(lambda s: True, via="nonsense")

    def test_require_uniform_rejects_nonuniform(self):
        imc = IMC(num_states=2, markov=[(0, 1.0, 1), (1, 5.0, 0)])
        with pytest.raises(TransformationError):
            imc_to_ctmdp(imc, require_uniform=True)
