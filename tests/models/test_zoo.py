"""Tests for the example-model zoo."""

import numpy as np
import pytest

from repro.core.reachability import timed_reachability
from repro.ctmc.uniformization import steady_state_analysis
from repro.errors import ModelError
from repro.imc.transform import imc_to_ctmdp
from repro.models.zoo import (
    cyclic_ctmc,
    erlang_vs_exponential_race,
    producer_consumer_imc,
    queue_with_breakdowns,
    two_phase_race_ctmdp,
)


class TestTwoPhaseRace:
    def test_structure(self):
        ctmdp, goal = two_phase_race_ctmdp()
        assert ctmdp.is_uniform()
        assert goal.sum() == 1
        assert ctmdp.num_choices(0) == 2

    def test_parameter_validation(self):
        with pytest.raises(ModelError):
            two_phase_race_ctmdp(fast=1.0, slow=2.0)


class TestErlangRace:
    def test_structure(self):
        ctmdp, goal = erlang_vs_exponential_race(phases=4)
        assert ctmdp.is_uniform()
        assert ctmdp.num_states == 5
        assert goal[-1]

    def test_needs_two_phases(self):
        with pytest.raises(ModelError):
            erlang_vs_exponential_race(phases=1)


class TestQueue:
    def test_structure(self):
        chain, goal = queue_with_breakdowns(capacity=3)
        assert chain.num_states == 8
        assert goal.sum() == 2

    def test_steady_state_sums_to_one(self):
        chain, _ = queue_with_breakdowns(capacity=2)
        pi = steady_state_analysis(chain).distribution
        assert pi.sum() == pytest.approx(1.0)

    def test_capacity_validated(self):
        with pytest.raises(ModelError):
            queue_with_breakdowns(capacity=0)


class TestCycle:
    def test_uniform(self):
        chain = cyclic_ctmc(states=5, rate=2.0)
        assert chain.is_uniform()
        assert chain.uniform_rate() == pytest.approx(2.0)

    def test_too_small_rejected(self):
        with pytest.raises(ModelError):
            cyclic_ctmc(states=1)


class TestProducerConsumer:
    def test_uniform_by_construction(self):
        system = producer_consumer_imc(buffer_size=2)
        assert system.is_uniform(closed=True)
        assert system.uniform_rate(closed=True) == pytest.approx(5.0)

    def test_transformable_and_analysable(self):
        system = producer_consumer_imc(buffer_size=1)
        result = imc_to_ctmdp(system, require_uniform=True)
        # Goal: buffer full (component name contains "n=1" as current count).
        mask = result.goal_mask_from_predicate(
            lambda s: "|n=1|" in f"|{system.name_of(s)}|".replace("||", "|"),
            via="markov",
        )
        value = timed_reachability(result.ctmdp, mask, 2.0, epsilon=1e-9)
        assert 0.0 < value.value(result.ctmdp.initial) <= 1.0

    def test_buffer_size_validated(self):
        with pytest.raises(ModelError):
            producer_consumer_imc(buffer_size=0)


class TestTandemQueue:
    def test_structure(self):
        from repro.models.zoo import tandem_queue

        chain, goal = tandem_queue(capacity=2)
        assert chain.num_states == 9
        assert goal.sum() == 1

    def test_congestion_probability_grows_with_load(self):
        from repro.ctmc.reachability import timed_reachability as ctmc_reach
        from repro.models.zoo import tandem_queue

        values = []
        for arrival in (0.5, 1.5, 4.0):
            chain, goal = tandem_queue(capacity=2, arrival=arrival)
            values.append(ctmc_reach(chain, goal, 10.0).values[chain.initial])
        assert values == sorted(values)

    def test_steady_state_mass_balances(self):
        from repro.ctmc.uniformization import steady_state_analysis
        from repro.models.zoo import tandem_queue

        chain, _ = tandem_queue(capacity=2)
        pi = steady_state_analysis(chain).distribution
        assert pi.sum() == pytest.approx(1.0)
        assert (pi > 0.0).all()  # irreducible

    def test_validation(self):
        from repro.models.zoo import tandem_queue

        with pytest.raises(ModelError):
            tandem_queue(capacity=0)
        with pytest.raises(ModelError):
            tandem_queue(arrival=-1.0)
