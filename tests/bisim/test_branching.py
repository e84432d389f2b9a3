"""Tests for stochastic branching bisimulation (Definition 6, Lemma 3)."""

import pytest
from hypothesis import given, settings

from repro.bisim.branching import branching_bisimulation, branching_minimize
from repro.core.reachability import timed_reachability
from repro.imc.model import IMC, TAU
from repro.imc.transform import imc_to_ctmdp
from tests.conftest import random_imcs, random_closed_uniform_imcs, random_uniform_imcs
from tests.oracles.bisim import is_stochastic_branching_bisimulation


class TestBasics:
    def test_inert_tau_collapses(self):
        # 0 -tau-> 1, both leading (1 stochastically) to the same future.
        imc = IMC(
            num_states=2,
            interactive=[(0, TAU, 1)],
            markov=[(1, 2.0, 1)],
        )
        quotient, partition = branching_minimize(imc)
        assert partition.num_blocks == 1
        assert quotient.num_states == 1
        # The inert tau disappears; the Markov self-loop remains.
        assert quotient.interactive == []
        assert quotient.markov == [(0, 2.0, 0)]

    def test_visible_actions_not_collapsed(self):
        imc = IMC(num_states=2, interactive=[(0, "a", 1), (1, "a", 0)])
        _quotient, partition = branching_bisimulation(imc), None
        # a-loop states are bisimilar (same behaviour), so one block.
        assert branching_bisimulation(imc).num_blocks == 1

    def test_different_rates_split(self):
        imc = IMC(num_states=2, markov=[(0, 1.0, 0), (1, 2.0, 1)])
        assert branching_bisimulation(imc).num_blocks == 2

    def test_symmetric_interleaving_lumps(self):
        # Two interleaved independent clocks with equal rates: states
        # (1 fired, 0 fired) in either order are equivalent.
        imc = IMC(
            num_states=4,
            markov=[(0, 1.0, 1), (0, 1.0, 2), (1, 1.0, 3), (2, 1.0, 3), (3, 4.0, 0)],
        )
        partition = branching_bisimulation(imc)
        assert partition.same_block(1, 2)
        assert partition.num_blocks == 3

    def test_labels_prevent_merging(self):
        imc = IMC(
            num_states=4,
            markov=[(0, 1.0, 1), (0, 1.0, 2), (1, 1.0, 3), (2, 1.0, 3), (3, 4.0, 0)],
        )
        partition = branching_bisimulation(imc, labels=["x", "y", "z", "w"])
        assert partition.num_blocks == 4

    def test_rate_lumping_accumulates(self):
        # 0 goes to 1 and 2 (rate 1 each) which are equivalent: the
        # quotient transition carries rate 2.
        imc = IMC(
            num_states=3,
            markov=[(0, 1.0, 1), (0, 1.0, 2), (1, 3.0, 1), (2, 3.0, 2)],
        )
        quotient, partition = branching_minimize(imc)
        assert partition.same_block(1, 2)
        block_of_0 = int(partition.canonical().block_of[0])
        outgoing = [r for s, r, t in quotient.markov if s == block_of_0 and t != block_of_0]
        assert outgoing == [pytest.approx(2.0)]


class TestDefinitionCompliance:
    @given(imc=random_imcs())
    @settings(max_examples=60, deadline=None)
    def test_fixpoint_is_a_bisimulation(self, imc):
        partition = branching_bisimulation(imc)
        assert is_stochastic_branching_bisimulation(imc, partition)

    @given(imc=random_imcs())
    @settings(max_examples=40, deadline=None)
    def test_discrete_partition_is_finer(self, imc):
        partition = branching_bisimulation(imc)
        from repro.bisim.partition import Partition

        assert Partition.discrete(imc.num_states).is_refinement_of(partition)

    def test_checker_rejects_bad_partition(self):
        from repro.bisim.partition import Partition

        imc = IMC(num_states=2, markov=[(0, 1.0, 0), (1, 9.0, 1)])
        bad = Partition.trivial(2)
        assert not is_stochastic_branching_bisimulation(imc, bad)


class TestLemma3:
    @given(imc=random_uniform_imcs())
    @settings(max_examples=40, deadline=None)
    def test_quotient_preserves_uniformity(self, imc):
        assert imc.is_uniform()
        quotient, _partition = branching_minimize(imc)
        assert quotient.is_uniform()

    @given(imc=random_closed_uniform_imcs())
    @settings(max_examples=25, deadline=None)
    def test_quotient_preserves_timed_reachability(self, imc):
        """Corollary of Theorem 1 + Lemma 3: analysing the quotient gives
        the same worst-case probabilities as analysing the original."""
        labels = [s == imc.num_states - 1 for s in range(imc.num_states)]
        quotient, partition = branching_minimize(imc, labels=labels)
        canon = partition.canonical()

        original = imc_to_ctmdp(imc)
        goal_original = original.goal_mask_from_predicate(
            lambda s: labels[s], via="markov"
        )
        reduced = imc_to_ctmdp(quotient)
        from repro.bisim.quotient import map_labels_through

        quotient_labels = map_labels_through(partition, labels)
        goal_reduced = reduced.goal_mask_from_predicate(
            lambda s: quotient_labels[s], via="markov"
        )
        for t in (0.5, 2.0):
            value_original = timed_reachability(
                original.ctmdp, goal_original, t, epsilon=1e-9
            ).value(original.ctmdp.initial)
            value_reduced = timed_reachability(
                reduced.ctmdp, goal_reduced, t, epsilon=1e-9
            ).value(reduced.ctmdp.initial)
            assert value_reduced == pytest.approx(value_original, abs=1e-7)
