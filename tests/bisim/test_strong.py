"""Tests for the strong stochastic bisimulation oracle."""

from hypothesis import given, settings

from repro.bisim.branching import branching_bisimulation
from repro.imc.model import IMC, TAU
from tests.conftest import random_imcs, random_uniform_imcs
from tests.oracles.bisim import strong_bisimulation, strong_minimize


class TestBasics:
    def test_tau_not_abstracted(self):
        # Strong bisimulation treats tau like any action: a state with a
        # tau step is not equivalent to its target.
        imc = IMC(num_states=2, interactive=[(0, TAU, 1)], markov=[(1, 2.0, 1)])
        assert strong_bisimulation(imc).num_blocks == 2

    def test_identical_branching_merges(self):
        imc = IMC(
            num_states=3,
            interactive=[(0, "a", 2), (1, "a", 2)],
            markov=[(2, 1.0, 0), (2, 1.0, 1)],
        )
        partition = strong_bisimulation(imc)
        assert partition.same_block(0, 1)

    def test_rates_of_unstable_states_irrelevant(self):
        # Maximal progress: both states have tau to 2, their differing
        # rates never fire.
        imc = IMC(
            num_states=3,
            interactive=[(0, TAU, 2), (1, TAU, 2)],
            markov=[(0, 1.0, 2), (1, 99.0, 2), (2, 1.0, 2)],
        )
        partition = strong_bisimulation(imc)
        assert partition.same_block(0, 1)

    def test_rates_of_stable_states_matter(self):
        imc = IMC(num_states=2, markov=[(0, 1.0, 0), (1, 2.0, 1)])
        assert strong_bisimulation(imc).num_blocks == 2

    def test_labels_respected(self):
        imc = IMC(num_states=2, markov=[(0, 1.0, 0), (1, 1.0, 1)])
        assert strong_bisimulation(imc).num_blocks == 1
        assert strong_bisimulation(imc, labels=["x", "y"]).num_blocks == 2

    def test_quotient_structure(self):
        imc = IMC(
            num_states=4,
            interactive=[(0, "a", 1), (0, "a", 2)],
            markov=[(1, 2.0, 3), (2, 2.0, 3), (3, 1.0, 3)],
        )
        quotient, partition = strong_minimize(imc)
        assert partition.same_block(1, 2)
        assert quotient.num_states == 3
        # The two a-edges collapse into one.
        assert len(quotient.interactive) == 1


class TestRelationToBranching:
    @given(imc=random_imcs())
    @settings(max_examples=50, deadline=None)
    def test_strong_refines_branching(self, imc):
        strong = strong_bisimulation(imc)
        branching = branching_bisimulation(imc)
        assert strong.is_refinement_of(branching)

    @given(imc=random_uniform_imcs())
    @settings(max_examples=40, deadline=None)
    def test_strong_quotient_preserves_uniformity(self, imc):
        quotient, _ = strong_minimize(imc)
        assert quotient.is_uniform()
