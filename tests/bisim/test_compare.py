"""Tests for the IMC equivalence oracle (disjoint-union bisimilarity)."""

import pytest
from hypothesis import given, settings

from repro.bisim.branching import branching_minimize
from repro.errors import ModelError
from repro.imc.model import IMC, TAU
from tests.conftest import random_imcs
from tests.oracles.bisim import (
    are_branching_bisimilar,
    are_strongly_bisimilar,
    disjoint_union,
)


class TestDisjointUnion:
    def test_sizes_and_initials(self):
        left = IMC(num_states=2, markov=[(0, 1.0, 1)])
        right = IMC(num_states=3, interactive=[(0, "a", 1)], initial=0)
        union, init_left, init_right = disjoint_union(left, right)
        assert union.num_states == 5
        assert init_left == 0
        assert init_right == 2
        assert union.initial == init_left

    def test_no_cross_transitions(self):
        left = IMC(num_states=2, markov=[(0, 1.0, 1)])
        right = IMC(num_states=2, interactive=[(0, "a", 1)])
        union, _, _ = disjoint_union(left, right)
        for s, _a, t in union.interactive:
            assert (s < 2) == (t < 2)
        for s, _r, t in union.markov:
            assert (s < 2) == (t < 2)


class TestBranchingEquivalence:
    def test_model_bisimilar_to_its_quotient(self):
        imc = IMC(
            num_states=4,
            interactive=[(0, TAU, 1)],
            markov=[(1, 2.0, 2), (1, 2.0, 3), (2, 1.0, 1), (3, 1.0, 1)],
        )
        quotient, _ = branching_minimize(imc)
        assert are_branching_bisimilar(imc, quotient)

    def test_different_rates_not_bisimilar(self):
        left = IMC(num_states=1, markov=[(0, 1.0, 0)])
        right = IMC(num_states=1, markov=[(0, 2.0, 0)])
        assert not are_branching_bisimilar(left, right)

    def test_tau_padding_is_invisible(self):
        plain = IMC(num_states=2, markov=[(0, 3.0, 1), (1, 3.0, 0)])
        padded = IMC(
            num_states=3,
            interactive=[(1, TAU, 2)],
            markov=[(0, 3.0, 1), (2, 3.0, 0)],
        )
        assert are_branching_bisimilar(plain, padded)
        assert not are_strongly_bisimilar(plain, padded)

    def test_labels_respected(self):
        left = IMC(num_states=1, markov=[(0, 1.0, 0)])
        right = IMC(num_states=1, markov=[(0, 1.0, 0)])
        assert are_branching_bisimilar(left, right)
        assert not are_branching_bisimilar(
            left, right, left_labels=["x"], right_labels=["y"]
        )

    def test_label_arity_checked(self):
        left = IMC(num_states=1, markov=[(0, 1.0, 0)])
        with pytest.raises(ModelError):
            are_branching_bisimilar(left, left, left_labels=["x"], right_labels=None)
        with pytest.raises(ModelError):
            are_branching_bisimilar(left, left, left_labels=["x", "y"], right_labels=["x"])

    @given(imc=random_imcs())
    @settings(max_examples=40, deadline=None)
    def test_reflexive(self, imc):
        assert are_branching_bisimilar(imc, imc)
        assert are_strongly_bisimilar(imc, imc)
