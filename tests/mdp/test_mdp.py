"""Tests for the DTMDP and the plain value-iteration oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ModelError
from repro.mdp.model import DTMDP
from tests.oracles.value_iteration import unbounded_reachability


@pytest.fixture
def coin_mdp() -> DTMDP:
    """Choice between a fair coin into {goal, trap} and a slow sure path."""
    return DTMDP.from_transitions(
        4,
        [
            (0, "gamble", {2: 0.5, 3: 0.5}),
            (0, "walk", {1: 1.0}),
            (1, "walk", {2: 1.0}),
            (2, "stay", {2: 1.0}),
            (3, "stay", {3: 1.0}),
        ],
    )


class TestDTMDP:
    def test_construction_sorted(self, coin_mdp):
        assert list(coin_mdp.sources) == sorted(coin_mdp.sources)
        assert coin_mdp.num_choices(0) == 2
        assert coin_mdp.num_transitions == 5

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ModelError):
            DTMDP.from_transitions(2, [(0, "a", {1: 0.5})])

    def test_negative_probability_rejected(self):
        # The mass sums to one; the negative entry alone is at fault.
        with pytest.raises(ModelError, match="non-negative"):
            DTMDP.from_transitions(2, [(0, "a", {1: 1.5, 0: -0.5})])

    def test_non_finite_probability_rejected(self):
        with pytest.raises(ModelError):
            DTMDP.from_transitions(2, [(0, "a", {1: float("nan")})])

    def test_zero_probabilities_not_stored(self):
        mdp = DTMDP.from_transitions(2, [(0, "a", {0: 0.0, 1: 1.0}), (1, "a", {1: 1.0})])
        assert mdp.probabilities.nnz == 2
        assert list(mdp.probabilities.indices) == [1, 1]

    def test_state_without_choices(self):
        mdp = DTMDP.from_transitions(3, [(0, "a", {1: 1.0}), (2, "a", {2: 1.0})])
        assert [mdp.num_choices(s) for s in range(3)] == [1, 0, 1]
        assert list(mdp.choice_ptr) == [0, 1, 1, 2]

    def test_substochastic_matrix_rejected(self):
        matrix = sp.csr_matrix(np.array([[0.9, 0.0], [0.0, 1.0]]))
        with pytest.raises(ModelError, match="sum to one"):
            DTMDP(2, np.array([0, 1]), ["a", "a"], matrix)

    def test_shape_mismatch_rejected(self):
        matrix = sp.csr_matrix(np.eye(3)[:2])
        with pytest.raises(ModelError, match="shape"):
            DTMDP(2, np.array([0, 1]), ["a", "a"], matrix)

    def test_unsorted_sources_rejected(self):
        with pytest.raises(ModelError, match="sorted"):
            DTMDP(2, np.array([1, 0]), ["a", "a"], sp.csr_matrix(np.eye(2)))

    def test_initial_out_of_range_rejected(self):
        with pytest.raises(ModelError, match="initial"):
            DTMDP(2, np.array([0, 1]), ["a", "a"], sp.csr_matrix(np.eye(2)), initial=2)

    def test_unbounded(self, coin_mdp):
        assert unbounded_reachability(coin_mdp, [2])[0] == pytest.approx(1.0)
        assert unbounded_reachability(coin_mdp, [2], objective="min")[0] == pytest.approx(0.5)

    def test_bad_objective(self, coin_mdp):
        with pytest.raises(ModelError):
            unbounded_reachability(coin_mdp, [2], objective="x")
