"""Tests for the CTMDP model class."""

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.errors import ModelError, NonUniformError
from repro.models.zoo import two_phase_race_ctmdp


@pytest.fixture
def race() -> CTMDP:
    return two_phase_race_ctmdp()[0]


class TestConstruction:
    def test_from_transitions_sorts_by_source(self):
        ctmdp = CTMDP.from_transitions(
            2, [(1, "b", {0: 1.0}), (0, "a", {1: 1.0})]
        )
        assert list(ctmdp.sources) == [0, 1]
        assert ctmdp.labels == ["a", "b"]

    def test_same_action_twice_per_state_allowed(self):
        # The paper's "mild variation": several transitions may carry the
        # same label.
        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {0: 1.0}), (0, "a", {1: 1.0}), (1, "x", {1: 1.0})]
        )
        assert ctmdp.num_choices(0) == 2

    def test_empty_rate_function_rejected(self):
        with pytest.raises(ModelError):
            CTMDP.from_transitions(2, [(0, "a", {})])

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ModelError):
            CTMDP.from_transitions(2, [(0, "a", {1: 0.0})])
        with pytest.raises(ModelError):
            CTMDP.from_transitions(2, [(0, "a", {1: -1.0})])

    def test_out_of_range_rejected(self):
        with pytest.raises(ModelError):
            CTMDP.from_transitions(2, [(0, "a", {5: 1.0})])
        with pytest.raises(ModelError):
            CTMDP.from_transitions(2, [(9, "a", {0: 1.0})])

    def test_bad_initial_rejected(self):
        with pytest.raises(ModelError):
            CTMDP.from_transitions(1, [(0, "a", {0: 1.0})], initial=3)

    def test_state_names_checked(self):
        with pytest.raises(ModelError):
            CTMDP.from_transitions(2, [(0, "a", {1: 1.0})], state_names=["x"])


class TestQueries:
    def test_transitions_of(self, race):
        transitions = race.transitions_of(0)
        assert {t.action for t in transitions} == {"direct", "detour"}
        assert all(t.source == 0 for t in transitions)
        assert all(t.total_rate() == pytest.approx(11.0) for t in transitions)

    def test_num_choices(self, race):
        assert race.num_choices(0) == 2
        assert race.num_choices(1) == 1

    def test_states_without_choices(self):
        ctmdp = CTMDP.from_transitions(3, [(0, "a", {1: 1.0})])
        np.testing.assert_array_equal(ctmdp.states_without_choices(), [1, 2])

    def test_exit_rates(self, race):
        np.testing.assert_allclose(race.exit_rates(), 11.0)

    def test_statistics(self, race):
        stats = race.statistics()
        assert stats["states"] == 3
        assert stats["transitions"] == 4
        assert stats["max_choices"] == 2
        assert stats["memory_bytes"] > 0


class TestUniformity:
    def test_uniform(self, race):
        assert race.is_uniform()
        assert race.uniform_rate() == pytest.approx(11.0)

    def test_non_uniform_detected(self):
        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "b", {0: 5.0})]
        )
        assert not ctmdp.is_uniform()
        with pytest.raises(NonUniformError):
            ctmdp.uniform_rate()

    def test_probability_matrix_stochastic(self, race):
        p = race.probability_matrix()
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)


class TestInducedCTMC:
    def test_choice_selects_rows(self, race):
        chain = race.induced_ctmc([0, 0, 0])
        # Choice 0 in state 0 is "detour" or "direct" depending on sort
        # order; either way the chain is uniform at rate 11.
        assert chain.is_uniform()
        assert chain.uniform_rate() == pytest.approx(11.0)

    def test_wrong_length_rejected(self, race):
        with pytest.raises(ModelError):
            race.induced_ctmc([0])

    def test_choice_out_of_range_rejected(self, race):
        with pytest.raises(ModelError):
            race.induced_ctmc([5, 0, 0])

    def test_absorbing_states_stay_absorbing(self):
        ctmdp = CTMDP.from_transitions(2, [(0, "a", {1: 1.0})])
        chain = ctmdp.induced_ctmc([0, 0])
        assert chain.is_absorbing(1)


class TestEmbedding:
    def test_embedded_dtmdp_shares_structure(self, race):
        embedded = race.embedded_dtmdp()
        assert embedded.num_states == race.num_states
        assert embedded.actions == race.labels
        assert embedded.num_choices(0) == race.num_choices(0)

    def test_unbounded_reachability_agrees_with_embedded(self, race):
        """The continuous clock is irrelevant for 'ever reaches B':
        CTMDP unbounded reachability equals DTMDP unbounded
        reachability on the embedded jump chain."""
        import numpy as np

        from repro.core.reachability import unbounded_reachability
        from tests.oracles.value_iteration import (
            unbounded_reachability as dtmdp_unbounded,
        )

        goal = np.array([False, False, True])
        embedded = race.embedded_dtmdp()
        for objective in ("max", "min"):
            continuous = unbounded_reachability(race, goal, objective=objective)
            discrete = dtmdp_unbounded(embedded, goal, objective=objective)
            np.testing.assert_allclose(continuous, discrete, atol=1e-10)
