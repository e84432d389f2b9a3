"""Tests for the LTS helpers."""

import pytest

from repro.errors import ModelError
from repro.imc.lts import lts


class TestLts:
    def test_builds_markov_free_imc(self):
        model = lts(3, [(0, "a", 1), (1, "b", 2)])
        assert model.is_lts()
        assert model.num_markov_transitions == 0

    def test_uniform_with_rate_zero(self):
        model = lts(2, [(0, "a", 1)])
        assert model.is_uniform()
        assert model.uniform_rate() == 0.0

    def test_names_threaded(self):
        model = lts(2, [(0, "go", 1)], state_names=["here", "there"])
        assert model.name_of(1) == "there"

    def test_invalid_transitions_rejected(self):
        with pytest.raises(ModelError):
            lts(1, [(0, "a", 5)])

    def test_names_checked(self):
        with pytest.raises(ModelError):
            lts(2, [(0, "a", 1)], state_names=["only-one"])

    def test_initial_threaded(self):
        model = lts(3, [(0, "a", 1), (1, "b", 2)], initial=2)
        assert model.initial == 2
        with pytest.raises(ModelError):
            lts(3, [(0, "a", 1)], initial=3)

    def test_transitions_may_be_a_generator(self):
        model = lts(3, ((k, "tick", k + 1) for k in range(2)))
        assert model.interactive == [(0, "tick", 1), (1, "tick", 2)]
