"""Tests for hiding, relabelling and parallel composition -- including the
executable versions of Lemma 1 and Lemma 2 (uniformity preservation)."""

import pytest
from hypothesis import given, settings

from repro.errors import CompositionError
from repro.imc.composition import (
    hide,
    hide_all_but,
    parallel,
    parallel_with_map,
    relabel,
)
from repro.imc.lts import lts
from repro.imc.model import IMC, TAU
from tests.conftest import random_uniform_imcs
from tests.oracles.bisim import are_strongly_bisimilar


class TestHide:
    def test_hidden_action_becomes_tau(self):
        imc = IMC(num_states=2, interactive=[(0, "a", 1), (0, "b", 1)])
        hidden = hide(imc, ["a"])
        assert (0, TAU, 1) in hidden.interactive
        assert (0, "b", 1) in hidden.interactive

    def test_markov_untouched(self):
        imc = IMC(num_states=2, interactive=[(0, "a", 1)], markov=[(1, 2.0, 0)])
        assert hide(imc, ["a"]).markov == imc.markov

    def test_hide_tau_rejected(self):
        imc = IMC(num_states=1)
        with pytest.raises(CompositionError):
            hide(imc, [TAU])

    def test_hide_all_but(self):
        imc = IMC(num_states=2, interactive=[(0, "a", 1), (0, "b", 1), (0, "c", 1)])
        closed = hide_all_but(imc, keep=["b"])
        assert closed.visible_actions() == {"b"}

    @given(imc=random_uniform_imcs())
    @settings(max_examples=60, deadline=None)
    def test_lemma_1_hiding_preserves_uniformity(self, imc):
        assert imc.is_uniform()
        for action in ("a", "b"):
            assert hide(imc, [action]).is_uniform()
        assert hide_all_but(imc).is_uniform()


class TestRelabel:
    def test_relabelling(self):
        imc = IMC(num_states=2, interactive=[(0, "g", 1), (0, "r", 1)])
        renamed = relabel(imc, {"g": "g_wsL", "r": "r_wsL"})
        assert (0, "g_wsL", 1) in renamed.interactive
        assert (0, "r_wsL", 1) in renamed.interactive

    def test_unmapped_actions_unchanged(self):
        imc = IMC(num_states=2, interactive=[(0, "keep", 1)])
        assert relabel(imc, {"other": "x"}).interactive == imc.interactive

    def test_relabel_tau_rejected(self):
        imc = IMC(num_states=1)
        with pytest.raises(CompositionError):
            relabel(imc, {TAU: "x"})

    def test_relabel_onto_tau_rejected(self):
        imc = IMC(num_states=1)
        with pytest.raises(CompositionError):
            relabel(imc, {"a": TAU})


class TestParallelSOS:
    def test_independent_actions_interleave(self):
        left = lts(2, [(0, "a", 1)])
        right = lts(2, [(0, "b", 1)])
        product = parallel(left, right, sync=[])
        assert product.num_states == 4
        actions = sorted(a for _, a, _ in product.interactive)
        assert actions == ["a", "a", "b", "b"]

    def test_synchronised_action_moves_both(self):
        left = lts(2, [(0, "s", 1)])
        right = lts(2, [(0, "s", 1)])
        product = parallel(left, right, sync=["s"])
        # Only (0,0) -s-> (1,1): two states reachable.
        assert product.num_states == 2
        assert len(product.interactive) == 1

    def test_synchronisation_blocks_when_partner_not_ready(self):
        left = lts(2, [(0, "s", 1)])
        right = lts(2, [(1, "s", 0)])  # right starts where s is disabled
        product = parallel(left, right, sync=["s"])
        assert product.interactive == []
        assert product.num_states == 1

    def test_markov_transitions_interleave(self):
        left = IMC(num_states=2, markov=[(0, 2.0, 1)])
        right = IMC(num_states=2, markov=[(0, 3.0, 1)])
        product = parallel(left, right)
        # From (0,0): rate 2 to (1,0) and rate 3 to (0,1).
        assert product.exit_rate(0) == pytest.approx(5.0)

    def test_only_reachable_product_states_built(self):
        left = lts(3, [(0, "a", 1)])  # state 2 unreachable
        right = lts(2, [(0, "b", 1)])
        product = parallel(left, right)
        assert product.num_states == 4  # not 6

    def test_tau_never_synchronises(self):
        left = lts(2, [(0, TAU, 1)])
        right = lts(2, [(0, TAU, 1)])
        with pytest.raises(CompositionError):
            parallel(left, right, sync=[TAU])

    def test_with_map_returns_pairs(self):
        left = lts(2, [(0, "a", 1)])
        right = lts(2, [(0, "b", 1)])
        product, pairs = parallel_with_map(left, right)
        assert pairs[0] == (0, 0)
        assert len(pairs) == product.num_states
        assert set(pairs) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_state_names_combined(self):
        left = lts(1, [], state_names=["L"])
        right = lts(1, [], state_names=["R"])
        assert parallel(left, right).state_names == ["L|R"]

    def test_nested_products_synchronise_three_ways(self):
        a = lts(2, [(0, "x", 1)])
        product = parallel(parallel(a, a, sync=["x"]), a, sync=["x"])
        # Three-way synchronisation: single x edge.
        assert len(product.interactive) == 1
        assert product.num_states == 2


class TestLemma2:
    @given(left=random_uniform_imcs(rate=2.0), right=random_uniform_imcs(rate=3.0))
    @settings(max_examples=40, deadline=None)
    def test_uniform_rates_add_up(self, left, right):
        product = parallel(left, right)
        assert product.is_uniform()
        # If any stable product state is reachable, the rate is the sum.
        stable = [
            s for s in product.reachable_states() if product.is_stable(s)
        ]
        if stable:
            assert product.uniform_rate() == pytest.approx(5.0)

    @given(left=random_uniform_imcs(rate=2.0), right=random_uniform_imcs(rate=3.0))
    @settings(max_examples=40, deadline=None)
    def test_uniformity_preserved_under_sync(self, left, right):
        product = parallel(left, right, sync=["a"])
        assert product.is_uniform()


class TestAlgebraicLaws:
    """Parallel composition is commutative and associative up to strong
    bisimilarity -- the laws compositional reasoning rests on."""

    @given(left=random_uniform_imcs(rate=2.0), right=random_uniform_imcs(rate=3.0))
    @settings(max_examples=25, deadline=None)
    def test_commutative_up_to_bisimilarity(self, left, right):
        assert are_strongly_bisimilar(
            parallel(left, right, sync=["a"]), parallel(right, left, sync=["a"])
        )

    @given(
        first=random_uniform_imcs(rate=1.0, max_states=4),
        second=random_uniform_imcs(rate=2.0, max_states=4),
        third=random_uniform_imcs(rate=3.0, max_states=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_associative_up_to_bisimilarity(self, first, second, third):
        sync = ["a"]
        left_grouping = parallel(parallel(first, second, sync), third, sync)
        right_grouping = parallel(first, parallel(second, third, sync), sync)
        assert are_strongly_bisimilar(left_grouping, right_grouping)

    @given(imc=random_uniform_imcs(rate=2.0))
    @settings(max_examples=25, deadline=None)
    def test_hide_is_idempotent(self, imc):
        once = hide(imc, ["a"])
        twice = hide(once, ["a"])
        assert once.interactive == twice.interactive
        assert once.markov == twice.markov
