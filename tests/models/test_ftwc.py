"""Tests for the compositional FTWC construction (Section 5)."""

import numpy as np
import pytest

from repro.bisim.compare import are_branching_bisimilar
from repro.core.reachability import timed_reachability
from repro.imc.labeled import LabeledIMC
from repro.imc.transform import imc_to_ctmdp
from repro.models.ftwc import (
    build_compositional,
    build_system_imc,
    component_block,
    component_lts,
    premium_from_obs,
    repair_station,
)
from repro.models.ftwc_direct import FTWCParameters, build_ctmdp, uniform_rate
from tests.oracles.ftwc import interleaved_system_imc


class TestComponents:
    def test_component_lts_is_uniform_lts(self):
        block = component_lts("wsL")
        assert block.imc.is_lts()
        assert block.imc.is_uniform()
        assert block.imc.uniform_rate() == 0.0

    def test_component_observation_marks_up_state(self):
        block = component_lts("swR")
        up = block.imc.state_names.index("swR:up")
        assert block.observations[up] == (0, 0, 0, 1, 0)
        for state in range(block.imc.num_states):
            if state != up:
                assert sum(block.observations[state]) == 0

    def test_repair_station_uniform_at_mu_max(self):
        station = repair_station(FTWCParameters(n=2))
        assert station.imc.is_uniform()
        assert station.imc.uniform_rate() == pytest.approx(2.0)

    def test_repair_station_grabs_every_kind(self):
        station = repair_station(FTWCParameters(n=1))
        grabs = {a for _s, a, _t in station.imc.interactive if a.startswith("g_")}
        assert grabs == {"g_wsL", "g_wsR", "g_swL", "g_swR", "g_bb"}

    def test_component_block_uniform_at_fail_rate(self):
        block = component_block("wsL", 0.002)
        assert block.imc.is_uniform()
        assert block.imc.uniform_rate() == pytest.approx(0.002)


class TestPremiumFromObs:
    def test_matches_direct_predicate(self):
        from repro.models.ftwc_direct import Config, premium

        n = 3
        for failed_left in range(n + 1):
            for failed_right in range(n + 1):
                for flags in range(8):
                    config = Config(
                        failed_left,
                        failed_right,
                        bool(flags & 1),
                        bool(flags & 2),
                        bool(flags & 4),
                    )
                    obs = (
                        n - failed_left,
                        n - failed_right,
                        0 if config.sw_left_down else 1,
                        0 if config.sw_right_down else 1,
                        0 if config.bb_down else 1,
                    )
                    assert premium_from_obs(obs, n) == premium(config, n)


class TestFullSystem:
    def test_system_uniform_rate_matches_formula(self):
        system = build_system_imc(1)
        expected = uniform_rate(FTWCParameters(n=1))
        assert system.imc.is_uniform(closed=True)
        assert system.imc.uniform_rate(closed=True) == pytest.approx(expected)

    def test_agrees_with_direct_generator_n1(self):
        comp = build_compositional(1)
        direct = build_ctmdp(1)
        for t in (10.0, 100.0, 1000.0):
            value_comp = timed_reachability(
                comp.ctmdp, comp.goal_mask, t, epsilon=1e-8
            ).value(comp.ctmdp.initial)
            value_direct = timed_reachability(
                direct.ctmdp, direct.goal_mask, t, epsilon=1e-8
            ).value(direct.ctmdp.initial)
            assert value_comp == pytest.approx(value_direct, rel=1e-6, abs=1e-12)

    def test_min_agrees_with_direct_generator_n1(self):
        comp = build_compositional(1)
        direct = build_ctmdp(1)
        t = 200.0
        value_comp = timed_reachability(
            comp.ctmdp, comp.goal_mask, t, epsilon=1e-8, objective="min"
        ).value(comp.ctmdp.initial)
        value_direct = timed_reachability(
            direct.ctmdp, direct.goal_mask, t, epsilon=1e-8, objective="min"
        ).value(direct.ctmdp.initial)
        assert value_comp == pytest.approx(value_direct, rel=1e-6, abs=1e-12)

    def test_without_intermediate_minimisation_same_values(self):
        fat = build_compositional(1, minimize_intermediate=False)
        slim = build_compositional(1, minimize_intermediate=True)
        t = 100.0
        value_fat = timed_reachability(fat.ctmdp, fat.goal_mask, t, epsilon=1e-8).value(
            fat.ctmdp.initial
        )
        value_slim = timed_reachability(
            slim.ctmdp, slim.goal_mask, t, epsilon=1e-8
        ).value(slim.ctmdp.initial)
        assert value_fat == pytest.approx(value_slim, rel=1e-6, abs=1e-12)

    def test_transform_statistics_populated(self):
        comp = build_compositional(1)
        stats = comp.transform.statistics
        assert stats.interactive_states == comp.ctmdp.num_states
        assert stats.markov_states > 0
        assert stats.transform_seconds > 0.0


def _values(ctmdp, goal_mask):
    """Timed reachability of both goals, both objectives, three horizons."""
    values = {}
    for goal_name, goal in (("no_premium", goal_mask), ("premium", ~goal_mask)):
        for objective in ("max", "min"):
            for t in (10.0, 100.0, 1000.0):
                result = timed_reachability(
                    ctmdp, goal, t, epsilon=1e-8, objective=objective
                )
                values[goal_name, objective, t] = result.value(ctmdp.initial)
    return values


def _transformed(system):
    """The analysed CTMDP and goal mask of a closed system, as
    :func:`build_compositional` derives them."""
    result = imc_to_ctmdp(system.imc, require_uniform=True)
    flags = system.premium_flags
    goal = result.goal_mask_from_predicate(lambda s: not flags[s], via="markov")
    return result.ctmdp, goal


class TestRoutes:
    """The station-first build against the direct generator and against
    the interleave-all order it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, pytest.param(12, marks=pytest.mark.slow)])
    def test_compositional_equals_direct(self, n):
        comp = build_compositional(n)
        direct = build_ctmdp(n)
        assert comp.ctmdp.uniform_rate() == pytest.approx(uniform_rate(direct.params))
        comp_values = _values(comp.ctmdp, comp.goal_mask)
        direct_values = _values(direct.ctmdp, direct.goal_mask)
        for case, value in comp_values.items():
            assert value == pytest.approx(direct_values[case], rel=1e-12, abs=0.0), case

    @pytest.mark.parametrize("n", [1, 2])
    def test_final_quotient_bisimilar_to_interleaved_order(self, n):
        new = build_system_imc(n)
        old = interleaved_system_imc(n)
        assert are_branching_bisimilar(
            new.imc, old.imc, new.premium_flags, old.premium_flags
        )

    @pytest.mark.parametrize("n", [1, 2, pytest.param(3, marks=pytest.mark.slow)])
    def test_same_ctmdp_as_interleaved_order(self, n):
        new = build_system_imc(n)
        old = interleaved_system_imc(n)
        # The largest products: 80,000 states at N=3 in the old order.
        assert new.peak_states == {1: 624, 2: 1734, 3: 3384}[n] < old.peak_states
        new_ctmdp, new_goal = _transformed(new)
        old_ctmdp, old_goal = _transformed(old)
        assert new_ctmdp.num_states == old_ctmdp.num_states
        assert new_ctmdp.num_transitions == old_ctmdp.num_transitions
        assert new_ctmdp.uniform_rate() == old_ctmdp.uniform_rate()
        assert new_goal.sum() == old_goal.sum()


class TestLemmasAfterEveryOperator:
    """Lemmas 1-3 on every intermediate model of the station-first build."""

    @staticmethod
    def _expected_rates(n, params):
        """Rate of each minimised intermediate: the block clusters grow one
        failure clock at a time, then the system absorbs the cluster."""
        rates = []
        system = params.mu_max
        for kind in ("wsL", "wsR", "swL", "swR", "bb"):
            replicas = n if kind in ("wsL", "wsR") else 1
            rates.extend(k * params.fail_rate(kind) for k in range(1, replicas + 1))
            system += replicas * params.fail_rate(kind)
            rates.append(system)
        return rates

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_intermediate_is_uniform_at_the_summed_rate(self, n, monkeypatch):
        recorded = []
        original = LabeledIMC.minimize

        def recording(self):
            recorded.append(self.imc)
            return original(self)

        monkeypatch.setattr(LabeledIMC, "minimize", recording)
        system = build_system_imc(n)
        params = FTWCParameters(n=n)
        expected = self._expected_rates(n, params)
        assert len(recorded) == len(expected) == 10 + 2 * (n - 1)
        for imc, rate in zip(recorded, expected):
            assert imc.is_uniform(closed=False)
            assert imc.uniform_rate(closed=False) == pytest.approx(rate, rel=1e-12)
        assert system.imc.is_uniform(closed=True)
        assert system.imc.uniform_rate(closed=True) == pytest.approx(expected[-1], rel=1e-12)
