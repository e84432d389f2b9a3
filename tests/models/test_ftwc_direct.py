"""Tests for the direct FTWC generator -- including the quantitative
match against the paper's Table 1 model statistics."""

import math

import numpy as np
import pytest

from repro.analysis.experiments import PAPER_TABLE1
from repro.analysis.stats import ctmdp_alternating_statistics
from repro.core.reachability import timed_reachability
from repro.ctmc.reachability import timed_reachability as ctmc_reachability
from repro.errors import ModelError
from repro.models.ftwc_direct import (
    Config,
    FTWCParameters,
    build_ctmc,
    build_ctmdp,
    premium,
    uniform_rate,
)


class TestParameters:
    def test_defaults_from_the_literature(self):
        params = FTWCParameters(n=4)
        assert params.ws_fail == pytest.approx(1 / 500)
        assert params.sw_fail == pytest.approx(1 / 4000)
        assert params.bb_fail == pytest.approx(1 / 5000)
        assert params.mu_max == pytest.approx(2.0)

    def test_uniform_rate_formula(self):
        # E(N) = 2 + 2N/500 + 2/4000 + 1/5000.
        for n in (1, 16, 128):
            expected = 2.0 + 2 * n * 0.002 + 2 * 0.00025 + 0.0002
            assert uniform_rate(FTWCParameters(n=n)) == pytest.approx(expected)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ModelError):
            FTWCParameters(n=0)
        with pytest.raises(ModelError):
            FTWCParameters(n=1, ws_fail=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize(
        "name", ["ws_fail", "sw_fail", "bb_fail", "ws_repair", "sw_repair", "bb_repair"]
    )
    def test_rates_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ModelError, match=name):
            FTWCParameters(n=1, **{name: value})

    def test_kind_lookup(self):
        params = FTWCParameters(n=1)
        assert params.fail_rate("bb") == pytest.approx(0.0002)
        assert params.repair_rate("swL") == pytest.approx(0.25)


class TestPremium:
    def test_all_up_is_premium(self):
        assert premium(Config(0, 0, False, False, False), n=4)

    def test_one_cluster_suffices(self):
        # Right cluster fully up with its switch: premium, even with the
        # left side and backbone dead.
        assert premium(Config(4, 0, True, False, True), n=4)

    def test_split_needs_backbone_and_both_switches(self):
        config = Config(2, 2, False, False, False)
        assert premium(config, n=4)
        assert not premium(Config(2, 2, False, False, True), n=4)
        assert not premium(Config(2, 2, True, False, False), n=4)

    def test_too_few_workstations(self):
        assert not premium(Config(3, 2, False, False, False), n=4)

    def test_switch_down_blocks_own_cluster(self):
        assert not premium(Config(0, 4, True, False, False), n=4)
        assert premium(Config(0, 4, False, True, False), n=4)


class TestModelStructure:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_uniform_by_construction(self, n):
        model = build_ctmdp(n)
        assert model.ctmdp.is_uniform(tol=1e-9)
        assert model.ctmdp.uniform_rate() == pytest.approx(
            uniform_rate(model.params)
        )

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_matches_paper_table1_markov_states(self, n):
        """The deduplicated rate functions are the Markov states of the
        strictly alternating IMC; the paper's counts are reproduced
        exactly."""
        stats = ctmdp_alternating_statistics(build_ctmdp(n).ctmdp)
        assert stats.markov_states == PAPER_TABLE1[n][1]

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_close_to_paper_table1_state_counts(self, n):
        stats = ctmdp_alternating_statistics(build_ctmdp(n).ctmdp)
        paper_states, _, paper_itr, paper_mtr, _, _ = PAPER_TABLE1[n]
        assert abs(stats.interactive_states - paper_states) <= 1
        assert abs(stats.interactive_transitions - paper_itr) <= 1
        assert abs(stats.markov_transitions - paper_mtr) <= 2

    def test_initial_state_is_all_up(self):
        model = build_ctmdp(2)
        config = model.configs[model.ctmdp.initial]
        assert config == Config(0, 0, False, False, False)

    def test_decision_states_offer_grabs_only(self):
        model = build_ctmdp(2)
        for state, config in enumerate(model.configs):
            labels = {
                t.action for t in model.ctmdp.transitions_of(state)
            }
            if config.is_decision_point():
                assert labels == {f"g_{k}" for k in config.failed_kinds()}
            else:
                assert labels == {"tau"}

    def test_goal_mask_matches_predicate(self):
        model = build_ctmdp(2)
        for state, config in enumerate(model.configs):
            assert model.goal_mask[state] == (not premium(config, 2))

    def test_param_mismatch_rejected(self):
        with pytest.raises(ModelError):
            build_ctmdp(2, FTWCParameters(n=3))


class TestAnalysis:
    def test_worst_case_grows_with_time(self):
        model = build_ctmdp(2)
        values = [
            timed_reachability(model.ctmdp, model.goal_mask, t).value(0)
            for t in (10.0, 100.0, 1000.0)
        ]
        assert values == sorted(values)
        assert 0.0 < values[0] < values[-1] < 1.0

    def test_min_below_max(self):
        model = build_ctmdp(4)
        t = 500.0
        sup = timed_reachability(model.ctmdp, model.goal_mask, t).value(0)
        inf = timed_reachability(model.ctmdp, model.goal_mask, t, objective="min").value(0)
        assert inf <= sup

    @pytest.mark.parametrize("n", [1, 2])
    def test_ctmc_overestimates_worst_case(self, n):
        """The paper's headline Figure 4 finding: the CTMC of [13]
        consistently overestimates even the worst-case probability."""
        model = build_ctmdp(n)
        chain, _configs, goal = build_ctmc(n, gamma=10.0)
        for t in (50.0, 200.0):
            sup = timed_reachability(model.ctmdp, model.goal_mask, t).value(0)
            approx = ctmc_reachability(chain, goal, t, epsilon=1e-10).values[0]
            assert approx > sup

    def test_larger_gamma_shrinks_the_artefact(self):
        n, t = 1, 100.0
        model = build_ctmdp(n)
        sup = timed_reachability(model.ctmdp, model.goal_mask, t).value(0)
        gaps = []
        for gamma in (10.0, 100.0):
            chain, _c, goal = build_ctmc(n, gamma=gamma)
            approx = ctmc_reachability(chain, goal, t, epsilon=1e-10).values[0]
            gaps.append(approx - sup)
        assert gaps[1] < gaps[0]
        assert all(gap > 0.0 for gap in gaps)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ModelError):
            build_ctmc(1, gamma=0.0)


class TestQualityThreshold:
    def test_default_is_premium(self):
        from repro.models.ftwc_direct import Config

        config = Config(1, 0, False, False, False)
        assert premium(config, 4, threshold=None) == premium(config, 4)

    def test_lower_threshold_is_easier(self):
        from repro.models.ftwc_direct import Config

        config = Config(3, 2, False, False, False)  # 1 + 2 operational
        assert not premium(config, 4)
        assert premium(config, 4, threshold=3)
        assert not premium(config, 4, threshold=4)

    def test_threshold_validated(self):
        from repro.models.ftwc_direct import Config

        with pytest.raises(ModelError):
            premium(Config(0, 0, False, False, False), 2, threshold=0)
        with pytest.raises(ModelError):
            premium(Config(0, 0, False, False, False), 2, threshold=5)

    def test_risk_decreases_with_threshold(self):
        values = []
        for threshold in (4, 3, 2, 1):
            model = build_ctmdp(2, quality_threshold=threshold)
            result = timed_reachability(model.ctmdp, model.goal_mask, 100.0)
            values.append(result.value(model.ctmdp.initial))
        assert values == sorted(values, reverse=True)

    def test_ctmc_variant_accepts_threshold(self):
        chain, configs, goal = build_ctmc(2, quality_threshold=1)
        _chain2, _c2, stricter = build_ctmc(2, quality_threshold=4)
        assert goal.sum() < stricter.sum()


class TestLargeSizes:
    @pytest.mark.slow
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_matches_paper_at_scale(self, n):
        from repro.analysis.stats import ctmdp_alternating_statistics

        stats = ctmdp_alternating_statistics(build_ctmdp(n).ctmdp)
        paper_states, paper_markov, *_ = PAPER_TABLE1[n]
        assert stats.markov_states == paper_markov
        assert abs(stats.interactive_states - paper_states) <= 1
