"""Tests for the CSL-style query layer: parser and checker."""

import math

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.errors import ModelError
from repro.logic import (
    Atom,
    Comparison,
    ExpectedTimeQuery,
    Objective,
    ParseError,
    ProbabilityQuery,
    Reach,
    SteadyStateQuery,
    Until,
    check,
    parse_query,
)
from repro.models.zoo import two_phase_race_ctmdp


class TestParser:
    def test_timed_reachability_query(self):
        query = parse_query('Pmax=? [ F<=100 "goal" ]')
        assert isinstance(query, ProbabilityQuery)
        assert query.objective is Objective.MAX
        assert query.comparison is Comparison.QUERY
        assert query.path == Reach(goal=Atom("goal"), bound=100.0)

    def test_threshold_until_query(self):
        query = parse_query('Pmin>=0.99 [ "safe" U<=50 "done" ]')
        assert query.objective is Objective.MIN
        assert query.comparison is Comparison.AT_LEAST
        assert query.threshold == 0.99
        assert query.path == Until(safe=Atom("safe"), goal=Atom("done"), bound=50.0)

    def test_unbounded_reachability(self):
        query = parse_query('P=? [ F "goal" ]')
        assert query.objective is Objective.NONE
        assert query.path == Reach(goal=Atom("goal"), bound=None)

    def test_true_atom(self):
        query = parse_query("Pmax=? [ F<=1 true ]")
        assert query.path.goal.is_true

    def test_steady_state(self):
        query = parse_query('S>=0.95 [ "premium" ]')
        assert isinstance(query, SteadyStateQuery)
        assert query.threshold == 0.95

    def test_expected_time(self):
        query = parse_query('Tmax=? [ F "down" ]')
        assert isinstance(query, ExpectedTimeQuery)
        assert query.objective is Objective.MAX

    def test_scientific_notation_bound(self):
        query = parse_query('P<=1e-3 [ F<=3e4 "bad" ]')
        assert query.threshold == pytest.approx(1e-3)
        assert query.path.bound == pytest.approx(3e4)

    def test_round_trip_rendering(self):
        for text in (
            'Pmax=? [ F<=100 "goal" ]',
            'Pmin>=0.99 [ "safe" U<=50 "done" ]',
            'S=? [ "premium" ]',
            'Tmin=? [ F "down" ]',
        ):
            query = parse_query(text)
            assert parse_query(str(query)) == query

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "Q=? [ F true ]",
            "Pmax [ F true ]",
            "Pmax=? [ G true ]",
            "Pmax=? [ F true",
            'Pmax=? [ F "a" ] extra',
            "Pmax>=1.5 [ F true ]",
            "Tmax>=1 [ F true ]",
            'Pmax=? [ "a" V "b" ]',
            "Pmax=? [ F<= true ]",
            "Pmax=? [ F #x ]",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_query(bad)


class TestCheckCTMDP:
    @pytest.fixture
    def race(self):
        ctmdp, goal = two_phase_race_ctmdp()
        return ctmdp, {"goal": goal}

    def test_timed_reachability_value(self, race):
        ctmdp, labels = race
        result = check('Pmax=? [ F<=0.5 "goal" ]', ctmdp, labels, epsilon=1e-10)
        from repro.core.reachability import timed_reachability

        expected = timed_reachability(ctmdp, labels["goal"], 0.5, epsilon=1e-10).value(0)
        assert result.value == pytest.approx(expected, abs=1e-12)
        assert result.satisfied is None

    def test_threshold_verdicts(self, race):
        ctmdp, labels = race
        assert check('Pmax>=0.5 [ F<=1.0 "goal" ]', ctmdp, labels).satisfied is True
        assert check('Pmax<=0.5 [ F<=1.0 "goal" ]', ctmdp, labels).satisfied is False

    def test_until_and_reach_agree_with_true_safe_set(self, race):
        ctmdp, labels = race
        reach = check('Pmin=? [ F<=0.7 "goal" ]', ctmdp, labels, epsilon=1e-10)
        until = check('Pmin=? [ true U<=0.7 "goal" ]', ctmdp, labels, epsilon=1e-10)
        assert until.value == pytest.approx(reach.value, abs=1e-12)

    def test_unbounded(self, race):
        ctmdp, labels = race
        result = check('Pmax=? [ F "goal" ]', ctmdp, labels)
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_expected_time(self, race):
        ctmdp, labels = race
        best = check('Tmin=? [ F "goal" ]', ctmdp, labels)
        worst = check('Tmax=? [ F "goal" ]', ctmdp, labels)
        assert best.value == pytest.approx(0.2, abs=1e-9)
        assert worst.value == pytest.approx(1.0, abs=1e-9)

    def test_quantifier_required(self, race):
        ctmdp, labels = race
        with pytest.raises(ModelError, match="quantifier"):
            check('P=? [ F<=1 "goal" ]', ctmdp, labels)

    def test_unknown_label(self, race):
        ctmdp, labels = race
        with pytest.raises(ModelError, match="unknown label"):
            check('Pmax=? [ F<=1 "ghost" ]', ctmdp, labels)

    def test_steady_state_rejected_on_ctmdp(self, race):
        ctmdp, labels = race
        with pytest.raises(ModelError, match="CTMC"):
            check('S=? [ "goal" ]', ctmdp, labels)


class TestCheckCTMC:
    @pytest.fixture
    def chain(self):
        ctmc = CTMC.from_transitions(2, [(0, 1, 2.0), (1, 0, 6.0)])
        labels = {"there": np.array([False, True])}
        return ctmc, labels

    def test_timed_reachability(self, chain):
        ctmc, labels = chain
        result = check('P=? [ F<=1.0 "there" ]', ctmc, labels, epsilon=1e-10)
        assert result.value == pytest.approx(1.0 - math.exp(-2.0), abs=1e-9)

    def test_steady_state(self, chain):
        ctmc, labels = chain
        result = check('S=? [ "there" ]', ctmc, labels)
        assert result.value == pytest.approx(0.25)

    def test_expected_time(self, chain):
        ctmc, labels = chain
        result = check('T=? [ F "there" ]', ctmc, labels)
        assert result.value == pytest.approx(0.5)

    def test_unbounded(self, chain):
        ctmc, labels = chain
        assert check('P=? [ F "there" ]', ctmc, labels).value == pytest.approx(1.0)

    def test_quantifier_rejected_on_ctmc(self, chain):
        ctmc, labels = chain
        with pytest.raises(ModelError):
            check('Pmax=? [ F<=1 "there" ]', ctmc, labels)
        with pytest.raises(ModelError):
            check('Tmax=? [ F "there" ]', ctmc, labels)

    def test_custom_state(self, chain):
        ctmc, labels = chain
        result = check('P=? [ F<=1.0 "there" ]', ctmc, labels, state=1)
        assert result.value == 1.0

    def test_state_out_of_range(self, chain):
        ctmc, labels = chain
        with pytest.raises(ModelError):
            check('P=? [ F<=1.0 "there" ]', ctmc, labels, state=9)


class TestPaperProperty:
    def test_the_papers_motivating_query(self):
        """'The probability to hit a safety-critical system configuration
        within a mission time of 3 hours is at most 0.01' -- Section 1,
        here instantiated on the FTWC."""
        from repro.models.ftwc_direct import build_ctmdp

        model = build_ctmdp(2)
        labels = {"unsafe": model.goal_mask}
        result = check('Pmax<=0.01 [ F<=3 "unsafe" ]', model.ctmdp, labels)
        assert result.satisfied is True
        assert 0.0 < result.value < 0.01


class TestIntervalBounds:
    def test_parse_interval(self):
        query = parse_query('P=? [ F[1,5] "goal" ]')
        assert query.path.bound == (1.0, 5.0)
        assert parse_query(str(query)) == query

    def test_bad_interval_rejected(self):
        with pytest.raises(ParseError):
            parse_query('P=? [ F[5,1] "goal" ]')
        with pytest.raises(ParseError):
            parse_query('P=? [ F[1 5] "goal" ]')

    def test_check_interval_on_ctmc(self):
        from repro.ctmc.reachability import interval_reachability_analysis

        ctmc = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0)])
        labels = {"goal": np.array([False, False, True])}
        result = check('P=? [ F[0.5,2.0] "goal" ]', ctmc, labels, epsilon=1e-10)
        expected = interval_reachability_analysis(
            ctmc, labels["goal"], 0.5, 2.0, epsilon=1e-10
        ).value
        assert result.value == pytest.approx(expected, abs=1e-12)

    def test_interval_rejected_on_ctmdp(self):
        ctmdp, goal = two_phase_race_ctmdp()
        with pytest.raises(ModelError, match="CTMC"):
            check('Pmax=? [ F[1,2] "goal" ]', ctmdp, {"goal": goal})
