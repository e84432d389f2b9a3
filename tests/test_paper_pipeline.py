"""Integration test: the paper's full trajectory on one small system.

Walks every step of the paper in order -- phase-type time constraints
(Section 2), elapse + parallel composition + hiding with uniformity
preserved at each step (Section 3), stochastic branching bisimulation
minimisation (Definition 6), the strictly-alternating transformation to
a uniform CTMDP (Section 4.1), Algorithm 1 (Section 4.2) -- and
cross-checks the final numbers against independent machinery (CTMC
solver, Monte-Carlo simulation of the untransformed IMC).
"""

import pytest

from repro.bisim import branching_minimize
from repro.bisim.quotient import map_labels_through
from repro.core import timed_reachability
from repro.ctmc import PhaseType
from repro.imc import elapse, hide_all_but, imc_to_ctmdp, lts, parallel
from repro.imc.model import StateClass
from repro.sim.imc_sim import random_resolver, simulate_imc_reachability
from tests.oracles.bisim import are_branching_bisimilar


@pytest.fixture(scope="module")
def pipeline():
    """A machine with phase-type failure and repair clocks plus an
    operator who must acknowledge repairs (the nondeterminism: the
    operator may attend the machine or take a break first)."""
    machine = lts(
        3,
        [(0, "fail", 1), (1, "repair", 2), (2, "ack", 0)],
        state_names=["up", "down", "fixed"],
    )
    fail_clock = elapse(PhaseType.erlang(2, 1.0), fire="fail", reset="ack")
    repair_clock = elapse(
        PhaseType.exponential(4.0), fire="repair", reset="fail", started=False
    )
    operator = lts(
        2,
        [(0, "ack", 0), (0, "break", 1), (1, "back", 0)],
        state_names=["present", "away"],
    )
    break_clock = elapse(
        PhaseType.exponential(0.5), fire="back", reset="break", started=False
    )

    system = parallel(machine, fail_clock, sync=["fail", "ack"])
    system = parallel(system, repair_clock, sync=["fail", "repair"])
    system = parallel(system, operator, sync=["ack"])
    system = parallel(system, break_clock, sync=["break", "back"])
    return hide_all_but(system)


class TestPaperPipeline:
    def test_step1_composition_is_uniform_by_construction(self, pipeline):
        # Lemma 2: the uniform rates of the three clocks add up.
        assert pipeline.is_uniform(closed=True)
        assert pipeline.uniform_rate(closed=True) == pytest.approx(1.0 + 4.0 + 0.5)

    def test_step2_minimisation_preserves_everything(self, pipeline):
        labels = [pipeline.name_of(s).startswith("down") for s in range(pipeline.num_states)]
        quotient, partition = branching_minimize(pipeline, labels=labels)
        assert quotient.num_states < pipeline.num_states
        # Lemma 3 / Corollary 1.
        assert quotient.is_uniform(closed=True)
        assert quotient.uniform_rate(closed=True) == pytest.approx(5.5)
        # Definition 6 on the union: quotient ~ original.
        assert are_branching_bisimilar(
            pipeline, quotient, labels, map_labels_through(partition, labels)
        )

    def test_step3_transformation_is_strictly_alternating(self, pipeline):
        result = imc_to_ctmdp(pipeline, require_uniform=True)
        alt = result.alternation.imc
        for state in range(alt.num_states):
            assert alt.state_class(state) in (StateClass.MARKOV, StateClass.INTERACTIVE)
        assert result.ctmdp.is_uniform(tol=1e-9)
        assert result.ctmdp.uniform_rate() == pytest.approx(5.5)

    def test_step4_analysis_and_cross_validation(self, pipeline, rng):
        result = imc_to_ctmdp(pipeline, require_uniform=True)
        down_states = {
            s for s in range(pipeline.num_states) if pipeline.name_of(s).startswith("down")
        }
        mask = result.goal_mask_from_predicate(lambda s: s in down_states, via="markov")
        t = 2.0
        sup = timed_reachability(result.ctmdp, mask, t, epsilon=1e-9)
        inf = timed_reachability(result.ctmdp, mask, t, epsilon=1e-9, objective="min")
        assert 0.0 < inf.value(result.ctmdp.initial) <= sup.value(result.ctmdp.initial) < 1.0

        estimate = simulate_imc_reachability(
            pipeline, down_states, t, resolver=random_resolver(rng), runs=4000, rng=rng
        )
        low, high = estimate.confidence_interval(z=4.0)
        assert low <= sup.value(result.ctmdp.initial) + 1e-9
        assert high >= inf.value(result.ctmdp.initial) - 1e-9

    def test_minimised_and_original_analyses_agree(self, pipeline):
        labels = [pipeline.name_of(s).startswith("down") for s in range(pipeline.num_states)]
        quotient, partition = branching_minimize(pipeline, labels=labels)
        quotient_labels = map_labels_through(partition, labels)

        original = imc_to_ctmdp(pipeline, require_uniform=True)
        reduced = imc_to_ctmdp(quotient, require_uniform=True)
        mask_original = original.goal_mask_from_predicate(lambda s: labels[s], via="markov")
        mask_reduced = reduced.goal_mask_from_predicate(
            lambda s: quotient_labels[s], via="markov"
        )
        for objective in ("max", "min"):
            for t in (0.5, 3.0):
                value_original = timed_reachability(
                    original.ctmdp, mask_original, t, epsilon=1e-9, objective=objective
                ).value(original.ctmdp.initial)
                value_reduced = timed_reachability(
                    reduced.ctmdp, mask_reduced, t, epsilon=1e-9, objective=objective
                ).value(reduced.ctmdp.initial)
                assert value_reduced == pytest.approx(value_original, abs=1e-7)
