"""Property tests for the worklist refinement engine.

The engine of :mod:`repro.bisim.worklist` must compute exactly the
partition of the naive signature-refinement oracle -- the two are
cross-checked here on random IMCs (with and without label seeding), on
the tau-heavy models the compositional pipeline produces, and on every
minimisation of the FTWC build itself.
"""

import numpy as np
from hypothesis import given, settings

from repro.bisim.branching import branching_bisimulation, branching_minimize
from repro.imc.model import IMC, TAU
from repro.obs import MetricStore
from tests.conftest import random_imcs, random_uniform_imcs
from tests.oracles.bisim import (
    is_stochastic_branching_bisimulation,
    naive_branching_bisimulation,
    record_minimisation_workload,
)


class TestEngineEquality:
    @given(imc=random_imcs(max_states=8, max_interactive=12, max_markov=12))
    @settings(max_examples=120, deadline=None)
    def test_engines_agree_on_random_imcs(self, imc):
        worklist = branching_bisimulation(imc)
        naive = naive_branching_bisimulation(imc)
        np.testing.assert_array_equal(worklist.block_of, naive.block_of)

    @given(imc=random_imcs(max_states=8, max_interactive=12, max_markov=12))
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_with_label_seeding(self, imc):
        labels = [s % 2 for s in range(imc.num_states)]
        worklist = branching_bisimulation(imc, labels=labels)
        naive = naive_branching_bisimulation(imc, labels=labels)
        np.testing.assert_array_equal(worklist.block_of, naive.block_of)

    @given(imc=random_uniform_imcs())
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_on_uniform_imcs(self, imc):
        worklist = branching_bisimulation(imc)
        naive = naive_branching_bisimulation(imc)
        np.testing.assert_array_equal(worklist.block_of, naive.block_of)

    def test_engines_agree_on_ftwc(self):
        workload = record_minimisation_workload(1)
        assert workload
        for imc, labels in workload:
            worklist = branching_bisimulation(imc, labels)
            naive = naive_branching_bisimulation(imc, labels)
            np.testing.assert_array_equal(worklist.block_of, naive.block_of)


class TestFixpointProperties:
    @given(imc=random_imcs(max_states=7))
    @settings(max_examples=60, deadline=None)
    def test_worklist_fixpoint_is_a_bisimulation(self, imc):
        partition = branching_bisimulation(imc)
        assert is_stochastic_branching_bisimulation(imc, partition)

    @given(imc=random_imcs(max_states=7))
    @settings(max_examples=40, deadline=None)
    def test_minimize_is_idempotent(self, imc):
        quotient, _ = branching_minimize(imc)
        again, partition = branching_minimize(quotient)
        assert again.num_states == quotient.num_states
        assert partition.num_blocks == quotient.num_states

    @given(imc=random_imcs(max_states=7))
    @settings(max_examples=40, deadline=None)
    def test_labels_are_respected(self, imc):
        labels = [s % 3 for s in range(imc.num_states)]
        partition = branching_bisimulation(imc, labels=labels)
        for block in partition.canonical().blocks():
            assert len({labels[s] for s in block}) == 1


class TestEdgeCases:
    def test_single_state(self):
        imc = IMC(num_states=1, markov=[(0, 1.0, 0)])
        assert branching_bisimulation(imc).num_blocks == 1

    def test_no_transitions(self):
        imc = IMC(num_states=3)
        assert branching_bisimulation(imc).num_blocks == 1

    def test_tau_cycle_collapses(self):
        imc = IMC(
            num_states=3,
            interactive=[(0, TAU, 1), (1, TAU, 2), (2, TAU, 0)],
        )
        assert branching_bisimulation(imc).num_blocks == 1

    def test_deep_inert_tau_chain(self):
        # Signature propagation must cross long inert chains: only the
        # last state carries a visible move, yet the whole chain can
        # reach it through inert tau steps, so everything merges.
        n = 30
        interactive = [(s, TAU, s + 1) for s in range(n - 1)]
        interactive.append((n - 1, "a", 0))
        imc = IMC(num_states=n, interactive=interactive)
        worklist = branching_bisimulation(imc)
        naive = naive_branching_bisimulation(imc)
        np.testing.assert_array_equal(worklist.block_of, naive.block_of)
        assert worklist.num_blocks == 1


class TestObservability:
    def test_counters_are_recorded(self):
        metrics = MetricStore()
        imc = IMC(
            num_states=4,
            markov=[(0, 1.0, 1), (0, 1.0, 2), (1, 1.0, 3), (2, 1.0, 3), (3, 4.0, 0)],
        )
        branching_minimize(imc, metrics=metrics)
        assert metrics.counter("bisim_minimize_calls") == 1
        assert metrics.counter("bisim_rounds") >= 1
        assert metrics.counter("bisim_splits") >= 1
        assert metrics.counter("bisim_states_rescanned") >= imc.num_states
        assert metrics.counter("bisim_states_eliminated") == 1
