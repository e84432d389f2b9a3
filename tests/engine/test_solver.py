"""Tests for the batched multi-query solver.

The load-bearing property is the acceptance criterion of the engine PR:
batched sweep results must be *bitwise-equal* to independent
``timed_reachability`` calls at the same epsilon -- batching may only
change the cost of an analysis, never its outcome.
"""

import numpy as np
import pytest

from repro.core.reachability import timed_reachability
from repro.ctmc import reachability as ctmc_reachability
from repro.engine import (
    ModelRegistry,
    Query,
    QueryEngine,
    run_batch,
    run_batch_dicts,
)
from repro.models import ftwc_direct
from repro.obs import NumericalCertificate, tracing

SPEC1 = {"family": "ftwc", "n": 1}
SPEC2 = {"family": "ftwc", "n": 2}
TIME_SWEEP = (0.0, 10.0, 50.0, 100.0, 250.0, 500.0)


class TestBitwiseEquality:
    def test_batched_sweep_equals_independent_calls(self):
        batch = run_batch([Query(model=SPEC2, t=t) for t in TIME_SWEEP])
        model = ftwc_direct.build_ctmdp(2)
        for t, result in zip(TIME_SWEEP, batch.results):
            reference = timed_reachability(
                model.ctmdp, model.goal_mask, t, epsilon=1e-6
            ).value(model.ctmdp.initial)
            assert result.value == reference  # bitwise, not approx
            assert result.error is None

    def test_min_objective_matches(self):
        batch = run_batch(
            [Query(model=SPEC2, t=t, objective="min") for t in (50.0, 100.0)]
        )
        model = ftwc_direct.build_ctmdp(2)
        for t, result in zip((50.0, 100.0), batch.results):
            reference = timed_reachability(
                model.ctmdp, model.goal_mask, t, epsilon=1e-6, objective="min"
            ).value(model.ctmdp.initial)
            assert result.value == reference

    def test_ctmc_queries_match_ctmc_solver(self):
        spec = {"family": "ftwc-ctmc", "n": 1}
        batch = run_batch([Query(model=spec, t=t, epsilon=1e-8) for t in (10.0, 100.0)])
        chain, _configs, goal = ftwc_direct.build_ctmc(1)
        for t, result in zip((10.0, 100.0), batch.results):
            reference = ctmc_reachability.timed_reachability(chain, goal, t, epsilon=1e-8)
            assert result.value == float(reference.values[chain.initial])
            assert result.iterations == reference.iterations

    def test_mixed_epsilons_keep_their_precision(self):
        batch = run_batch(
            [
                Query(model=SPEC1, t=100.0, epsilon=1e-3),
                Query(model=SPEC1, t=100.0, epsilon=1e-9),
            ]
        )
        model = ftwc_direct.build_ctmdp(1)
        for epsilon, result in zip((1e-3, 1e-9), batch.results):
            reference = timed_reachability(
                model.ctmdp, model.goal_mask, 100.0, epsilon=epsilon
            )
            assert result.value == reference.value(model.ctmdp.initial)
            assert result.iterations == reference.iterations


class TestInitialStateCone:
    """The engine reads the initial state only and sweeps only its cone."""

    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_premium_start_is_answered_without_a_sweep(self, objective):
        # The all-up initial state is itself premium.
        batch = run_batch(
            [Query(model=SPEC2, t=t, objective=objective, goal="premium") for t in TIME_SWEEP]
        )
        for result in batch.results:
            assert result.value == 1.0
            assert result.iterations == 0
            assert result.certificate == NumericalCertificate.trivial(
                "ctmdp.reachability", 1e-6
            )

    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_no_premium_matches_the_full_sweep(self, objective):
        batch = run_batch(
            [Query(model=SPEC2, t=t, objective=objective) for t in TIME_SWEEP]
        )
        model = ftwc_direct.build_ctmdp(2)
        for t, result in zip(TIME_SWEEP, batch.results):
            reference = timed_reachability(
                model.ctmdp, model.goal_mask, t, objective=objective
            )
            assert result.value == reference.value(model.ctmdp.initial)
            assert result.iterations == reference.iterations
            assert result.certificate == reference.certificate

    def test_ctmc_path(self):
        spec = {"family": "ftwc-ctmc", "n": 2}
        batch = run_batch(
            [Query(model=spec, t=t, goal=goal) for goal in ("no_premium", "premium")
             for t in (10.0, 100.0)]
        )
        chain, _configs, goal = ftwc_direct.build_ctmc(2)
        for t, result in zip((10.0, 100.0), batch.results[:2]):
            reference = ctmc_reachability.timed_reachability(chain, goal, t, epsilon=1e-6)
            assert result.value == float(reference.values[chain.initial])
            assert result.iterations == reference.iterations
            assert result.certificate == reference.certificate
        for result in batch.results[2:]:
            assert (result.value, result.iterations) == (1.0, 0)

    def test_one_prepare_per_model_and_goal(self):
        engine = QueryEngine()
        with tracing() as tracer:
            for t in (10.0, 20.0, 50.0, 100.0):
                engine.run([Query(model=SPEC1, t=t)])
            assert sum(s.name == "solver.prepare" for s in tracer.spans) == 1
            engine.run([Query(model=SPEC1, t=10.0, goal="premium")])
            engine.run([Query(model=SPEC1, t=10.0, objective="min")])
        assert sum(s.name == "solver.prepare" for s in tracer.spans) == 2

    def test_recording_keeps_the_full_sweep(self):
        """A recorded policy decides at every state, even where the
        initial state's answer needs no sweep."""
        batch = run_batch(
            [Query(model=SPEC1, t=50.0, goal="premium")], record_schedulers=True
        )
        result = batch.results[0]
        assert (result.value, result.iterations) == (1.0, 171)
        assert result.policy.decisions.shape == (171, 111)
        # The key the all-states recording has always produced.
        assert result.policy.key == (
            "055a994ee8b849c68fe2bc4f778155bd1cb5162e1ea73c99ba363f4d6517f38e"
        )


class TestBatchBehaviour:
    def test_results_in_input_order_with_shared_model(self):
        shuffled = (100.0, 10.0, 50.0)
        batch = run_batch([Query(model=SPEC1, t=t) for t in shuffled])
        assert [r.index for r in batch.results] == [0, 1, 2]
        assert [r.query.t for r in batch.results] == list(shuffled)
        # One model build serves the whole sweep.
        assert batch.metrics.counter("models_built") == 1

    def test_goal_error_is_captured_not_fatal(self):
        batch = run_batch(
            [
                Query(model=SPEC1, t=10.0, goal="does_not_exist"),
                Query(model=SPEC1, t=10.0),
            ]
        )
        failed, succeeded = batch.results
        assert failed.error is not None and "does_not_exist" in failed.error
        assert failed.value is None
        assert succeeded.error is None and succeeded.value is not None
        assert batch.num_failed == 1
        assert batch.metrics.counter("queries_failed") == 1

    def test_invalid_dicts_become_error_records(self):
        batch = run_batch_dicts(
            [
                {"t": 10.0},
                {"model": SPEC1, "t": 10.0, "typo_field": 1},
                {"model": SPEC1, "t": 10.0},
            ]
        )
        assert [r.ok for r in batch.results] == [False, False, True]
        assert "model" in batch.results[0].error
        assert "typo_field" in batch.results[1].error

    def test_dict_defaults_apply(self):
        batch = run_batch_dicts(
            [{"t": 10.0}, {"t": 20.0}], defaults={"model": SPEC1}
        )
        assert all(r.ok for r in batch.results)
        assert batch.metrics.counter("queries_total") == 2

    def test_metrics_surface_on_batch(self):
        registry = ModelRegistry()
        batch = run_batch([Query(model=SPEC1, t=10.0)], registry=registry)
        document = batch.as_dict()
        assert document["metrics"]["counters"]["foxglynn"] == 1
        assert document["metrics"]["counters"]["iterations"] > 0
        (record,) = document["results"]
        assert record["cache"] == "build"
        assert record["seconds"] > 0.0
        assert record["model_key"] == batch.results[0].query.model_key()

    def test_per_query_timeout(self):
        batch = run_batch(
            [
                Query(model=SPEC2, t=30000.0),  # ~62k iterations: way over budget
                Query(model=SPEC2, t=1.0),
            ],
            timeout=0.05,
        )
        long, short = batch.results
        assert long.error is not None and "timed out" in long.error
        assert short.ok  # the batch survived the timeout


class TestQueryEngine:
    def test_engine_reuses_registry_across_batches(self):
        engine = QueryEngine()
        engine.run([Query(model=SPEC1, t=10.0)])
        engine.run([Query(model=SPEC1, t=20.0)])
        assert engine.metrics.counter("models_built") == 1
        assert engine.metrics.counter("cache_hits_memory") == 1

    def test_engine_model_lookup(self):
        engine = QueryEngine()
        built = engine.model(SPEC1)
        assert built.kind == "ctmdp"
        assert engine.model(SPEC1) is built
