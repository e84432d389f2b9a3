"""Compressed vs dense scheduler extraction: bitwise equivalence.

The compressed streaming writer is the only recording format; the test
oracle :class:`tests.oracles.policy.DenseWriter` swaps in the plain
``iterations x states`` matrix so these tests can assert the two never
diverge -- same decisions, same replays, same values, across
objectives, horizons and the trivial early-return paths.
"""

import numpy as np
import pytest

from repro.core.reachability import (
    PreparedTimedReachability,
    replay_step_scheduler,
    timed_reachability,
)
from repro.core.scheduler import greedy_scheduler_from_decisions
from repro.core.until import timed_until
from repro.models import ftwc_direct
from repro.policy.store import CompressedDecisions
from tests.oracles.policy import dense_recording


@pytest.fixture(scope="module")
def ftwc():
    return ftwc_direct.build_ctmdp(1)


class TestReachabilityExtraction:
    @pytest.mark.parametrize("objective", ["max", "min"])
    @pytest.mark.parametrize("t", [10.0, 100.0])
    def test_compressed_equals_dense(self, ftwc, objective, t, monkeypatch):
        prepared = PreparedTimedReachability(ftwc.ctmdp, ftwc.goal_mask)
        compressed = prepared.solve(
            t, objective=objective, record_scheduler=True
        )
        with dense_recording(monkeypatch):
            dense = prepared.solve(t, objective=objective, record_scheduler=True)
        assert isinstance(compressed.decisions, CompressedDecisions)
        assert isinstance(dense.decisions, np.ndarray)
        assert np.array_equal(compressed.decisions.dense(), dense.decisions)
        assert np.array_equal(compressed.values, dense.values)

    def test_long_horizon_stays_lossless(self, ftwc, monkeypatch):
        result = timed_reachability(
            ftwc.ctmdp, ftwc.goal_mask, 500.0, record_scheduler=True
        )
        with dense_recording(monkeypatch):
            reference = timed_reachability(
                ftwc.ctmdp, ftwc.goal_mask, 500.0, record_scheduler=True
            )
        assert result.iterations == len(result.decisions)
        assert np.array_equal(result.decisions.dense(), reference.decisions)
        # A long FTWC run is where compression pays: >=10x smaller.
        assert result.decisions.compression_ratio >= 10.0

    def test_trivial_horizons_record_nothing(self, ftwc):
        result = timed_reachability(
            ftwc.ctmdp, ftwc.goal_mask, 0.0, record_scheduler=True
        )
        assert result.decisions is None
        empty = timed_reachability(
            ftwc.ctmdp, np.zeros(ftwc.ctmdp.num_states, dtype=bool), 10.0,
            record_scheduler=True,
        )
        assert empty.decisions is None


class TestUntilExtraction:
    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_compressed_equals_dense(self, ftwc, objective, monkeypatch):
        safe = np.ones(ftwc.ctmdp.num_states, dtype=bool)
        compressed = timed_until(
            ftwc.ctmdp, safe, ftwc.goal_mask, 50.0, objective=objective,
            record_scheduler=True,
        )
        with dense_recording(monkeypatch):
            dense = timed_until(
                ftwc.ctmdp, safe, ftwc.goal_mask, 50.0, objective=objective,
                record_scheduler=True,
            )
        assert np.array_equal(compressed.decisions.dense(), dense.decisions)
        assert np.array_equal(compressed.values, dense.values)


class TestReplay:
    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_replay_is_format_independent(self, ftwc, objective):
        t = 25.0
        result = timed_reachability(
            ftwc.ctmdp, ftwc.goal_mask, t, objective=objective,
            record_scheduler=True,
        )
        dense = result.decisions.dense()
        from_compressed = replay_step_scheduler(
            ftwc.ctmdp, ftwc.goal_mask, t, result.decisions
        )
        from_dense = replay_step_scheduler(ftwc.ctmdp, ftwc.goal_mask, t, dense)
        assert np.array_equal(from_compressed.values, from_dense.values)
        # Replaying the optimal scheduler reproduces the solver's value
        # within the certified bound.
        deviation = float(np.max(np.abs(from_compressed.values - result.values)))
        bound = (
            result.certificate.error_bound
            + from_compressed.certificate.error_bound
        )
        assert deviation <= bound + 1e-12

    def test_evaluate_step_scheduler_accepts_compressed(self, ftwc):
        t = 25.0
        result = timed_reachability(
            ftwc.ctmdp, ftwc.goal_mask, t, record_scheduler=True
        )
        scheduler = greedy_scheduler_from_decisions(result.decisions)
        values = replay_step_scheduler(
            ftwc.ctmdp, ftwc.goal_mask, t, scheduler.decisions
        )
        reference = replay_step_scheduler(
            ftwc.ctmdp, ftwc.goal_mask, t, result.decisions.dense()
        )
        assert np.array_equal(values.values, reference.values)

    def test_replay_trivial_horizon(self, ftwc):
        result = replay_step_scheduler(
            ftwc.ctmdp, ftwc.goal_mask, 0.0, CompressedDecisions.empty(
                ftwc.ctmdp.num_states
            )
        )
        assert np.array_equal(
            result.values, ftwc.goal_mask.astype(float)
        )
        assert result.certificate.error_bound == 0.0
