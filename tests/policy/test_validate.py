"""Induced-chain validation and the registry/engine policy round-trip."""

import numpy as np
import pytest

from repro.engine import ModelRegistry, Query, run_batch
from repro.errors import ModelError
from repro.models import ftwc_direct
from repro.obs import MetricStore
from repro.policy.artifact import PolicyArtifact
from repro.policy.validate import validate_artifact


@pytest.fixture(scope="module")
def ftwc():
    return ftwc_direct.build_ctmdp(1)


def _extract(objective="max", t=50.0, n=1, registry=None):
    """One policy artifact via the engine's recording path."""
    batch = run_batch(
        [Query(model={"family": "ftwc", "n": n}, t=t, objective=objective)],
        registry=registry,
        record_schedulers=True,
    )
    result = batch.results[0]
    assert result.ok and result.policy is not None
    return result.policy


class TestValidation:
    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_optimal_policy_validates(self, ftwc, objective):
        artifact = _extract(objective=objective)
        metrics = MetricStore()
        report = validate_artifact(
            artifact, ftwc.ctmdp, ftwc.goal_mask, metrics=metrics
        )
        assert report.ok
        assert report.deviation <= report.tolerance
        assert report.certificate.healthy
        assert report.certificate.algorithm == "policy.induced_chain"
        assert metrics.counter("policy_validations") == 1
        assert metrics.counter("policy_validations_failed") == 0
        assert metrics.gauge_value("policy_replay_cells_per_second") > 0.0

    def test_forged_value_fails(self, ftwc):
        artifact = _extract()
        forged = PolicyArtifact(
            decisions=artifact.decisions,
            meta={**artifact.meta, "value": 0.5},
            certificate=artifact.certificate,
        )
        metrics = MetricStore()
        report = validate_artifact(
            forged, ftwc.ctmdp, ftwc.goal_mask, metrics=metrics
        )
        assert not report.ok
        assert not report.certificate.healthy
        assert report.deviation > report.tolerance
        assert metrics.counter("policy_validations_failed") == 1

    def test_report_is_serialisable(self, ftwc):
        artifact = _extract()
        report = validate_artifact(artifact, ftwc.ctmdp, ftwc.goal_mask)
        record = report.as_dict()
        assert record["artifact_key"] == artifact.key
        assert record["deviation"] == report.deviation
        assert "induced-chain" in report.describe()


class TestRegistryRoundTrip:
    def test_store_load_replay_equality(self, tmp_path, ftwc):
        registry = ModelRegistry(cache_dir=str(tmp_path))
        artifact = _extract(registry=registry)
        path = registry.store_policy(artifact)
        assert path.exists()
        assert registry.metrics.counter("policies_stored") == 1

        listed = registry.list_policies()
        assert [record["key"] for record in listed] == [artifact.key]

        loaded = registry.load_policy(artifact.key)
        assert loaded.key == artifact.key
        assert np.array_equal(loaded.decisions.dense(), artifact.decisions.dense())
        original = validate_artifact(artifact, ftwc.ctmdp, ftwc.goal_mask)
        replayed = validate_artifact(loaded, ftwc.ctmdp, ftwc.goal_mask)
        assert replayed.replayed_value == original.replayed_value
        assert replayed.ok

    def test_memory_only_registry_refuses_policies(self, ftwc):
        registry = ModelRegistry()
        artifact = _extract()
        with pytest.raises(ModelError, match="memory-only"):
            registry.store_policy(artifact)

    def test_unknown_key_raises(self, tmp_path):
        registry = ModelRegistry(cache_dir=str(tmp_path))
        with pytest.raises(ModelError, match="no stored policy"):
            registry.load_policy("0" * 64)


class TestEngineRecording:
    def test_policies_only_on_request_and_only_for_ctmdps(self):
        queries = [
            Query(model={"family": "ftwc", "n": 1}, t=10.0),
            Query(model={"family": "ftwc-ctmc", "n": 1}, t=10.0),
            Query(model={"family": "ftwc", "n": 1}, t=0.0),
        ]
        plain = run_batch(queries)
        assert all(result.policy is None for result in plain.results)
        assert all(
            "policy" not in result.as_dict() for result in plain.results
        )

        recorded = run_batch(queries, record_schedulers=True)
        ctmdp_result = recorded.results[0]
        assert ctmdp_result.policy is not None
        assert ctmdp_result.policy.objective == "max"
        assert ctmdp_result.policy.t == 10.0
        assert ctmdp_result.policy.value == ctmdp_result.value
        assert ctmdp_result.as_dict()["policy"]["key"] == ctmdp_result.policy.key
        # CTMC queries and trivial horizons record nothing.
        assert recorded.results[1].policy is None
        assert recorded.results[2].policy is None
        counters = recorded.metrics.as_dict()["counters"]
        assert counters["policies_extracted"] == 1
        assert counters["policy_bytes_written"] < counters["policy_dense_bytes"]
