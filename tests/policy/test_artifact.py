"""Policy artifacts: content addressing and the ``.rpol`` binary format."""

import json

import numpy as np
import pytest

from repro.errors import ModelError
from repro.obs import NumericalCertificate
from repro.policy.artifact import (
    PolicyArtifact,
    load_artifact,
    policy_key,
    read_header,
    save_artifact,
)
from repro.policy.store import CompressedDecisions


def _artifact(rows=20, states=7, value=0.25, **extra_meta):
    matrix = np.zeros((rows, states), dtype=np.int32)
    if rows:
        matrix[rows // 2 :, 1] = 1
    meta = {
        "model_key": "k" * 64,
        "objective": "max",
        "t": 100.0,
        "epsilon": 1e-6,
        "value": value,
    }
    meta.update(extra_meta)
    return PolicyArtifact(
        decisions=CompressedDecisions.from_dense(matrix, reverse_rows=True),
        meta=meta,
        certificate=NumericalCertificate.trivial("ctmdp.reachability", 1e-6),
    )


class TestContentAddress:
    def test_key_is_deterministic(self):
        assert _artifact().key == _artifact().key

    def test_key_depends_on_meta_and_decisions(self):
        assert _artifact().key != _artifact(value=0.5).key
        assert _artifact(rows=20).key != _artifact(rows=21).key

    def test_certificate_does_not_enter_the_key(self):
        with_cert = _artifact()
        without = PolicyArtifact(
            decisions=with_cert.decisions, meta=dict(with_cert.meta), certificate=None
        )
        assert policy_key(with_cert) == policy_key(without)

    def test_required_meta_is_validated(self):
        store = CompressedDecisions.empty(3)
        with pytest.raises(ModelError, match="missing"):
            PolicyArtifact(decisions=store, meta={"objective": "max"})
        with pytest.raises(ModelError, match="objective"):
            _artifact(objective="best")


class TestBinaryFormat:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_save_load_round_trip(self, tmp_path, mmap):
        artifact = _artifact(rows=300, states=11, goal="no_premium")
        path = tmp_path / "policy.rpol"
        save_artifact(artifact, path)
        loaded = load_artifact(path, mmap=mmap)
        assert loaded.key == artifact.key
        assert loaded.meta == artifact.meta
        assert loaded.certificate == artifact.certificate
        assert np.array_equal(loaded.decisions.dense(), artifact.decisions.dense())
        assert loaded.decisions.layout() == artifact.decisions.layout()

    def test_header_is_readable_without_arrays(self, tmp_path):
        artifact = _artifact()
        path = artifact.save(tmp_path / "p.rpol")
        header = read_header(path)
        assert header["key"] == artifact.key
        assert header["meta"]["objective"] == "max"
        assert {entry["name"] for entry in header["arrays"]} == set(
            artifact.decisions.arrays()
        )

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "junk.rpol"
        path.write_bytes(b"NOTAPOLICYFILE")
        with pytest.raises(ModelError, match="magic"):
            read_header(path)

    def test_tampered_arrays_fail_the_hash_check(self, tmp_path):
        artifact = _artifact(rows=64, states=9)
        path = artifact.save(tmp_path / "p.rpol")
        raw = bytearray(path.read_bytes())
        header = read_header(path)
        offset = min(int(entry["offset"]) for entry in header["arrays"])
        raw[offset] = (raw[offset] + 1) % 256
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelError, match="hash mismatch"):
            load_artifact(path)

    def test_empty_decisions_round_trip(self, tmp_path):
        artifact = PolicyArtifact(
            decisions=CompressedDecisions.empty(5),
            meta={
                "model_key": "k",
                "objective": "min",
                "t": 0.0,
                "epsilon": 1e-6,
                "value": 0.0,
            },
        )
        loaded = load_artifact(artifact.save(tmp_path / "e.rpol"))
        assert loaded.key == artifact.key
        assert loaded.decisions.shape == (0, 5)


class TestNdjsonExport:
    def test_stream_reconstructs_the_table(self):
        artifact = _artifact(rows=30, states=6)
        lines = list(artifact.export_ndjson())
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["key"] == artifact.key
        rows = [json.loads(line) for line in lines[1:]]
        assert all(record["kind"] == "row" for record in rows)
        dense = np.empty(artifact.decisions.shape, dtype=np.int32)
        for record, following in zip(rows, rows[1:] + [None]):
            stop = following["row"] if following else len(dense)
            dense[record["row"] : stop] = np.array(record["decisions"], dtype=np.int32)
        assert np.array_equal(dense, artifact.decisions.dense())
        # Change-point streaming beats row-per-line for real schedulers:
        # row 0 plus one record per row differing from its predecessor.
        assert len(rows) == 1 + len(artifact.decisions.change_points())
