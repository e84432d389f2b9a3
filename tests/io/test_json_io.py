"""Tests for JSON model persistence."""

import json

import numpy as np
import pytest

from repro.errors import ModelError
from repro.imc.model import IMC, TAU
from repro.io.json_io import (
    ctmc_from_json,
    ctmc_to_json,
    ctmdp_from_json,
    ctmdp_to_json,
    imc_from_json,
    imc_to_json,
    load_model,
    save_model,
)
from repro.models.zoo import two_phase_race_ctmdp
from tests.zoo import queue_with_breakdowns


class TestRoundTrips:
    def test_imc(self):
        imc = IMC(
            num_states=3,
            interactive=[(0, "a", 1), (1, TAU, 2)],
            markov=[(2, 1.5, 0)],
            initial=0,
            state_names=["x", "y", "z"],
        )
        loaded = imc_from_json(imc_to_json(imc))
        assert loaded.num_states == imc.num_states
        assert loaded.interactive == imc.interactive
        assert loaded.markov == imc.markov
        assert loaded.state_names == imc.state_names

    def test_ctmc(self):
        chain, _ = queue_with_breakdowns(capacity=2)
        loaded = ctmc_from_json(ctmc_to_json(chain))
        np.testing.assert_allclose(loaded.rates.toarray(), chain.rates.toarray())
        assert loaded.initial == chain.initial
        assert loaded.state_names == chain.state_names

    def test_ctmdp(self):
        ctmdp, _ = two_phase_race_ctmdp()
        loaded = ctmdp_from_json(ctmdp_to_json(ctmdp))
        assert loaded.labels == ctmdp.labels
        np.testing.assert_allclose(
            loaded.rate_matrix.toarray(), ctmdp.rate_matrix.toarray()
        )
        assert loaded.initial == ctmdp.initial

    def test_analysis_survives_round_trip(self, tmp_path):
        from repro.core.reachability import timed_reachability
        from repro.models.ftwc_direct import build_ctmdp

        model = build_ctmdp(1)
        path = tmp_path / "ftwc.json"
        save_model(model.ctmdp, path)
        loaded = load_model(path)
        before = timed_reachability(model.ctmdp, model.goal_mask, 100.0).value(0)
        after = timed_reachability(loaded, model.goal_mask, 100.0).value(0)
        assert after == pytest.approx(before, abs=1e-15)


class TestFileLayer:
    def test_save_load_autodetects_kind(self, tmp_path):
        imc = IMC(num_states=2, markov=[(0, 1.0, 1), (1, 1.0, 0)])
        path = tmp_path / "model.json"
        save_model(imc, path)
        loaded = load_model(path)
        assert isinstance(loaded, IMC)

    def test_file_is_valid_json(self, tmp_path):
        chain, _ = queue_with_breakdowns(capacity=1)
        path = tmp_path / "chain.json"
        save_model(chain, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro-model"
        assert data["kind"] == "ctmc"

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "repro-model", "version": 1, "kind": "dtmc"}')
        with pytest.raises(ModelError):
            load_model(path)

    def test_wrong_format_rejected(self):
        with pytest.raises(ModelError):
            imc_from_json({"format": "something-else"})

    def test_wrong_version_rejected(self):
        with pytest.raises(ModelError):
            imc_from_json({"format": "repro-model", "version": 99, "kind": "imc"})

    def test_kind_mismatch_rejected(self):
        chain, _ = queue_with_breakdowns(capacity=1)
        with pytest.raises(ModelError):
            imc_from_json(ctmc_to_json(chain))

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            save_model("not a model", tmp_path / "x.json")  # type: ignore[arg-type]
