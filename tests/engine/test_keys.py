"""Tests for content-addressed model keys."""

import json

import pytest

from repro.engine.keys import (
    MODEL_FAMILIES,
    RATE_PARAMETERS,
    canonical_json,
    model_key,
    normalize_spec,
)
from repro.errors import ModelError


class TestNormalization:
    def test_defaults_filled(self):
        spec = normalize_spec({"family": "ftwc", "n": 4})
        assert spec["n"] == 4
        assert spec["quality_threshold"] is None
        assert spec["params"] == RATE_PARAMETERS

    def test_ctmc_gamma_default(self):
        spec = normalize_spec({"family": "ftwc-ctmc", "n": 2})
        assert spec["gamma"] == 10.0

    def test_compositional_minimize_default(self):
        spec = normalize_spec({"family": "ftwc-compositional", "n": 1})
        assert spec["minimize_intermediate"] is True

    @pytest.mark.parametrize("value", ["false", 0, None, 1.5])
    def test_compositional_minimize_must_be_a_boolean(self, value):
        """A string, number or null must not silently pick a build mode."""
        spec = {"family": "ftwc-compositional", "n": 1, "minimize_intermediate": value}
        with pytest.raises(ModelError, match="minimize_intermediate"):
            normalize_spec(spec)

    def test_compositional_minimize_accepts_booleans(self):
        for value in (True, False):
            spec = {"family": "ftwc-compositional", "n": 1, "minimize_intermediate": value}
            assert normalize_spec(spec)["minimize_intermediate"] is value

    def test_explicit_defaults_normalize_identically(self):
        implicit = normalize_spec({"family": "ftwc", "n": 2})
        explicit = normalize_spec(
            {"family": "ftwc", "n": 2, "params": {"ws_fail": 1.0 / 500.0}}
        )
        assert implicit == explicit

    @pytest.mark.parametrize(
        "bad",
        [
            {"family": "nope", "n": 1},
            {"family": "ftwc"},  # missing n
            {"family": "ftwc", "n": 0},
            {"family": "ftwc", "n": True},
            {"family": "ftwc", "n": 1, "bogus": 3},
            {"family": "ftwc", "n": 1, "params": {"warp_drive": 2.0}},
            {"family": "ftwc", "n": 1, "params": {"ws_fail": -1.0}},
            {"family": "ftwc", "n": 1, "quality_threshold": 99},
            {"family": "ftwc-ctmc", "n": 1, "gamma": 0.0},
            {"family": "ftwc-compositional", "n": 1, "quality_threshold": 1},
            "not a mapping",
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ModelError):
            normalize_spec(bad)


class TestKeys:
    def test_key_is_sha256_hex(self):
        key = model_key({"family": "ftwc", "n": 1})
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_key_independent_of_spelling(self):
        minimal = model_key({"family": "ftwc", "n": 2})
        spelled = model_key(
            {"family": "ftwc", "n": 2, "params": dict(RATE_PARAMETERS), "quality_threshold": None}
        )
        assert minimal == spelled

    def test_key_distinguishes_parameters(self):
        base = model_key({"family": "ftwc", "n": 2})
        assert model_key({"family": "ftwc", "n": 4}) != base
        assert model_key({"family": "ftwc-ctmc", "n": 2}) != base
        assert model_key({"family": "ftwc", "n": 2, "quality_threshold": 1}) != base
        assert (
            model_key({"family": "ftwc", "n": 2, "params": {"ws_repair": 4.0}}) != base
        )

    def test_every_family_normalizes(self):
        for family in MODEL_FAMILIES:
            assert model_key({"family": family, "n": 1})

    def test_canonical_json_is_sorted_and_parseable(self):
        encoded = canonical_json({"family": "ftwc", "n": 1})
        decoded = json.loads(encoded)
        assert decoded == normalize_spec(decoded)
        assert list(decoded) == sorted(decoded)
