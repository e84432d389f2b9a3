"""Content-addressed keys for model-construction specifications.

A *model spec* is a plain JSON dictionary naming a model family and its
construction parameters, e.g.::

    {"family": "ftwc", "n": 4}
    {"family": "ftwc-ctmc", "n": 4, "gamma": 10.0}
    {"family": "ftwc-compositional", "n": 2}

Specs are *normalised* -- every omitted parameter is filled in with its
default, so two spellings of the same model produce the same canonical
form -- and then hashed (SHA-256 over the canonical JSON encoding) into
the model's *key*.  The key is the address of the model in the registry:
two queries agree on a model if and only if their keys agree, and the
on-disk cache files are named after it.  Construction parameters that
change the built model (rates, the quality threshold, the CTMC race
rate ``gamma``) are all part of the spec, so a cached model can never be
served for parameters it was not built with.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping

from repro.errors import ModelError

__all__ = [
    "MODEL_FAMILIES",
    "RATE_PARAMETERS",
    "normalize_spec",
    "canonical_json",
    "model_key",
]

#: Supported model families: the direct uCTMDP generator, the CTMC
#: approximation of [13], and the compositional (IMC) route.
MODEL_FAMILIES = ("ftwc", "ftwc-ctmc", "ftwc-compositional")

#: The six FTWC rate parameters with their defaults (cf.
#: :class:`repro.models.ftwc_direct.FTWCParameters`).
RATE_PARAMETERS: dict[str, float] = {
    "ws_fail": 1.0 / 500.0,
    "sw_fail": 1.0 / 4000.0,
    "bb_fail": 1.0 / 5000.0,
    "ws_repair": 2.0,
    "sw_repair": 0.25,
    "bb_repair": 0.125,
}


def _positive_int(spec: Mapping[str, Any], field: str) -> int:
    if field not in spec:
        raise ModelError(f"model spec is missing the required field {field!r}")
    value = spec[field]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ModelError(f"model spec field {field!r} must be a positive integer, got {value!r}")
    return int(value)


def _finite_positive_float(value: Any, field: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"model spec field {field!r} must be a number, got {value!r}") from None
    if not math.isfinite(number) or number <= 0.0:
        raise ModelError(f"model spec field {field!r} must be finite and positive, got {value!r}")
    return number


def normalize_spec(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Return the canonical form of ``spec`` with all defaults filled in.

    Raises :class:`~repro.errors.ModelError` on unknown families, unknown
    fields, and out-of-range parameters.  The result is a new dictionary
    whose JSON encoding (via :func:`canonical_json`) is deterministic.
    """
    if not isinstance(spec, Mapping):
        raise ModelError(f"model spec must be a mapping, got {type(spec).__name__}")
    family = spec.get("family")
    if family not in MODEL_FAMILIES:
        raise ModelError(
            f"unknown model family {family!r}; supported: {', '.join(MODEL_FAMILIES)}"
        )

    allowed = {"family", "n", "params", "quality_threshold"}
    if family == "ftwc-ctmc":
        allowed |= {"gamma"}
    if family == "ftwc-compositional":
        allowed |= {"minimize_intermediate"}
        allowed -= {"quality_threshold"}  # goal comes from the premium flags
    unknown = set(spec) - allowed
    if unknown:
        raise ModelError(
            f"unknown model spec field(s) for family {family!r}: {', '.join(sorted(unknown))}"
        )

    n = _positive_int(spec, "n")
    params_in = spec.get("params") or {}
    if not isinstance(params_in, Mapping):
        raise ModelError("model spec field 'params' must be a mapping of rate names")
    unknown_rates = set(params_in) - set(RATE_PARAMETERS)
    if unknown_rates:
        raise ModelError(f"unknown rate parameter(s): {', '.join(sorted(unknown_rates))}")
    params = {
        name: _finite_positive_float(params_in.get(name, default), name)
        for name, default in RATE_PARAMETERS.items()
    }

    normalized: dict[str, Any] = {"family": family, "n": n, "params": params}

    if family in ("ftwc", "ftwc-ctmc"):
        threshold = spec.get("quality_threshold")
        if threshold is not None:
            if isinstance(threshold, bool) or not isinstance(threshold, int):
                raise ModelError("quality_threshold must be an integer or null")
            if not 0 < threshold <= 2 * n:
                raise ModelError(f"quality_threshold must lie in 1..{2 * n}, got {threshold}")
        normalized["quality_threshold"] = threshold
    if family == "ftwc-ctmc":
        normalized["gamma"] = _finite_positive_float(spec.get("gamma", 10.0), "gamma")
    if family == "ftwc-compositional":
        minimize = spec.get("minimize_intermediate", True)
        if not isinstance(minimize, bool):
            raise ModelError(
                f"model spec field 'minimize_intermediate' must be true or false, "
                f"got {minimize!r}"
            )
        normalized["minimize_intermediate"] = minimize

    return normalized


def canonical_json(spec: Mapping[str, Any]) -> str:
    """Deterministic JSON encoding of the normalised spec.

    Keys are sorted and separators fixed; floats use Python's shortest
    round-trip representation, so equal parameter values always encode
    identically.
    """
    return json.dumps(normalize_spec(spec), sort_keys=True, separators=(",", ":"))


def model_key(spec: Mapping[str, Any]) -> str:
    """The content address of ``spec``: SHA-256 of its canonical JSON."""
    return hashlib.sha256(canonical_json(spec).encode("ascii")).hexdigest()
