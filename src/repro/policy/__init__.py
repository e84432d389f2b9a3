"""``repro.policy``: schedulers as first-class, storable artifacts.

Algorithm 1 extracts an ε-optimal *timed* scheduler as a by-product of
the backward value iteration; this package turns that by-product into
something an engineering pipeline can keep:

* :mod:`repro.policy.store` -- the compressed decision store
  (:class:`CompressedDecisions`) and its streaming producer
  (:class:`PolicyWriter`), used *during* value iteration so the dense
  ``iterations x states`` matrix is never materialised;
* :mod:`repro.policy.artifact` -- :class:`PolicyArtifact`: the store
  plus provenance metadata (model key, objective, horizon, ε, value,
  certificate) with a stable content hash, a single-file binary format
  readable through ``numpy.memmap``, and NDJSON export;
* :mod:`repro.policy.validate` -- induced-chain validation: replaying a
  stored scheduler against its model must reproduce the reported
  probability within the certified error budget, and says so with a
  :class:`~repro.obs.certificate.NumericalCertificate`;
* :mod:`repro.policy.options` -- the shared ``--save-policy`` option
  parser used by ``repro check`` and ``repro batch``;
* :mod:`repro.policy.cli` -- the ``repro policy`` tool
  (inspect/summary/diff/replay/export).

Every public name is loaded on first use by the ``__getattr__`` below:
the artifact and validation modules depend on the core solvers (which
import the store), and the CLI builds its parser from
:mod:`repro.policy.options` and :mod:`repro.policy.cli` without loading
numpy.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "CompressedDecisions",
    "PolicyArtifact",
    "PolicyWriter",
    "ValidationReport",
    "load_artifact",
    "policy_key",
    "save_artifact",
    "validate_artifact",
]

_LAZY = {
    "DEFAULT_CHUNK_SIZE": "repro.policy.store",
    "CompressedDecisions": "repro.policy.store",
    "PolicyWriter": "repro.policy.store",
    "PolicyArtifact": "repro.policy.artifact",
    "load_artifact": "repro.policy.artifact",
    "policy_key": "repro.policy.artifact",
    "save_artifact": "repro.policy.artifact",
    "ValidationReport": "repro.policy.validate",
    "validate_artifact": "repro.policy.validate",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.policy' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
