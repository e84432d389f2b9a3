"""Concurrency sanitation (``repro.tsan``): lock discipline, statically and at runtime.

The reproduction is a long-lived concurrent service: ``repro serve``
answers queries while a ``ThreadingHTTPServer`` scrapes ``/metrics``
and ``/traces``, and pool workers ship span and metric snapshots back
to the parent.  A silent race in any of those
paths corrupts exactly the certificates and ledgers the trend gate
trusts.  ``repro.lint`` (PR 2) checks *models*; this package checks the
*code that serves them*, in the same spirit in which confluence and
weak-determinism checks tame nondeterminism statically in IOSA and the
compositional IMC analyses rely on a structurally guaranteed
interleaving discipline.

Three layers:

* :mod:`repro.tsan.registry` -- the declared lock discipline.  Every
  class owning a ``threading.Lock`` announces which attributes the lock
  guards via the :func:`guarded_by` class decorator; methods that
  *expect* the lock to be held by their caller are marked
  :func:`holds_lock`.  The declarations are plain class attributes,
  readable both at runtime and by the static pass (no import needed).
* :mod:`repro.tsan.static` -- the AST self-lint behind
  ``repro lint --self``: walks ``src/repro/**`` and reports, with the
  stable ``Txxx`` codes of :data:`repro.lint.diagnostics.CODES`,
  guarded reads/writes outside a ``with self._lock`` block (``T001``),
  cycles in the whole-program lock-order graph (``T002``), undeclared
  lock attributes (``T003``), and the numerical-safety idioms PR 7 was
  bitten by: bare non-integral float ``==``/``!=`` (``T004``) and
  order-dependent ``sum()`` over rates outside
  ``repro.bisim.signatures`` (``T005``).
* :mod:`repro.tsan.runtime` / :mod:`repro.tsan.harness` -- the dynamic
  side, active under ``REPRO_SANITIZE``: :class:`MonitoredLock`
  wrappers record per-thread acquisition stacks and raise
  :class:`~repro.errors.LintError` (``T002``) the moment the *observed*
  lock-order graph closes a cycle, and the seeded
  :class:`InterleavingHarness` forces deterministic context switches at
  line granularity so races reproduce bit-for-bit under a fixed seed.

See ``docs/lint.md`` (the ``Txxx`` section) for the full rule
catalogue and escape hatches.
"""

from __future__ import annotations

from typing import Any

# Only the dependency-free declaration registry is imported eagerly:
# ``repro.obs.metrics`` (near the root of the import graph) pulls this
# package in, so everything that reaches back into ``repro.lint`` —
# runtime, harness, static — must load lazily (PEP 562) or the import
# graph cycles through lint -> models -> obs.
from repro.tsan.registry import guarded_by, guards_of, held_by_caller, holds_lock

_LAZY: dict[str, str] = {
    "CooperativeLock": "repro.tsan.harness",
    "HarnessDeadlock": "repro.tsan.harness",
    "HarnessResult": "repro.tsan.harness",
    "InterleavingHarness": "repro.tsan.harness",
    "find_racy_seed": "repro.tsan.harness",
    "LockOrderMonitor": "repro.tsan.runtime",
    "MonitoredLock": "repro.tsan.runtime",
    "lock_order_monitor": "repro.tsan.runtime",
    "monitored_lock": "repro.tsan.runtime",
    "lint_self": "repro.tsan.static",
    "lint_source": "repro.tsan.static",
    "source_root": "repro.tsan.static",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "CooperativeLock",
    "HarnessDeadlock",
    "HarnessResult",
    "find_racy_seed",
    "InterleavingHarness",
    "LockOrderMonitor",
    "MonitoredLock",
    "guarded_by",
    "guards_of",
    "held_by_caller",
    "holds_lock",
    "lint_self",
    "lint_source",
    "lock_order_monitor",
    "monitored_lock",
    "source_root",
]
