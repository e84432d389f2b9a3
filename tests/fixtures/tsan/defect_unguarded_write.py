"""Planted defect: guarded attribute written without its lock (T001).

``RacyEventLog`` is a pocket-sized event log with the classic
lost-update bug: ``record`` performs an unlocked read-modify-write on
``_count``, so two concurrent records can both read the same old count
and one increment vanishes.  The file doubles as

* a static-analysis target: ``repro lint defect_unguarded_write.py``
  must flag the unlocked accesses in ``record`` as ``T001``; and
* a runtime reproducer: the interleaving harness in
  ``tests/tsan/test_harness.py`` pins a seed where the lost update
  actually happens.
"""

from __future__ import annotations

import threading


class RacyEventLog:
    """An event log whose record path forgot to take its lock."""

    _guarded_by = {"_lock": ("_count", "_payloads")}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._payloads: list[str] = []

    def record(self, payload: str) -> int:
        # BUG: read-modify-write of guarded state without self._lock.
        count = self._count + 1
        self._count = count
        self._payloads.append(payload)
        return count

    def snapshot(self) -> tuple[int, tuple[str, ...]]:
        with self._lock:
            return self._count, tuple(self._payloads)
