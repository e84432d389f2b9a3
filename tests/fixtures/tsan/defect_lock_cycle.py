"""Planted defect: two locks taken in opposite nested orders (T002).

``transfer`` locks the ledger then the journal; ``audit`` locks the
journal then the ledger.  When the two methods race, each can hold the
lock the other waits for: a deadlock.  The self-lint forbids nested
acquisition outright, so ``repro lint defect_lock_cycle.py`` must
report ``T002`` at both nesting sites, each naming both locks.
"""

from __future__ import annotations

import threading


class CyclicLedger:
    """Ledger + journal with inconsistent nested lock order."""

    _guarded_by = {"_ledger_lock": ("_balance",), "_journal_lock": ("_journal",)}

    def __init__(self) -> None:
        self._ledger_lock = threading.Lock()
        self._journal_lock = threading.Lock()
        self._balance = 0
        self._journal: list[str] = []

    def transfer(self, amount: int) -> None:
        # Order: ledger -> journal.
        with self._ledger_lock:
            self._balance += amount
            with self._journal_lock:
                self._journal.append(f"transfer {amount}")

    def audit(self) -> tuple[int, int]:
        # BUG: opposite order, journal -> ledger.
        with self._journal_lock:
            entries = len(self._journal)
            with self._ledger_lock:
                return self._balance, entries
