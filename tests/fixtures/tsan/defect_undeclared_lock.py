"""Planted defect: a lock attribute with no ``_guarded_by`` declaration (T003).

The class owns ``self._lock`` but never declares which attributes the
lock guards, so the T001 pass has nothing to check -- the discipline
requires every lock to announce its protectorate (or to carry an
explicit ``# tsan: ignore[T003]``).
"""

from __future__ import annotations

import threading


class UndeclaredStore:
    """Owns a lock but declares no guarded attributes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, float] = {}

    def put(self, key: str, value: float) -> None:
        with self._lock:
            self._values[key] = value
