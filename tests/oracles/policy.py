"""A dense stand-in for the streaming scheduler recorder.

:class:`DenseWriter` has :class:`repro.policy.store.PolicyWriter`'s
``append``/``finish`` interface but keeps every decision row and returns
the plain ``iterations x states`` int32 matrix.  Swapped in for
``PolicyWriter`` it turns any ``record_scheduler=True`` solve into the
dense reference the compressed store must reproduce bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

import repro.core.reachability as reachability


class DenseWriter:
    """Collects decision rows and returns them as one dense matrix."""

    def __init__(self, num_states: int, reverse_rows: bool = False) -> None:
        self.num_states = num_states
        self.reverse_rows = reverse_rows
        self._rows: list[np.ndarray] = []

    def append(self, row: np.ndarray) -> None:
        self._rows.append(np.array(row, dtype=np.int32))

    def finish(self) -> np.ndarray:
        rows = self._rows[::-1] if self.reverse_rows else self._rows
        return np.array(rows, dtype=np.int32).reshape(len(rows), self.num_states)


@contextmanager
def dense_recording(monkeypatch):
    """Within the block, every Algorithm 1 sweep records densely.

    ``monkeypatch`` is pytest's fixture; the swap is undone on exit.
    """
    with monkeypatch.context() as patch:
        patch.setattr(reachability, "PolicyWriter", DenseWriter)
        yield
