"""Compressed, streamable storage for step-indexed scheduler decisions.

Algorithm 1's extracted optimal schedulers are step-dependent: row ``i``
of the decision table holds, per state, the transition index chosen
after ``i`` jumps.  Recorded densely this is an ``iterations x states``
int32 matrix -- for the 30000 h FTWC horizon (~62k Poisson steps) that
dense matrix, not the model, is the memory bottleneck (ROADMAP).  The
saving grace is structural: timed schedulers switch decisions at *few*
Poisson steps (most rows equal their neighbour), and within a row the
decisions are piecewise constant over the state enumeration.

:class:`CompressedDecisions` exploits both regularities with a chunked
columnar layout:

* rows are grouped into *chunks* of ``chunk_size`` consecutive rows;
* the first row of each chunk is stored run-length encoded over states
  (``base_values`` / ``base_runs``, indexed per chunk by ``base_ptr``);
* every other row is stored as a sparse *delta* against its predecessor
  -- the changed state indices and their new choices -- and rows without
  changes cost **nothing** (``changed_rows`` lists only the rows that
  actually differ, ``delta_ptr`` delimits their entries).

Random access to row ``i`` decodes the chunk base and replays at most
``chunk_size - 1`` deltas; sequential iteration replays each delta once.
All six arrays are plain contiguous numpy arrays, so the on-disk format
(:mod:`repro.policy.artifact`) can memory-map them directly.

:class:`PolicyWriter` is the streaming producer: the value-iteration
loop appends one decision row per backward step and the dense matrix is
*never* materialised -- peak memory is the compressed payload plus one
row.  Because Algorithm 1 sweeps backwards (it records row ``k - 1``
first), the writer supports a ``reverse_rows`` orientation: rows are
stored in arrival (physical) order and logical row ``i`` maps to
physical position ``num_rows - 1 - i``.

This module deliberately depends on numpy only, so the core solvers can
import it without cycling through the rest of :mod:`repro.policy`.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

__all__ = ["DEFAULT_CHUNK_SIZE", "CompressedDecisions", "PolicyWriter", "rle_encode"]

#: Rows per chunk.  Larger chunks amortise the run-length-encoded base
#: rows better (fewer bases) at the cost of longer delta replays on
#: random access; 256 keeps both comfortably small for the FTWC models.
DEFAULT_CHUNK_SIZE = 256

_STORE_ARRAY_NAMES = (
    "base_values",
    "base_runs",
    "base_ptr",
    "changed_rows",
    "delta_ptr",
    "delta_states",
    "delta_choices",
)


def rle_encode(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode ``row`` into ``(values, run_lengths)``."""
    n = len(row)
    if n == 0:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    boundaries = np.flatnonzero(row[1:] != row[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    values = row[starts].astype(np.int32)
    runs = np.diff(np.concatenate((starts, [n]))).astype(np.int32)
    return values, runs


class CompressedDecisions:
    """A read-only compressed ``num_rows x num_states`` decision table.

    Supports enough of the ndarray protocol (``len``, ``shape``,
    ``decisions[i]`` for a row, ``decisions[i][s]``, ``decisions[:, s]``,
    elementwise ``==``) that code written for the dense matrix works
    unchanged; bulk consumers should prefer :meth:`iter_rows` /
    :meth:`iter_rows_reversed`, which decode each delta exactly once.
    """

    def __init__(
        self,
        num_rows: int,
        num_states: int,
        chunk_size: int,
        base_values: np.ndarray,
        base_runs: np.ndarray,
        base_ptr: np.ndarray,
        changed_rows: np.ndarray,
        delta_ptr: np.ndarray,
        delta_states: np.ndarray,
        delta_choices: np.ndarray,
        reverse_rows: bool = False,
    ) -> None:
        if num_rows < 0 or num_states <= 0:
            raise ValueError("need num_rows >= 0 and num_states > 0")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.num_rows = int(num_rows)
        self.num_states = int(num_states)
        self.chunk_size = int(chunk_size)
        self.reverse_rows = bool(reverse_rows)
        self.base_values = np.asarray(base_values, dtype=np.int32)
        self.base_runs = np.asarray(base_runs, dtype=np.int32)
        self.base_ptr = np.asarray(base_ptr, dtype=np.int64)
        self.changed_rows = np.asarray(changed_rows, dtype=np.int64)
        self.delta_ptr = np.asarray(delta_ptr, dtype=np.int64)
        self.delta_states = np.asarray(delta_states, dtype=np.int32)
        self.delta_choices = np.asarray(delta_choices, dtype=np.int32)
        expected_chunks = -(-self.num_rows // self.chunk_size) if self.num_rows else 0
        if len(self.base_ptr) != expected_chunks + 1:
            raise ValueError(
                f"base_ptr must have {expected_chunks + 1} entries, "
                f"got {len(self.base_ptr)}"
            )
        if len(self.delta_ptr) != len(self.changed_rows) + 1:
            raise ValueError("delta_ptr must have len(changed_rows) + 1 entries")
        # Decode cache for sequential random access: the physical index
        # and decoded row of the most recent lookup.
        self._cache_pos: int = -1
        self._cache_row: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Shape protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_states)

    @property
    def num_chunks(self) -> int:
        return len(self.base_ptr) - 1

    def __len__(self) -> int:
        return self.num_rows

    def _physical(self, logical: int) -> int:
        if not 0 <= logical < self.num_rows:
            raise IndexError(f"row {logical} out of range 0..{self.num_rows - 1}")
        return self.num_rows - 1 - logical if self.reverse_rows else logical

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode_base(self, chunk: int) -> np.ndarray:
        lo, hi = self.base_ptr[chunk], self.base_ptr[chunk + 1]
        return np.repeat(self.base_values[lo:hi], self.base_runs[lo:hi])

    def _apply_deltas(self, row: np.ndarray, first: int, last: int) -> None:
        """Apply the deltas of physical rows in ``(first, last]`` onto ``row``."""
        j0 = int(np.searchsorted(self.changed_rows, first, side="right"))
        j1 = int(np.searchsorted(self.changed_rows, last, side="right"))
        for j in range(j0, j1):
            lo, hi = self.delta_ptr[j], self.delta_ptr[j + 1]
            row[self.delta_states[lo:hi]] = self.delta_choices[lo:hi]

    def _decode_physical(self, pos: int) -> np.ndarray:
        """Decode physical row ``pos`` (cached; the cache row is shared)."""
        chunk = pos // self.chunk_size
        start = chunk * self.chunk_size
        if (
            self._cache_row is not None
            and start <= self._cache_pos <= pos
        ):
            row = self._cache_row
            self._apply_deltas(row, self._cache_pos, pos)
        else:
            row = self._decode_base(chunk)
            self._apply_deltas(row, start, pos)
        self._cache_pos = pos
        self._cache_row = row
        return row

    def row(self, logical: int) -> np.ndarray:
        """Decision row ``logical`` as a fresh int32 array."""
        return self._decode_physical(self._physical(logical)).copy()

    def _iter_physical(self) -> Iterator[np.ndarray]:
        """Yield rows in physical order; the yielded array is reused."""
        row: np.ndarray | None = None
        for pos in range(self.num_rows):
            if pos % self.chunk_size == 0:
                row = self._decode_base(pos // self.chunk_size)
            else:
                assert row is not None
                self._apply_deltas(row, pos - 1, pos)
            yield row  # type: ignore[misc]

    def _iter_physical_reversed(self) -> Iterator[np.ndarray]:
        """Yield rows in reverse physical order, one chunk at a time.

        Rows within a chunk are decoded forward with copy-on-write (a
        fresh array only where a delta applies), so peak extra memory is
        one row per *changed* row of the chunk, not one per row.
        """
        for chunk in range(self.num_chunks - 1, -1, -1):
            start = chunk * self.chunk_size
            stop = min(start + self.chunk_size, self.num_rows)
            rows: list[np.ndarray] = [self._decode_base(chunk)]
            j0 = int(np.searchsorted(self.changed_rows, start, side="right"))
            for pos in range(start + 1, stop):
                j = int(np.searchsorted(self.changed_rows, pos, side="left"))
                if j < len(self.changed_rows) and self.changed_rows[j] == pos:
                    row = rows[-1].copy()
                    lo, hi = self.delta_ptr[j], self.delta_ptr[j + 1]
                    row[self.delta_states[lo:hi]] = self.delta_choices[lo:hi]
                    rows.append(row)
                else:
                    rows.append(rows[-1])
            del j0
            yield from reversed(rows)

    def iter_rows(self) -> Iterator[np.ndarray]:
        """Yield rows in *logical* order (row 0 first), each a copy."""
        source = (
            self._iter_physical_reversed() if self.reverse_rows else self._iter_physical()
        )
        for row in source:
            yield row.copy()

    def iter_rows_reversed(self) -> Iterator[np.ndarray]:
        """Yield rows in reverse logical order (last row first).

        For stores written by the backward value-iteration sweep
        (``reverse_rows=True``) this is a pure sequential decode -- the
        orientation the streaming replay of
        :func:`repro.core.reachability.replay_step_scheduler` consumes.
        """
        source = (
            self._iter_physical() if self.reverse_rows else self._iter_physical_reversed()
        )
        for row in source:
            yield row.copy()

    def dense(self) -> np.ndarray:
        """Materialise the full dense int32 decision matrix."""
        out = np.empty((self.num_rows, self.num_states), dtype=np.int32)
        for logical, row in enumerate(self.iter_rows()):
            out[logical] = row
        return out

    def __getitem__(self, key: Any) -> np.ndarray:
        if isinstance(key, (int, np.integer)):
            index = int(key)
            if index < 0:
                index += self.num_rows
            return self.row(index)
        # Fancy keys (column slices etc.) fall back to the dense matrix;
        # convenient for small tables, not meant for the 62k-row stores.
        return self.dense()[key]

    def __array__(self, dtype: Any = None, copy: Any = None) -> np.ndarray:
        dense = self.dense()
        return dense if dtype is None else dense.astype(dtype)

    def __eq__(self, other: Any):  # type: ignore[override]
        if isinstance(other, CompressedDecisions):
            return self.shape == other.shape and bool(
                np.array_equal(self.dense(), other.dense())
            )
        return self.dense() == np.asarray(other)

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Compressed payload size (the seven columnar arrays)."""
        return int(sum(self.arrays()[name].nbytes for name in _STORE_ARRAY_NAMES))

    @property
    def dense_nbytes(self) -> int:
        """Size of the equivalent dense int32 matrix."""
        return self.num_rows * self.num_states * 4

    @property
    def compression_ratio(self) -> float:
        """Dense bytes over compressed bytes (> 1 means smaller)."""
        return self.dense_nbytes / max(1, self.nbytes)

    @property
    def is_stationary(self) -> bool:
        """True iff every row equals row 0 (a memoryless scheduler)."""
        if self.num_rows <= 1:
            return True
        if len(self.changed_rows):
            return False
        first = self._decode_base(0)
        return all(
            np.array_equal(first, self._decode_base(chunk))
            for chunk in range(1, self.num_chunks)
        )

    def change_points(self) -> np.ndarray:
        """Logical row indices whose decisions differ from the previous row.

        Computed in one streaming pass (deltas answer within-chunk
        changes directly; chunk-boundary rows are compared explicitly).
        """
        changed: list[int] = []
        previous: np.ndarray | None = None
        for pos, row in enumerate(self._iter_physical()):
            if pos % self.chunk_size == 0:
                if previous is not None and not np.array_equal(previous, row):
                    changed.append(pos)
                previous = row.copy()
            else:
                j = int(np.searchsorted(self.changed_rows, pos, side="left"))
                if j < len(self.changed_rows) and self.changed_rows[j] == pos:
                    changed.append(pos)
                previous = None if previous is None else row.copy()
        physical = np.asarray(changed, dtype=np.int64)
        if self.reverse_rows:
            # Physical row p differing from p-1 means logical rows
            # (n-1-p) and (n-p) differ, i.e. logical change at n - p.
            physical = np.sort(self.num_rows - physical)
        return physical

    def stats(self) -> dict[str, Any]:
        """Size and structure statistics (the ``repro policy inspect`` body)."""
        return {
            "rows": self.num_rows,
            "states": self.num_states,
            "chunk_size": self.chunk_size,
            "chunks": self.num_chunks,
            "reverse_rows": self.reverse_rows,
            "changed_rows": int(len(self.changed_rows)),
            "delta_entries": int(len(self.delta_states)),
            "compressed_bytes": self.nbytes,
            "dense_bytes": self.dense_nbytes,
            "compression_ratio": self.compression_ratio,
            "stationary": self.is_stationary,
        }

    # ------------------------------------------------------------------
    # (De)construction
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The columnar arrays by canonical name (serialisation order)."""
        return {name: getattr(self, name) for name in _STORE_ARRAY_NAMES}

    def layout(self) -> dict[str, Any]:
        """The scalar layout parameters (serialised next to the arrays)."""
        return {
            "num_rows": self.num_rows,
            "num_states": self.num_states,
            "chunk_size": self.chunk_size,
            "reverse_rows": self.reverse_rows,
        }

    @classmethod
    def from_arrays(
        cls, layout: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> "CompressedDecisions":
        """Rebuild from :meth:`layout` and :meth:`arrays` (or memory maps)."""
        return cls(
            num_rows=int(layout["num_rows"]),
            num_states=int(layout["num_states"]),
            chunk_size=int(layout["chunk_size"]),
            reverse_rows=bool(layout["reverse_rows"]),
            **{name: arrays[name] for name in _STORE_ARRAY_NAMES},
        )

    @classmethod
    def from_dense(
        cls,
        matrix: np.ndarray,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        reverse_rows: bool = False,
    ) -> "CompressedDecisions":
        """Compress an existing dense decision matrix.

        With ``reverse_rows`` the *logical* matrix is unchanged but rows
        are stored back-to-front, matching what the streaming writer of
        a backward sweep would have produced.
        """
        matrix = np.asarray(matrix, dtype=np.int32)
        if matrix.ndim != 2:
            raise ValueError(f"decision matrix must be 2-D, got shape {matrix.shape}")
        writer = PolicyWriter(
            num_states=matrix.shape[1], chunk_size=chunk_size, reverse_rows=reverse_rows
        )
        rows = range(len(matrix) - 1, -1, -1) if reverse_rows else range(len(matrix))
        for index in rows:
            writer.append(matrix[index])
        return writer.finish()

    @classmethod
    def empty(cls, num_states: int, reverse_rows: bool = False) -> "CompressedDecisions":
        """A zero-row store (the trivial ``t = 0`` / empty-goal policy)."""
        return PolicyWriter(num_states=num_states, reverse_rows=reverse_rows).finish()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompressedDecisions(rows={self.num_rows}, states={self.num_states}, "
            f"bytes={self.nbytes}, ratio={self.compression_ratio:.1f})"
        )


class PolicyWriter:
    """Streaming encoder: append decision rows, never hold the matrix.

    The value-iteration loop calls :meth:`append` once per backward step
    with that step's full decision row (int32, ``-1`` where a state has
    no choice); :meth:`finish` seals the stream into a
    :class:`CompressedDecisions`.  Peak memory is the compressed payload
    plus one previous-row buffer.
    """

    def __init__(
        self,
        num_states: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        reverse_rows: bool = False,
    ) -> None:
        if num_states <= 0:
            raise ValueError("num_states must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.num_states = int(num_states)
        self.chunk_size = int(chunk_size)
        self.reverse_rows = bool(reverse_rows)
        self._rows = 0
        self._previous: np.ndarray | None = None
        self._base_values: list[np.ndarray] = []
        self._base_runs: list[np.ndarray] = []
        self._base_counts: list[int] = []
        self._changed_rows: list[int] = []
        self._delta_counts: list[int] = []
        self._delta_states: list[np.ndarray] = []
        self._delta_choices: list[np.ndarray] = []
        self._finished = False

    def append(self, row: np.ndarray) -> None:
        """Append the next decision row (physical order)."""
        if self._finished:
            raise RuntimeError("writer already finished")
        row = np.asarray(row, dtype=np.int32)
        if row.shape != (self.num_states,):
            raise ValueError(
                f"decision row must have shape ({self.num_states},), got {row.shape}"
            )
        if self._rows % self.chunk_size == 0:
            values, runs = rle_encode(row)
            self._base_values.append(values)
            self._base_runs.append(runs)
            self._base_counts.append(len(values))
        else:
            assert self._previous is not None
            changed = np.flatnonzero(row != self._previous)
            if len(changed):
                self._changed_rows.append(self._rows)
                self._delta_counts.append(len(changed))
                self._delta_states.append(changed.astype(np.int32))
                self._delta_choices.append(row[changed].copy())
        self._previous = row.copy()
        self._rows += 1

    def finish(self) -> CompressedDecisions:
        """Seal the stream and return the compressed store."""
        if self._finished:
            raise RuntimeError("writer already finished")
        self._finished = True

        def _concat(parts: list[np.ndarray], dtype: type) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        base_ptr = np.concatenate(
            ([0], np.cumsum(np.asarray(self._base_counts, dtype=np.int64)))
        ).astype(np.int64)
        delta_ptr = np.concatenate(
            ([0], np.cumsum(np.asarray(self._delta_counts, dtype=np.int64)))
        ).astype(np.int64)
        return CompressedDecisions(
            num_rows=self._rows,
            num_states=self.num_states,
            chunk_size=self.chunk_size,
            base_values=_concat(self._base_values, np.int32),
            base_runs=_concat(self._base_runs, np.int32),
            base_ptr=base_ptr,
            changed_rows=np.asarray(self._changed_rows, dtype=np.int64),
            delta_ptr=delta_ptr,
            delta_states=_concat(self._delta_states, np.int32),
            delta_choices=_concat(self._delta_choices, np.int32),
            reverse_rows=self.reverse_rows,
        )
