"""Segmented per-state optimisation shared by every value recursion.

CTMDPs and DTMDPs store transitions sorted by source state, so
"optimise over the choices of each state" is a segmented reduction over
contiguous blocks of a per-transition value vector
(Section 4.2 of the paper).  Three different modules used to repeat the
same ``reduceat`` + tie-tolerance pattern -- and one of them carried a
sign bug in the ``min``-objective argmax (every value is ``>=`` the
segment minimum, so the recorded "minimiser" was always the first
transition).  This module is the single home of that pattern so the bug
cannot recur:

* :class:`SegmentIndex` -- the per-state segment bookkeeping derived
  from a ``choice_ptr`` array;
* :func:`segment_reduce` -- the per-segment max/min;
* :func:`segment_argbest` -- the first transition attaining the
  optimum within each segment, with the tie tolerance applied on the
  correct side for each objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError

__all__ = [
    "TIE_TOLERANCE",
    "SegmentIndex",
    "validate_objective",
    "segment_reduce",
    "segment_argbest",
]

#: Absolute tolerance under which two transition values count as tied;
#: ties resolve to the first transition of the segment.
TIE_TOLERANCE = 1e-15


def validate_objective(objective: str) -> str:
    """Return ``objective`` if it is ``"max"`` or ``"min"``, raise otherwise."""
    if objective not in ("max", "min"):
        raise ModelError(f"objective must be 'max' or 'min', got {objective!r}")
    return objective


@dataclass(frozen=True)
class SegmentIndex:
    """Bookkeeping for the contiguous transition block of each state.

    Attributes
    ----------
    nonempty:
        Boolean mask over states; true where the state has transitions.
        States without transitions take part in no reduction (their
        value is pinned by the caller, typically to zero).
    starts:
        Per *nonempty* state, the row index of its first transition.
    counts:
        Per *nonempty* state, the number of its transitions.
    """

    nonempty: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_choice_ptr(cls, choice_ptr: np.ndarray) -> "SegmentIndex":
        """Build from a cumulative ``choice_ptr`` (one entry per state + 1)."""
        counts = np.diff(choice_ptr)
        nonempty = counts > 0
        return cls(
            nonempty=nonempty,
            starts=np.asarray(choice_ptr[:-1][nonempty]),
            counts=counts[nonempty],
        )


def segment_reduce(
    values: np.ndarray, segments: SegmentIndex, objective: str
) -> np.ndarray:
    """Per-segment optimum of ``values``; one entry per nonempty state.

    An empty segment index yields an empty result (a model without any
    transition has nothing to optimise over).
    """
    if segments.starts.size == 0:
        return np.empty(0, dtype=np.float64)
    reduce_fn = np.maximum.reduceat if objective == "max" else np.minimum.reduceat
    return reduce_fn(values, segments.starts)


def segment_argbest(
    values: np.ndarray,
    best: np.ndarray,
    segments: SegmentIndex,
    objective: str,
    tol: float = TIE_TOLERANCE,
) -> np.ndarray:
    """First transition attaining the segment optimum, per nonempty state.

    Returns the *local* choice index (offset within the state's block)
    of the first transition whose value is within ``tol`` of ``best``.
    The tolerance is applied on the side matching the objective: a
    maximiser must be ``>= best - tol``, a minimiser ``<= best + tol``
    -- using ``>=`` for both is exactly the historical ``min`` bug
    (every value is ``>=`` the minimum, so the first transition always
    "won").
    """
    if segments.starts.size == 0:
        return np.empty(0, dtype=np.int64)
    expanded = np.repeat(best, segments.counts)
    if objective == "max":
        hits = np.flatnonzero(values >= expanded - tol)
    else:
        hits = np.flatnonzero(values <= expanded + tol)
    firsts = np.searchsorted(hits, segments.starts, side="left")
    return hits[firsts] - segments.starts
