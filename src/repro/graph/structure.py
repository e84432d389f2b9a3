"""A uniform transition-graph view over every model class.

Qualitative analysis (SCCs, end components, Prob0/Prob1 sets) only needs
the *support* of the transition relation -- which targets each choice
can move to -- never the actual rates or probabilities.  This module
projects each model class onto one shared shape:

* ``choice_ptr`` maps a state to its contiguous range of choice rows
  (CTMDP/DTMDP convention; CTMCs get exactly one row per state);
* ``support`` is a boolean ``rows x states`` CSR matrix whose row ``r``
  marks the possible targets of choice ``r``;
* states whose row range is empty are *deadlocks* (no behaviour at all).

IMCs are projected under the **closed** interpretation (urgency):
states with interactive transitions contribute one single-target row
per interactive transition and their Markov transitions are preempted;
stable Markov states contribute their Markov distribution as one row.
This matches how a complete IMC behaves and makes interactive cycles
(`Zeno` divergence candidates) visible as ordinary graph cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp

from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.ctmdp import CTMDP
    from repro.ctmc.model import CTMC
    from repro.imc.model import IMC
    from repro.mdp.model import DTMDP

__all__ = ["TransitionGraph", "graph_of"]


@dataclass(frozen=True)
class TransitionGraph:
    """Support graph of a stochastic model (rates erased).

    Attributes
    ----------
    num_states:
        Size of the state space.
    choice_ptr:
        ``num_states + 1`` offsets into the rows of ``support``: the
        choices of state ``s`` are rows ``choice_ptr[s]`` (inclusive) to
        ``choice_ptr[s + 1]`` (exclusive).
    support:
        Boolean CSR matrix of shape ``(num_rows, num_states)``; entry
        ``(r, t)`` is set iff choice ``r`` can move to state ``t``.
    initial:
        Index of the initial state.
    kind:
        The originating model class (``"ctmdp"``, ``"ctmc"``,
        ``"dtmdp"``, ``"imc"``).
    """

    num_states: int
    choice_ptr: np.ndarray
    support: sp.csr_matrix
    initial: int
    kind: str

    @property
    def num_rows(self) -> int:
        """Number of choice rows."""
        return self.support.shape[0]

    def rows_of(self, state: int) -> range:
        """The row range of ``state``."""
        return range(int(self.choice_ptr[state]), int(self.choice_ptr[state + 1]))

    def row_targets(self, row: int) -> np.ndarray:
        """Target states of choice row ``row``."""
        return self.support.indices[self.support.indptr[row]: self.support.indptr[row + 1]]

    @cached_property
    def row_sources(self) -> np.ndarray:
        """Source state of every choice row."""
        counts = np.diff(self.choice_ptr)
        return np.repeat(np.arange(self.num_states, dtype=np.int64), counts)

    @cached_property
    def row_degrees(self) -> np.ndarray:
        """Number of targets of every choice row."""
        return np.diff(self.support.indptr).astype(np.int64)

    @cached_property
    def deadlocks(self) -> np.ndarray:
        """Boolean mask of states without any outgoing edge.

        Covers both states without choice rows (CTMDP deadlocks) and
        states whose rows are all empty (CTMC absorbing states project
        to one empty row).
        """
        out_degree = np.bincount(
            self.row_sources, weights=self.row_degrees, minlength=self.num_states
        )
        return out_degree == 0

    @cached_property
    def union_adjacency(self) -> sp.csr_matrix:
        """Boolean state-to-state adjacency (union over all choices)."""
        n = self.num_states
        if self.num_rows == 0:
            return sp.csr_matrix((n, n), dtype=bool)
        rows = np.repeat(self.row_sources, self.row_degrees)
        cols = self.support.indices
        data = np.ones(len(cols), dtype=bool)
        adjacency = sp.csr_matrix((data, (rows, cols)), shape=(n, n), dtype=bool)
        adjacency.sum_duplicates()
        return adjacency

    @cached_property
    def reverse_adjacency(self) -> sp.csr_matrix:
        """Transpose of :attr:`union_adjacency` (predecessor lookups)."""
        return sp.csr_matrix(self.union_adjacency.T)

    def reachable_from(
        self, start: int | None = None, through: np.ndarray | None = None
    ) -> np.ndarray:
        """Forward-reachable set (boolean mask) from ``start`` (default initial).

        ``through`` restricts the states that may be added: a state
        outside ``through`` (other than ``start``) is never reached, so
        nothing beyond it is expanded either.
        """
        reached = np.zeros(self.num_states, dtype=bool)
        reached[self.initial if start is None else int(start)] = True
        return _expand(self.union_adjacency, reached, through)

    def backward_reachable(
        self, targets: np.ndarray, through: np.ndarray | None = None
    ) -> np.ndarray:
        """States with a path into ``targets``.

        ``through`` restricts the *intermediate* states that may be
        expanded: a state outside ``through`` (and outside ``targets``)
        is never added to the reached set.
        """
        reached = np.asarray(targets, dtype=bool).copy()
        return _expand(self.reverse_adjacency, reached, through)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_ctmdp(cls, ctmdp: "CTMDP") -> "TransitionGraph":
        """Support view of a CTMDP (one row per state-action pair)."""
        support = _boolean_csr(ctmdp.rate_matrix)
        return cls(
            num_states=ctmdp.num_states,
            choice_ptr=np.asarray(ctmdp.choice_ptr, dtype=np.int64),
            support=support,
            initial=ctmdp.initial,
            kind="ctmdp",
        )

    @classmethod
    def from_dtmdp(cls, dtmdp: "DTMDP") -> "TransitionGraph":
        """Support view of a DTMDP (same storage convention as CTMDP)."""
        support = _boolean_csr(dtmdp.probabilities)
        return cls(
            num_states=dtmdp.num_states,
            choice_ptr=np.asarray(dtmdp.choice_ptr, dtype=np.int64),
            support=support,
            initial=dtmdp.initial,
            kind="dtmdp",
        )

    @classmethod
    def from_ctmc(cls, ctmc: "CTMC") -> "TransitionGraph":
        """Support view of a CTMC: exactly one choice row per state."""
        support = _boolean_csr(ctmc.rates)
        return cls(
            num_states=ctmc.num_states,
            choice_ptr=np.arange(ctmc.num_states + 1, dtype=np.int64),
            support=support,
            initial=ctmc.initial,
            kind="ctmc",
        )

    @classmethod
    def from_imc(cls, imc: "IMC") -> "TransitionGraph":
        """Support view of an IMC under the closed (urgency) interpretation.

        Each interactive transition of a state becomes its own
        single-target row (the environment -- here: the scheduler --
        resolves the nondeterminism); Markov transitions of states with
        interactive behaviour are preempted and contribute nothing.
        """
        rows: list[int] = []
        cols: list[int] = []
        sources: list[int] = []
        row = 0
        for state in range(imc.num_states):
            inter = imc.interactive_successors(state)
            if inter:
                for _, target in inter:
                    rows.append(row)
                    cols.append(target)
                    sources.append(state)
                    row += 1
                continue
            markov = imc.markov_successors(state)
            if markov:
                for _, target in markov:
                    rows.append(row)
                    cols.append(target)
                sources.append(state)
                row += 1
        counts = np.bincount(
            np.asarray(sources, dtype=np.int64), minlength=imc.num_states
        )
        support = sp.csr_matrix(
            (np.ones(len(cols), dtype=bool), (rows, cols)),
            shape=(row, imc.num_states),
            dtype=bool,
        )
        support.sum_duplicates()
        return cls(
            num_states=imc.num_states,
            choice_ptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
            support=support,
            initial=imc.initial,
            kind="imc",
        )


def _expand(
    adjacency: sp.csr_matrix, reached: np.ndarray, through: np.ndarray | None
) -> np.ndarray:
    """Close ``reached`` (in place) under the edges of ``adjacency``, one
    vectorised gather of the last level's successors per loop round."""
    indptr, indices = adjacency.indptr, adjacency.indices
    allowed = None if through is None else np.asarray(through, dtype=bool)
    frontier = np.flatnonzero(reached)
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        successors = indices[np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])]
        successors = successors[~reached[successors]]
        if allowed is not None:
            successors = successors[allowed[successors]]
        reached[successors] = True
        frontier = np.unique(successors)
    return reached


def _boolean_csr(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Boolean support copy of a sparse value matrix."""
    csr = sp.csr_matrix(matrix)
    support = sp.csr_matrix(
        (np.ones(csr.nnz, dtype=bool), csr.indices.copy(), csr.indptr.copy()),
        shape=csr.shape,
        dtype=bool,
    )
    return support


def graph_of(model: Any) -> TransitionGraph:
    """Dispatch ``model`` to the matching :class:`TransitionGraph` builder."""
    from repro.core.ctmdp import CTMDP
    from repro.ctmc.model import CTMC
    from repro.imc.model import IMC
    from repro.mdp.model import DTMDP

    if isinstance(model, TransitionGraph):
        return model
    if isinstance(model, CTMDP):
        return TransitionGraph.from_ctmdp(model)
    if isinstance(model, CTMC):
        return TransitionGraph.from_ctmc(model)
    if isinstance(model, DTMDP):
        return TransitionGraph.from_dtmdp(model)
    if isinstance(model, IMC):
        return TransitionGraph.from_imc(model)
    raise ModelError(
        f"no transition-graph view for model type {type(model).__name__!r}"
    )
