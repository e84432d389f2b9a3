"""Discrete-time Markov chains and Markov decision processes.

The paper's background section places CTMDPs in the landscape of
DTMC/DTMDP models; internally, the timed-reachability algorithm for
uniform CTMDPs is a Poisson-weighted value iteration over exactly the
embedded DTMDP built here.  The module therefore serves both as the
discrete-time substrate of the library and as an independent
implementation the tests cross-check against.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from repro.errors import ModelError
from repro.states import state_mask

__all__ = ["DTMC", "DTMDP"]


class DTMC:
    """A discrete-time Markov chain with a sparse stochastic matrix."""

    def __init__(
        self, probabilities: sp.spmatrix | np.ndarray, initial: int = 0
    ) -> None:
        matrix = sp.csr_matrix(probabilities, dtype=np.float64)
        n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise ModelError("probability matrix must be square")
        if matrix.nnz and matrix.data.min() < 0.0:
            raise ModelError("probabilities must be non-negative")
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        if not np.allclose(row_sums, 1.0, atol=1e-9):
            raise ModelError("every row must sum to one")
        if not 0 <= initial < n:
            raise ModelError("initial state out of range")
        self.probabilities = matrix
        self.initial = initial

    @property
    def num_states(self) -> int:
        """Number of states."""
        return self.probabilities.shape[0]

    def distribution_after(self, steps: int, initial: np.ndarray | None = None) -> np.ndarray:
        """State distribution after ``steps`` transitions."""
        if steps < 0:
            raise ModelError("step count must be non-negative")
        if initial is None:
            vec = np.zeros(self.num_states)
            vec[self.initial] = 1.0
        else:
            vec = np.asarray(initial, dtype=np.float64)
        for _ in range(steps):
            vec = vec @ self.probabilities
        return vec

    def bounded_reachability(self, goal: Iterable[int], steps: int) -> np.ndarray:
        """Probability, per state, to visit ``goal`` within ``steps`` steps."""
        mask = state_mask(self.num_states, goal, "goal state")
        q = mask.astype(np.float64)
        for _ in range(steps):
            q = self.probabilities @ q
            q[mask] = 1.0
        return q


class DTMDP:
    """A discrete-time MDP with per-transition sparse branching.

    Storage mirrors :class:`repro.core.ctmdp.CTMDP`: one row of the
    ``T x S`` probability matrix per (state, action) pair, rows sorted by
    source state.
    """

    def __init__(
        self,
        num_states: int,
        sources: np.ndarray,
        actions: list[str],
        probabilities: sp.csr_matrix,
        initial: int = 0,
    ) -> None:
        if probabilities.shape != (len(actions), num_states):
            raise ModelError("probability matrix shape mismatch")
        row_sums = np.asarray(probabilities.sum(axis=1)).ravel()
        if len(actions) and not np.allclose(row_sums, 1.0, atol=1e-9):
            raise ModelError("every transition row must sum to one")
        if len(actions) and (np.diff(sources) < 0).any():
            raise ModelError("transitions must be sorted by source")
        if not 0 <= initial < num_states:
            raise ModelError("initial state out of range")
        self.num_states = num_states
        self.sources = sources.astype(np.int64)
        self.actions = actions
        self.probabilities = sp.csr_matrix(probabilities, dtype=np.float64)
        self.initial = initial
        counts = np.bincount(self.sources, minlength=num_states)
        self.choice_ptr = np.concatenate(([0], np.cumsum(counts)))

    @classmethod
    def from_transitions(
        cls,
        num_states: int,
        transitions: Iterable[tuple[int, str, Mapping[int, float]]],
        initial: int = 0,
    ) -> "DTMDP":
        """Build from ``(source, action, {target: probability})`` triples."""
        triples = sorted(transitions, key=lambda item: item[0])
        rows, cols, data = [], [], []
        sources, actions = [], []
        for row, (src, action, dist) in enumerate(triples):
            mass = sum(dist.values())
            if not math.isfinite(mass) or abs(mass - 1.0) > 1e-9:
                raise ModelError(f"distribution of ({src}, {action}) does not sum to one")
            sources.append(src)
            actions.append(action)
            for dst, p in dist.items():
                if not math.isfinite(p) or p < 0.0:
                    raise ModelError("probabilities must be non-negative and finite")
                if p > 0.0:
                    rows.append(row)
                    cols.append(dst)
                    data.append(float(p))
        matrix = sp.csr_matrix(
            (data, (rows, cols)), shape=(len(actions), num_states), dtype=np.float64
        )
        return cls(num_states, np.array(sources, dtype=np.int64), actions, matrix, initial)

    @property
    def num_transitions(self) -> int:
        """Number of (state, action) pairs."""
        return len(self.actions)

    def num_choices(self, state: int) -> int:
        """Number of actions available in ``state``."""
        return int(self.choice_ptr[state + 1] - self.choice_ptr[state])
