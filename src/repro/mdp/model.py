"""Discrete-time Markov decision processes.

The timed-reachability algorithm for uniform CTMDPs is a
Poisson-weighted value iteration over exactly the embedded DTMDP built
here; the qualitative graph analyses and the linter read it too.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from repro.errors import ModelError

__all__ = ["DTMDP"]


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
