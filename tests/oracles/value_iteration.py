"""Plain value iteration for unbounded reachability on a DTMDP.

:func:`unbounded_reachability` pins no qualitative set, so it is the
independent reference for :func:`repro.core.reachability.unbounded_reachability`,
which fixes the Prob0/Prob1 states before iterating.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.segments import SegmentIndex, segment_reduce, validate_objective
from repro.errors import ConvergenceError
from repro.mdp.model import DTMDP
from repro.states import state_mask


def unbounded_reachability(
    mdp: DTMDP,
    goal: Iterable[int] | np.ndarray,
    objective: str = "max",
    tol: float = 1e-12,
    max_iterations: int = 1_000_000,
) -> np.ndarray:
    """Optimal probability to ever reach ``goal`` (plain value iteration).

    Raises :class:`~repro.errors.ConvergenceError` when
    ``max_iterations`` steps leave the largest per-state change at or
    above ``tol``.
    """
    validate_objective(objective)
    mask = state_mask(mdp.num_states, goal, "goal state")
    segments = SegmentIndex.from_choice_ptr(mdp.choice_ptr)
    q = mask.astype(np.float64)
    delta = np.inf
    for _ in range(max_iterations):
        new_q = np.zeros(mdp.num_states)
        new_q[segments.nonempty] = segment_reduce(mdp.probabilities @ q, segments, objective)
        new_q[mask] = 1.0
        delta = float(np.max(np.abs(new_q - q)))
        if delta < tol:
            return new_q
        q = new_q
    raise ConvergenceError(
        f"value iteration did not converge within {max_iterations} iterations "
        f"(last delta {delta:.3g}, tol {tol:g})"
    )
