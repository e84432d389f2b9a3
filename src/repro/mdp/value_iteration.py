"""Value iteration for discrete-time MDPs.

Step-bounded and unbounded reachability.  The step-bounded variant is
the discrete skeleton of Algorithm 1: the continuous-time algorithm is
this recursion with each step weighted by a Poisson probability.  The
per-state optimisation is the shared segmented reduction of
:mod:`repro.core.segments`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable

import numpy as np

from repro.core.segments import SegmentIndex, segment_reduce, validate_objective
from repro.errors import ConvergenceError, ModelError
from repro.mdp.model import DTMDP
from repro.obs import sweep_span
from repro.states import state_mask

__all__ = ["bounded_reachability", "unbounded_reachability"]


def bounded_reachability(
    mdp: DTMDP, goal: Iterable[int] | np.ndarray, steps: int, objective: str = "max"
) -> np.ndarray:
    """Optimal probability to reach ``goal`` within ``steps`` steps.

    States without actions are absorbing with value zero (unless they
    are goal states, which always carry value one).
    """
    validate_objective(objective)
    if steps < 0:
        raise ModelError("step bound must be non-negative")
    mask = state_mask(mdp.num_states, goal, "goal state")
    segments = SegmentIndex.from_choice_ptr(mdp.choice_ptr)

    with sweep_span(
        "vi.sweep", objective=objective, states=mdp.num_states,
        iterations=steps, kind="bounded",
    ) as recorder:
        record_steps = recorder.enabled
        q = mask.astype(np.float64)
        for _ in range(steps):
            step_started = perf_counter() if record_steps else 0.0
            values = mdp.probabilities @ q
            new_q = np.zeros(mdp.num_states)
            new_q[segments.nonempty] = segment_reduce(values, segments, objective)
            new_q[mask] = 1.0
            q = new_q
            if record_steps:
                recorder.record(perf_counter() - step_started)
    return q


def unbounded_reachability(
    mdp: DTMDP,
    goal: Iterable[int] | np.ndarray,
    objective: str = "max",
    tol: float = 1e-12,
    max_iterations: int = 1_000_000,
) -> np.ndarray:
    """Optimal probability to ever reach ``goal`` (plain value iteration).

    No qualitative set is pinned, so this is the independent reference
    for :func:`repro.core.reachability.unbounded_reachability`.  Raises
    :class:`~repro.errors.ConvergenceError` when ``max_iterations``
    steps leave the largest per-state change at or above ``tol``.
    """
    validate_objective(objective)
    mask = state_mask(mdp.num_states, goal, "goal state")
    segments = SegmentIndex.from_choice_ptr(mdp.choice_ptr)

    with sweep_span(
        "vi.sweep", objective=objective, states=mdp.num_states, kind="unbounded"
    ) as recorder:
        record_steps = recorder.enabled
        q = mask.astype(np.float64)
        delta = np.inf
        for _ in range(max_iterations):
            step_started = perf_counter() if record_steps else 0.0
            values = mdp.probabilities @ q
            new_q = np.zeros(mdp.num_states)
            new_q[segments.nonempty] = segment_reduce(values, segments, objective)
            new_q[mask] = 1.0
            if record_steps:
                recorder.record(perf_counter() - step_started)
            delta = float(np.max(np.abs(new_q - q)))
            if delta < tol:
                return new_q
            q = new_q
    raise ConvergenceError(
        f"value iteration did not converge within {max_iterations} iterations "
        f"(last delta {delta:.3g}, tol {tol:g})"
    )
