"""Time-bounded *until* for uniform CTMDPs.

The timed-reachability algorithm of [2] (Algorithm 1 of the paper)
extends directly from plain reachability ``diamond^{<=t} B`` to the CSL
until operator

    A  U^{<=t}  B   --  "reach B within t, staying inside A until then"

by treating states outside ``A + B`` as *blocked*: a path entering such
a state has violated the property, so its continuation value is pinned
to zero and never recovers.  With ``A = S`` this degenerates to
reachability, which is how the implementation is cross-checked.

This covers the paper's motivating property class ("timed safety and
liveness"): e.g. "the probability to hit a safety-critical configuration
within the mission time, without an operator intervention first, is at
most p".
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.core.reachability import ReachabilityResult, _ActiveSet, _moves, _sweep
from repro.core.segments import validate_objective
from repro.errors import ModelError, NonUniformError
from repro.numerics.foxglynn import fox_glynn
from repro.obs import NumericalCertificate
from repro.states import state_mask

__all__ = ["timed_until"]


def timed_until(
    ctmdp: CTMDP,
    safe: Iterable[int] | np.ndarray,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-6,
    objective: str = "max",
    record_scheduler: bool = False,
) -> ReachabilityResult:
    """Optimal probability of ``safe U^{<=t} goal`` per state.

    Parameters
    ----------
    ctmdp:
        A uniform CTMDP.
    safe:
        The states that may be traversed (``A``); goal states need not
        be included.
    goal:
        The goal set (``B``).
    t:
        Time bound.
    epsilon:
        Poisson truncation error.
    objective:
        ``"max"`` or ``"min"`` over schedulers.
    record_scheduler:
        If true, record the optimising transition per state and step
        (the same shape Algorithm 1's reachability extraction produces;
        blocked states are not swept and record the first transition --
        their value is pinned to zero whatever is chosen).

    Returns
    -------
    ReachabilityResult
        Per-state probabilities; goal states carry one, blocked states
        (neither safe nor goal) carry zero.
    """
    validate_objective(objective)
    if t < 0.0:
        raise ModelError("time bound must be non-negative")
    goal_mask = state_mask(ctmdp.num_states, goal, "goal state")
    safe_mask = state_mask(ctmdp.num_states, safe, "safe state")
    blocked = ~(safe_mask | goal_mask)

    if t == 0.0 or not _moves(np.diff(ctmdp.choice_ptr) > 0, goal_mask, blocked):
        # Trivially answerable: no time passes, or nothing outside the
        # goal and the blocked states moves.  The answer does not depend
        # on uniformity, so the rate is only reported when the model
        # actually is uniform -- querying a degenerate property on a
        # non-uniform model must not raise.
        values = goal_mask.astype(np.float64)
        dummy = fox_glynn(0.0, min(epsilon, 0.5))
        has_rate = bool(ctmdp.num_transitions) and ctmdp.is_uniform()
        return ReachabilityResult(
            values=values,
            iterations=0,
            uniform_rate=ctmdp.uniform_rate() if has_rate else 0.0,
            time_bound=t,
            objective=objective,
            poisson=dummy,
            certificate=NumericalCertificate.trivial("ctmdp.until", epsilon),
        )

    rate = ctmdp.uniform_rate()
    if rate <= 0.0:
        raise NonUniformError("uniform rate must be strictly positive for analysis")
    prob = ctmdp.probability_matrix()
    prob_to_goal = prob @ goal_mask.astype(np.float64)

    return _sweep(
        active=_ActiveSet.build(prob, prob_to_goal, ctmdp.choice_ptr, goal_mask, blocked),
        num_states=ctmdp.num_states,
        num_transitions=ctmdp.num_transitions,
        goal=goal_mask,
        rate=rate,
        t=t,
        epsilon=epsilon,
        objective=objective,
        record_scheduler=record_scheduler,
        span_name="until.sweep",
        algorithm="ctmdp.until",
    )
