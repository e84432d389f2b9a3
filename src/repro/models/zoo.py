"""Small example systems with hand-computable answers.

``repro selfcheck`` and ``examples/scheduler_extraction.py`` run
:func:`two_phase_race_ctmdp`.
"""

from __future__ import annotations

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.errors import ModelError

__all__ = ["two_phase_race_ctmdp"]


def two_phase_race_ctmdp(fast: float = 10.0, slow: float = 1.0) -> tuple[CTMDP, np.ndarray]:
    """The classic uCTMDP example of Baier et al. [2].

    From the initial state the scheduler chooses between a *direct* slow
    path to the goal and a *detour* through an intermediate state with
    two fast jumps.  For short time bounds the direct slow transition
    maximises the reachability probability, for long bounds the detour
    wins -- the optimal scheduler is genuinely time(-step) dependent,
    which is why timed reachability needs the step-indexed greedy
    algorithm rather than a single stationary choice.

    States: 0 = start, 1 = detour, 2 = goal.  Uniform rate
    ``fast + slow``.  Returns the model and its goal mask.
    """
    if fast <= slow:
        raise ModelError("the race needs fast > slow to be interesting")
    total = fast + slow
    ctmdp = CTMDP.from_transitions(
        3,
        [
            # Direct: reach the goal with rate `slow`, otherwise stay.
            (0, "direct", {2: slow, 0: fast}),
            # Detour: move on with rate `fast`, otherwise stay.
            (0, "detour", {1: fast, 0: slow}),
            (1, "move", {2: fast, 1: slow}),
            (2, "stay", {2: total}),
        ],
        initial=0,
        state_names=["start", "detour", "goal"],
    )
    goal = np.array([False, False, True])
    return ctmdp, goal
