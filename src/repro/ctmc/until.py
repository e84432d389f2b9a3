"""Time-bounded until for CTMCs.

The standard CSL reduction: for ``A U^{<=t} B``, states outside
``A + B`` are made absorbing (a path entering one has already violated
the formula and must not accumulate goal probability later), goal states
are made absorbing as usual, and a transient analysis of the modified
chain evaluated on ``B`` gives the answer.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.ctmc.model import CTMC
from repro.ctmc.reachability import (
    CTMCReachabilityResult,
    PreparedCTMCReachability,
    _absorbing,
)
from repro.states import state_mask

__all__ = ["timed_until"]


def timed_until(
    ctmc: CTMC,
    safe: Iterable[int] | np.ndarray,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-10,
) -> CTMCReachabilityResult:
    """Probability of ``safe U^{<=t} goal`` per state of a CTMC, certified."""
    n = ctmc.num_states
    goal_arr = state_mask(n, goal, "goal state")
    blocked = ~(state_mask(n, safe, "safe state") | goal_arr)

    # Make blocked states absorbing, then run plain timed reachability.
    pruned = _absorbing(ctmc, blocked)
    result = PreparedCTMCReachability(pruned, goal_arr).solve(t, epsilon=epsilon)
    result.values[blocked] = 0.0  # a fresh array owned by this result
    return result
