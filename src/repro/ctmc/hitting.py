"""Expected hitting times in CTMCs.

The deterministic counterpart of
:func:`repro.core.expected_time.expected_time_analysis`: the
expected time until a goal set is first hit, solved exactly through one
sparse linear system

    (diag(E_s) - R_restricted) h = 1      on non-goal states,

where ``E_s`` are the exit rates (self-loops cancel) and
``R_restricted`` is the rate matrix among non-goal states.  States that
cannot reach the goal have infinite expected hitting time and are
classified by graph reachability first.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.ctmc.model import CTMC
from repro.states import state_mask

__all__ = ["expected_hitting_time"]


def _can_reach(ctmc: CTMC, mask: np.ndarray) -> np.ndarray:
    """States with a path into the goal set (ignoring rates)."""
    n = ctmc.num_states
    predecessors: list[list[int]] = [[] for _ in range(n)]
    matrix = ctmc.rates
    for state in range(n):
        lo, hi = matrix.indptr[state], matrix.indptr[state + 1]
        for target in matrix.indices[lo:hi]:
            predecessors[int(target)].append(state)
    reached = mask.copy()
    stack = list(np.flatnonzero(mask))
    while stack:
        state = stack.pop()
        for pred in predecessors[state]:
            if not reached[pred]:
                reached[pred] = True
                stack.append(pred)
    return reached


def expected_hitting_time(
    ctmc: CTMC, goal: Iterable[int] | np.ndarray
) -> np.ndarray:
    """Expected time, per state, until ``goal`` is first entered.

    Returns ``0`` on goal states and ``inf`` where the goal is not
    almost surely reached (either unreachable, or the chain can be
    absorbed elsewhere first).

    Raises
    ------
    ModelError
        If the goal specification is invalid.
    """
    n = ctmc.num_states
    mask = state_mask(n, goal, "goal state")
    if not mask.any():
        return np.full(n, np.inf)

    # Reaching the goal almost surely requires (i) a path existing and
    # (ii) no possibility of getting trapped in a goal-free recurrent
    # set.  For a CTMC both reduce to: every state reachable from s
    # without passing the goal can still reach the goal.
    can = _can_reach(ctmc, mask)
    finite = can.copy()
    changed = True
    matrix = ctmc.rates
    while changed:
        changed = False
        for state in np.flatnonzero(finite & ~mask):
            lo, hi = matrix.indptr[state], matrix.indptr[state + 1]
            targets = matrix.indices[lo:hi]
            if len(targets) == 0 or any(not finite[int(t)] for t in targets):
                finite[state] = False
                changed = True

    solve_states = np.flatnonzero(finite & ~mask)
    result = np.full(n, np.inf)
    result[mask] = 0.0
    if len(solve_states) == 0:
        return result

    dense_rates = ctmc.rates
    exits = ctmc.exit_rates()
    # Self-loops cancel in the generator: subtract them from both sides.
    diag_loops = np.array([ctmc.rate(s, s) for s in solve_states])
    sub = dense_rates[np.ix_(solve_states, solve_states)].tolil()
    for k in range(len(solve_states)):
        sub[k, k] = 0.0
    a = sp.diags(exits[solve_states] - diag_loops) - sp.csr_matrix(sub)
    import scipy.sparse.linalg

    h = scipy.sparse.linalg.spsolve(sp.csr_matrix(a), np.ones(len(solve_states)))
    result[solve_states] = np.atleast_1d(h)
    return result
