"""State-reward analysis for CTMCs.

The paper's implementation lived inside ETMCC and was being ported to
MRMC -- the Markov *Reward* Model Checker [20] -- whose bread-and-butter
queries decorate states with reward rates.  This module provides the
three classical state-reward measures:

* :func:`instantaneous_reward` -- expected reward rate at time ``t``
  (``pi(t) . r``), e.g. "expected number of operational workstations
  after 100 h";
* :func:`long_run_average_reward` -- steady-state reward rate
  (``pi . r``), e.g. long-run premium availability when ``r`` is the
  premium indicator;
* :func:`accumulated_reward_until` -- expected reward accumulated until
  a goal set is first hit (the reward-weighted generalisation of the
  expected hitting time: with ``r = 1`` everywhere the two coincide).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.ctmc.hitting import _can_reach
from repro.ctmc.model import CTMC
from repro.ctmc.uniformization import steady_state_analysis, transient_analysis
from repro.errors import ModelError
from repro.states import state_mask

__all__ = [
    "instantaneous_reward",
    "long_run_average_reward",
    "accumulated_reward_until",
]


def _check_rewards(rewards: np.ndarray, n: int) -> np.ndarray:
    arr = np.asarray(rewards, dtype=np.float64)
    if arr.shape != (n,):
        raise ModelError(f"one reward rate per state required, got shape {arr.shape}")
    return arr


def instantaneous_reward(
    ctmc: CTMC, rewards: np.ndarray, t: float, epsilon: float = 1e-10
) -> float:
    """Expected reward rate at time ``t``: ``pi(t) . r``."""
    arr = _check_rewards(rewards, ctmc.num_states)
    distribution = transient_analysis(ctmc, t, epsilon=epsilon).distribution
    return float(distribution @ arr)


def long_run_average_reward(ctmc: CTMC, rewards: np.ndarray) -> float:
    """Long-run average reward rate ``pi . r`` (irreducible chains)."""
    arr = _check_rewards(rewards, ctmc.num_states)
    return float(steady_state_analysis(ctmc).distribution @ arr)


def accumulated_reward_until(
    ctmc: CTMC, rewards: np.ndarray, goal: Iterable[int] | np.ndarray
) -> np.ndarray:
    """Expected reward accumulated until ``goal`` is first entered.

    Solves ``(diag(E) - R_restricted) v = r`` on the non-goal states
    (self-loops cancel).  States that do not reach the goal almost
    surely carry ``inf`` (if their reward is ever positive on the
    non-goal part they accumulate forever) -- consistent with
    :func:`repro.ctmc.hitting.expected_hitting_time`, which is the
    ``r = 1`` special case.
    """
    n = ctmc.num_states
    arr = _check_rewards(rewards, n)
    if (arr < 0.0).any():
        raise ModelError("reward rates must be non-negative")
    mask = state_mask(n, goal, "goal state")
    result = np.full(n, np.inf)
    result[mask] = 0.0
    if not mask.any():
        return result

    can = _can_reach(ctmc, mask)
    finite = can.copy()
    matrix = ctmc.rates
    changed = True
    while changed:
        changed = False
        for state in np.flatnonzero(finite & ~mask):
            lo, hi = matrix.indptr[state], matrix.indptr[state + 1]
            targets = matrix.indices[lo:hi]
            if len(targets) == 0 or any(not finite[int(t)] for t in targets):
                finite[state] = False
                changed = True

    solve_states = np.flatnonzero(finite & ~mask)
    if len(solve_states) == 0:
        return result

    exits = ctmc.exit_rates()
    diag_loops = np.array([ctmc.rate(s, s) for s in solve_states])
    sub = ctmc.rates[np.ix_(solve_states, solve_states)].tolil()
    for k in range(len(solve_states)):
        sub[k, k] = 0.0
    a = sp.diags(exits[solve_states] - diag_loops) - sp.csr_matrix(sub)
    import scipy.sparse.linalg

    v = scipy.sparse.linalg.spsolve(sp.csr_matrix(a), arr[solve_states])
    result[solve_states] = np.atleast_1d(v)
    return result
