"""Oracles for Algorithm 1's backward sweep: every transition row, every step.

* :func:`full_row_sweep` is the textbook recursion of
  :mod:`repro.core.reachability` written out over the whole ``T x S``
  probability matrix: each step multiplies and reduces *every*
  transition row, then overwrites the goal rows with ``psi_i + q`` and
  pins blocked (until) states to zero.  It records the first optimal
  transition of every state with transitions at every step, goal and
  blocked states included.
* :func:`full_row_replay` is the same recursion with the optimisation
  replaced by fixed decisions (``replay_step_scheduler``'s semantics).

The production code iterates only the undecided states; it must
reproduce these values bit for bit, and these decisions at every state
it sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.core.segments import SegmentIndex, segment_argbest, segment_reduce
from repro.numerics.foxglynn import fox_glynn


def full_row_sweep(
    ctmdp: CTMDP,
    goal: np.ndarray,
    t: float,
    epsilon: float = 1e-6,
    objective: str = "max",
    blocked: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(values, decisions)`` of ``safe U<=t goal`` over all rows.

    ``goal`` and ``blocked`` are boolean masks (``blocked=None`` is plain
    reachability); ``t > 0`` and a nonempty goal are assumed.
    ``decisions`` is the dense ``k x S`` int32 matrix in logical order
    (row ``i - 1`` holds backward step ``i``), ``-1`` where a state has
    no transition.
    """
    fg = fox_glynn(ctmdp.uniform_rate() * t, epsilon)
    psi = fg.probabilities()
    prob = ctmdp.probability_matrix()
    prob_to_goal = prob @ goal.astype(np.float64)
    segments = SegmentIndex.from_choice_ptr(ctmdp.choice_ptr)
    goal_idx = np.flatnonzero(goal)
    num_states = ctmdp.num_states

    decisions = np.full((fg.right, num_states), -1, dtype=np.int32)
    q = np.zeros(num_states)
    for i in range(fg.right, 0, -1):
        psi_i = psi[i - fg.left] if i >= fg.left else 0.0
        transition_values = psi_i * prob_to_goal + prob @ q
        best = segment_reduce(transition_values, segments, objective)
        new_q = np.zeros(num_states)
        new_q[segments.nonempty] = best
        new_q[goal_idx] = psi_i + q[goal_idx]
        if blocked is not None:
            new_q[blocked] = 0.0
        decisions[i - 1, segments.nonempty] = segment_argbest(
            transition_values, best, segments, objective
        )
        q = new_q

    values = q.copy()
    values[goal_idx] = 1.0
    if blocked is not None:
        values[blocked] = 0.0
    np.clip(values, 0.0, 1.0, out=values)
    return values, decisions


def full_row_replay(
    ctmdp: CTMDP,
    goal: np.ndarray,
    t: float,
    decisions: np.ndarray,
    epsilon: float = 1e-6,
    blocked: np.ndarray | None = None,
) -> np.ndarray:
    """Values of the fixed step scheduler ``decisions`` (dense, logical
    order); steps past the last row reuse it, ``-1`` means the first
    transition."""
    fg = fox_glynn(ctmdp.uniform_rate() * t, epsilon)
    psi = fg.probabilities()
    prob = ctmdp.probability_matrix()
    prob_to_goal = prob @ goal.astype(np.float64)
    segments = SegmentIndex.from_choice_ptr(ctmdp.choice_ptr)
    goal_idx = np.flatnonzero(goal)
    num_states = ctmdp.num_states

    q = np.zeros(num_states)
    for i in range(fg.right, 0, -1):
        psi_i = psi[i - fg.left] if i >= fg.left else 0.0
        transition_values = psi_i * prob_to_goal + prob @ q
        row = decisions[min(i - 1, len(decisions) - 1)][segments.nonempty]
        choice = np.clip(row, 0, segments.counts - 1)
        new_q = np.zeros(num_states)
        new_q[segments.nonempty] = transition_values[segments.starts + choice]
        new_q[goal_idx] = psi_i + q[goal_idx]
        if blocked is not None:
            new_q[blocked] = 0.0
        q = new_q

    values = q.copy()
    values[goal_idx] = 1.0
    if blocked is not None:
        values[blocked] = 0.0
    np.clip(values, 0.0, 1.0, out=values)
    return values
