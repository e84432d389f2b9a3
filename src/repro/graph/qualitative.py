"""The full qualitative family Prob0E/Prob0A/Prob1E/Prob1A.

Each function answers a quantifier pair over schedulers on the support
graph alone -- no rates, no iteration towards a numeric fixpoint:

* :func:`prob0_forall` -- ``Pmax = 0``: *every* scheduler misses the
  goal (no path at all through safe states);
* :func:`prob0_exists` -- ``Pmin = 0``: *some* scheduler misses the
  goal with certainty (greatest fixpoint of goal-avoiding closedness);
* :func:`prob1_exists` -- ``Pmax = 1``: *some* scheduler hits the goal
  almost surely (the classical nested Prob1E fixpoint);
* :func:`prob1_forall` -- ``Pmin = 1``: *every* scheduler hits the goal
  almost surely (complement of the adversary's escape region).

All four accept an optional ``safe`` mask giving until semantics
``safe U goal``: states outside ``safe | goal`` are *blocked* -- their
value is 0 under every scheduler, so they enlarge the zero sets and
shrink the one sets.  The inner loops are vectorised: one boolean
sparse mat-vec per fixpoint round classifies every choice row at once
(`all targets in X` / `some target in X`), and a segmented reduction
over ``choice_ptr`` lifts rows back to states, making each round
O(transitions) instead of O(states * transitions).

Unbounded value iteration pins these sets before iterating (see
``docs/qualitative.md`` for why the time-bounded sweeps do not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.graph.structure import TransitionGraph, graph_of
from repro.states import state_mask

__all__ = [
    "QualitativeAnalysis",
    "prob0_forall",
    "prob0_exists",
    "prob1_exists",
    "prob1_forall",
    "qualitative_analysis",
]


def _row_counts(graph: TransitionGraph, x: np.ndarray) -> np.ndarray:
    """Per choice row, how many of its targets lie in ``x``."""
    return graph.support @ x.astype(np.int64)


def _state_any(graph: TransitionGraph, row_flags: np.ndarray) -> np.ndarray:
    """Per state, whether any of its choice rows is flagged."""
    result = np.zeros(graph.num_states, dtype=bool)
    nonempty = np.flatnonzero(np.diff(graph.choice_ptr) > 0)
    if len(nonempty) == 0:
        return result
    starts = graph.choice_ptr[nonempty]
    result[nonempty] = np.maximum.reduceat(row_flags, starts)
    return result


def _resolve_safe(
    graph: TransitionGraph, goal: np.ndarray, safe: np.ndarray | None
) -> np.ndarray:
    """The allowed (non-blocked) non-goal states."""
    if safe is None:
        return ~goal
    return state_mask(graph.num_states, safe, "safe state") & ~goal


def prob0_forall(
    graph: TransitionGraph,
    goal: Iterable[int] | np.ndarray,
    safe: np.ndarray | None = None,
) -> np.ndarray:
    """States with ``Pmax(safe U goal) = 0`` (no scheduler reaches goal).

    Complement of backward reachability from the goal through allowed
    states: a state counts iff no path touches the goal before leaving
    ``safe``.
    """
    goal_mask = state_mask(graph.num_states, goal, "goal state")
    allowed = _resolve_safe(graph, goal_mask, safe)
    reached = graph.backward_reachable(goal_mask, through=allowed)
    return ~reached


def prob0_exists(
    graph: TransitionGraph,
    goal: Iterable[int] | np.ndarray,
    safe: np.ndarray | None = None,
    *,
    with_witness: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """States with ``Pmin(safe U goal) = 0`` (some scheduler avoids goal).

    Greatest fixpoint of ``Z``: a non-goal state stays in ``Z`` iff it
    is blocked (outside ``safe``), has no choice at all, or has a choice
    whose entire support remains inside ``Z``.

    With ``with_witness=True`` additionally returns, per state in the
    set, the *local* index of one such goal-avoiding choice (-1 where
    none exists or none is needed: blocked, deadlocked, or outside the
    set).
    """
    goal_mask = state_mask(graph.num_states, goal, "goal state")
    allowed = _resolve_safe(graph, goal_mask, safe)
    blocked = ~allowed & ~goal_mask
    degrees = graph.row_degrees
    absorbing = graph.deadlocks

    z = ~goal_mask
    while True:
        in_z = _row_counts(graph, z)
        row_stays = (in_z == degrees) & (degrees > 0)
        closed_choice = _state_any(graph, row_stays)
        new_z = ~goal_mask & (blocked | absorbing | closed_choice)
        if (new_z == z).all():
            break
        z = new_z

    if not with_witness:
        return z
    witness = np.full(graph.num_states, -1, dtype=np.int64)
    in_z = _row_counts(graph, z)
    row_stays = (in_z == degrees) & (degrees > 0)
    for state in np.flatnonzero(z & ~absorbing & ~blocked):
        lo, hi = graph.choice_ptr[state], graph.choice_ptr[state + 1]
        local = np.flatnonzero(row_stays[lo:hi])
        if len(local):
            witness[state] = int(local[0])
    return z, witness


def prob1_exists(
    graph: TransitionGraph,
    goal: Iterable[int] | np.ndarray,
    safe: np.ndarray | None = None,
) -> np.ndarray:
    """States with ``Pmax(safe U goal) = 1`` (some scheduler hits a.s.).

    The classical nested fixpoint: the outer loop shrinks a candidate
    set ``u``, the inner loop grows within ``u`` the states owning a
    choice that stays inside ``u`` while making progress towards the
    current ``v``.
    """
    goal_mask = state_mask(graph.num_states, goal, "goal state")
    allowed = _resolve_safe(graph, goal_mask, safe)
    degrees = graph.row_degrees

    u = np.ones(graph.num_states, dtype=bool)
    while True:
        v = goal_mask.copy()
        while True:
            in_u = _row_counts(graph, u)
            in_v = _row_counts(graph, v)
            row_good = (in_u == degrees) & (in_v > 0) & (degrees > 0)
            grown = v | (allowed & _state_any(graph, row_good))
            if (grown == v).all():
                break
            v = grown
        if (v == u).all():
            return u
        u = v


def prob1_forall(
    graph: TransitionGraph,
    goal: Iterable[int] | np.ndarray,
    safe: np.ndarray | None = None,
) -> np.ndarray:
    """States with ``Pmin(safe U goal) = 1`` (every scheduler hits a.s.).

    The adversary keeps positive avoiding probability iff it can reach,
    moving through non-goal states, a region it can never be forced out
    of: the greatest fixpoint of goal-free closedness, with blocked and
    deadlocked states closed by definition (their value is 0 < 1).
    """
    goal_mask = state_mask(graph.num_states, goal, "goal state")
    # The escape core is exactly the Pmin = 0 region: states where some
    # scheduler stays goal-free forever (blocked and deadlocked states
    # included -- their value is 0 under every scheduler).
    core = np.asarray(prob0_exists(graph, goal_mask, safe))
    avoid = graph.backward_reachable(core, through=~goal_mask)
    return ~avoid


@dataclass(frozen=True)
class QualitativeAnalysis:
    """The four qualitative sets of one (model, goal[, safe]) query."""

    prob0_forall: np.ndarray
    prob0_exists: np.ndarray
    prob1_exists: np.ndarray
    prob1_forall: np.ndarray

    def counts(self) -> dict[str, int]:
        """Cardinality of each set."""
        return {
            "prob0_forall": int(self.prob0_forall.sum()),
            "prob0_exists": int(self.prob0_exists.sum()),
            "prob1_exists": int(self.prob1_exists.sum()),
            "prob1_forall": int(self.prob1_forall.sum()),
        }


def qualitative_analysis(
    model: object,
    goal: Iterable[int] | np.ndarray,
    safe: np.ndarray | None = None,
) -> QualitativeAnalysis:
    """All four qualitative sets of ``model`` w.r.t. ``goal`` (and ``safe``)."""
    graph = graph_of(model)
    return QualitativeAnalysis(
        prob0_forall=prob0_forall(graph, goal, safe),
        prob0_exists=prob0_exists(graph, goal, safe),
        prob1_exists=prob1_exists(graph, goal, safe),
        prob1_forall=prob1_forall(graph, goal, safe),
    )
