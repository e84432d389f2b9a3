"""Monte-Carlo oracle: discrete-event simulation of CTMCs and scheduled CTMDPs.

Simulation is an independent implementation of the timed semantics.
Its estimates must bracket the analytic answers of the
uniformisation-based algorithms: any scheduler's simulated reachability
probability lies between the ``min`` and ``max`` values of Algorithm 1,
and a CTMC's lies at its transient solution.

A scheduler (Definition 2 of the paper) resolves a CTMDP's
nondeterminism from the time-abstract history.  Three kinds drive the
simulator:

* :class:`StationaryScheduler` -- deterministic and memoryless; it
  induces a CTMC on the model;
* :class:`StepScheduler` -- deterministic and step-counting, the shape
  of the optimal schedulers Algorithm 1 records;
* :class:`UniformRandomScheduler` -- every transition equally likely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.errors import ModelError, ReproError
from repro.sim.imc_sim import SimulationEstimate, _estimate


class SchedulerError(ReproError):
    """A scheduler is inconsistent with the model it is applied to."""


class Scheduler(Protocol):
    """Map ``(state, step, history)`` to a distribution over the outgoing
    transitions of ``state``, in the order of ``ctmdp.transitions_of``.

    ``history`` is the time-abstract path prefix as ``(state, action)``
    pairs; ``step`` is its length.
    """

    def distribution(
        self, ctmdp: CTMDP, state: int, step: int, history: Sequence[tuple[int, str]]
    ) -> np.ndarray:
        ...  # pragma: no cover - protocol


def _check_state_has_choices(ctmdp: CTMDP, state: int) -> int:
    count = ctmdp.num_choices(state)
    if count == 0:
        raise SchedulerError(f"state {state} has no outgoing transitions to schedule")
    return count


def _point_mass(count: int, choice: int) -> np.ndarray:
    result = np.zeros(count)
    result[choice] = 1.0
    return result


@dataclass(frozen=True)
class StationaryScheduler:
    """Deterministic memoryless scheduler: one fixed choice per state."""

    choices: np.ndarray

    @classmethod
    def from_list(cls, choices: Sequence[int]) -> StationaryScheduler:
        return cls(choices=np.asarray(choices, dtype=np.int64))

    def distribution(
        self, ctmdp: CTMDP, state: int, step: int, history: Sequence[tuple[int, str]]
    ) -> np.ndarray:
        count = _check_state_has_choices(ctmdp, state)
        choice = int(self.choices[state])
        if not 0 <= choice < count:
            raise SchedulerError(
                f"choice {choice} out of range for state {state} with {count} alternatives"
            )
        return _point_mass(count, choice)


@dataclass(frozen=True)
class StepScheduler:
    """Deterministic step-dependent scheduler.

    ``decisions[i][s]`` is the transition chosen in state ``s`` after
    ``i`` jumps; later steps reuse the last row.  Algorithm 1 writes the
    decision of backward index ``i`` into row ``i - 1``, and forward
    execution after ``j`` jumps is governed by backward index ``j + 1``,
    so a recorded table (dense or
    :class:`~repro.policy.store.CompressedDecisions`) is used as is.
    """

    decisions: np.ndarray

    def distribution(
        self, ctmdp: CTMDP, state: int, step: int, history: Sequence[tuple[int, str]]
    ) -> np.ndarray:
        count = _check_state_has_choices(ctmdp, state)
        row = min(step, len(self.decisions) - 1)
        choice = max(int(self.decisions[row][state]), 0)
        if choice >= count:
            raise SchedulerError(f"recorded choice {choice} out of range for state {state}")
        return _point_mass(count, choice)


@dataclass(frozen=True)
class UniformRandomScheduler:
    """Randomized memoryless scheduler giving every transition equal weight."""

    def distribution(
        self, ctmdp: CTMDP, state: int, step: int, history: Sequence[tuple[int, str]]
    ) -> np.ndarray:
        count = _check_state_has_choices(ctmdp, state)
        return np.full(count, 1.0 / count)


def simulate_ctmc_reachability(
    ctmc: CTMC,
    goal: set[int],
    t: float,
    runs: int = 10_000,
    rng: np.random.Generator | None = None,
    start: int | None = None,
) -> SimulationEstimate:
    """Estimate ``Pr(start |= diamond^{<=t} goal)`` by simulation.

    Self-loop rates are simulated faithfully (they prolong nothing
    observable but consume events), so uniformized chains may be passed
    directly.
    """
    if runs <= 0:
        raise ModelError("need at least one simulation run")
    rng = rng or np.random.default_rng()
    state0 = ctmc.initial if start is None else start
    hits = 0
    successor_cache: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}

    def successors(state: int) -> tuple[np.ndarray, np.ndarray, float]:
        if state not in successor_cache:
            row = ctmc.rates.getrow(state)
            total = float(row.data.sum())
            probs = row.data / total if total > 0.0 else row.data
            successor_cache[state] = (row.indices, probs, total)
        return successor_cache[state]

    for _ in range(runs):
        state = state0
        clock = 0.0
        while True:
            if state in goal:
                hits += 1
                break
            targets, probs, total = successors(state)
            if total <= 0.0:
                break  # absorbing, goal unreachable
            clock += rng.exponential(1.0 / total)
            if clock > t:
                break
            state = int(targets[rng.choice(len(targets), p=probs)]) if len(targets) > 1 else int(targets[0])
    return _estimate(hits, runs)


def simulate_ctmdp_reachability(
    ctmdp: CTMDP,
    scheduler: Scheduler,
    goal: set[int],
    t: float,
    runs: int = 10_000,
    rng: np.random.Generator | None = None,
    start: int | None = None,
) -> SimulationEstimate:
    """Estimate timed reachability of a CTMDP under a given scheduler.

    The scheduler picks a transition upon every arrival in a state; the
    sojourn is then exponential with that transition's exit rate and the
    successor is drawn from its branching distribution -- exactly the
    behavioural reading of Definition 1.
    """
    if runs <= 0:
        raise ModelError("need at least one simulation run")
    rng = rng or np.random.default_rng()
    state0 = ctmdp.initial if start is None else start
    hits = 0

    row_cache: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}

    def row_data(row: int) -> tuple[np.ndarray, np.ndarray, float]:
        if row not in row_cache:
            entries = ctmdp.rate_matrix.getrow(row)
            total = float(entries.data.sum())
            row_cache[row] = (entries.indices, entries.data / total, total)
        return row_cache[row]

    for _ in range(runs):
        state = state0
        clock = 0.0
        history: list[tuple[int, str]] = []
        while True:
            if state in goal:
                hits += 1
                break
            lo, hi = ctmdp.choice_ptr[state], ctmdp.choice_ptr[state + 1]
            if lo == hi:
                break  # absorbing
            dist = scheduler.distribution(ctmdp, state, len(history), history)
            if len(dist) != hi - lo or abs(dist.sum() - 1.0) > 1e-9:
                raise ModelError("scheduler returned an invalid distribution")
            pick = int(rng.choice(hi - lo, p=dist))
            row = int(lo + pick)
            targets, probs, total = row_data(row)
            clock += rng.exponential(1.0 / total)
            if clock > t:
                break
            history.append((state, ctmdp.labels[row]))
            state = int(targets[rng.choice(len(targets), p=probs)]) if len(targets) > 1 else int(targets[0])
    return _estimate(hits, runs)
