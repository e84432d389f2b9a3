"""Direct simulation of closed IMCs.

This is an *independent* implementation of the closed-system semantics
of Section 2 -- urgency (interactive transitions preempt Markov
transitions and take zero time), races between Markov transitions, and
nondeterminism resolved by an explicit policy -- used to cross-validate
the strictly-alternating transformation: simulated reachability
probabilities of the IMC must fall between the ``inf`` and ``sup``
values computed on the transformed CTMDP (Theorem 1), and must match
them exactly when the resolution policy mirrors an extracted scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ModelError
from repro.imc.model import IMC

__all__ = ["Resolver", "SimulationEstimate", "random_resolver", "simulate_imc_reachability"]


@dataclass(frozen=True)
class SimulationEstimate:
    """A Monte-Carlo estimate with its standard error.

    Attributes
    ----------
    probability:
        Fraction of runs that reached the goal within the bound.
    standard_error:
        Binomial standard error of the estimate.
    runs:
        Number of simulated trajectories.
    """

    probability: float
    standard_error: float
    runs: int

    def confidence_interval(self, z: float = 3.0) -> tuple[float, float]:
        """``z``-sigma confidence interval, clipped to ``[0, 1]``."""
        low = max(0.0, self.probability - z * self.standard_error)
        high = min(1.0, self.probability + z * self.standard_error)
        return low, high


def _estimate(hits: int, runs: int) -> SimulationEstimate:
    p = hits / runs
    se = float(np.sqrt(max(p * (1.0 - p), 1.0 / runs) / runs))
    return SimulationEstimate(probability=p, standard_error=se, runs=runs)


#: A resolution policy: given the IMC, the current state and the
#: time-abstract history (state sequence), return the index of the
#: interactive transition to take (into ``interactive_successors``).
Resolver = Callable[[IMC, int, Sequence[int]], int]


def random_resolver(rng: np.random.Generator) -> Resolver:
    """Resolve nondeterminism uniformly at random."""

    def resolve(imc: IMC, state: int, history: Sequence[int]) -> int:
        return int(rng.integers(len(imc.interactive_successors(state))))

    return resolve


def simulate_imc_reachability(
    imc: IMC,
    goal: set[int],
    t: float,
    resolver: Resolver | None = None,
    runs: int = 10_000,
    rng: np.random.Generator | None = None,
    max_interactive_steps: int = 10_000,
) -> SimulationEstimate:
    """Estimate ``Pr(reach goal within t)`` on the closed IMC directly.

    Parameters
    ----------
    imc:
        A closed IMC (remaining visible actions are treated as urgent,
        like ``tau``).
    goal:
        Goal states of the IMC; visiting one at any instant ``<= t``
        counts, including zero-time visits along interactive runs.
    t:
        The time bound.
    resolver:
        Resolution policy for interactive nondeterminism; defaults to
        uniformly random.
    runs, rng:
        Monte-Carlo parameters.
    max_interactive_steps:
        Safety bound against Zeno models: a run performing this many
        consecutive interactive steps raises ``ModelError``.
    """
    if runs <= 0:
        raise ModelError("need at least one simulation run")
    rng = rng or np.random.default_rng()
    resolve = resolver or random_resolver(rng)

    hits = 0
    for _ in range(runs):
        state = imc.initial
        clock = 0.0
        history: list[int] = []
        interactive_streak = 0
        while True:
            if state in goal:
                hits += 1
                break
            moves = imc.interactive_successors(state)
            if moves:
                # Urgency: interactive transitions happen immediately.
                interactive_streak += 1
                if interactive_streak > max_interactive_steps:
                    raise ModelError(
                        "interactive step limit exceeded; the model appears Zeno"
                    )
                choice = resolve(imc, state, history)
                if not 0 <= choice < len(moves):
                    raise ModelError(f"resolver returned invalid choice {choice}")
                history.append(state)
                state = moves[choice][1]
                continue
            interactive_streak = 0
            markov = imc.markov_successors(state)
            if not markov:
                break  # absorbing, goal unreachable
            total = math.fsum(rate for rate, _ in markov)
            clock += rng.exponential(1.0 / total)
            if clock > t:
                break
            weights = np.array([rate for rate, _ in markov]) / total
            pick = int(rng.choice(len(markov), p=weights)) if len(markov) > 1 else 0
            history.append(state)
            state = markov[pick][1]
    return _estimate(hits, runs)
