"""Phase-type distributions.

A phase-type distribution is the distribution of the time until
absorption in a finite absorbing CTMC [Neuts 1981].  The paper uses them
as the timing ingredient of the *elapse* operator: any delay occurring in
the system under study is specified as a phase-type distribution, whose
carrier CTMC is uniformized (so the result is a uniform IMC) and then
composed with the behavioural LTS.

The class below keeps the paper's structural view: a CTMC together with a
distinguished initial state ``i`` and a distinguished absorbing state
``a``.  Classical sub-families (exponential, Erlang, hypoexponential,
Coxian) are provided as constructors; all admit a *single* entry state,
matching the paper's definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ctmc.model import CTMC
from repro.ctmc.uniformization import uniformize
from repro.errors import ModelError

__all__ = ["PhaseType"]


@dataclass
class PhaseType:
    """A phase-type distribution as an absorbing CTMC with entry state.

    Attributes
    ----------
    chain:
        The carrier CTMC.  Before uniformization the distinguished
        absorbing state has no outgoing transitions; after uniformization
        it carries a self-loop ("reentered from itself according to a
        Poisson distribution", Section 2 of the paper).
    initial:
        Index of the entry state ``i``.
    absorbing:
        Index of the absorbing state ``a``.
    """

    chain: CTMC
    initial: int
    absorbing: int

    def __post_init__(self) -> None:
        n = self.chain.num_states
        if not 0 <= self.initial < n:
            raise ModelError("phase-type initial state out of range")
        if not 0 <= self.absorbing < n:
            raise ModelError("phase-type absorbing state out of range")
        if self.initial == self.absorbing:
            raise ModelError("initial and absorbing state must differ")
        # The absorbing state may only carry a self-loop (introduced by
        # uniformization); any other outgoing transition is an error.
        for target, _rate in self.chain.successors(self.absorbing):
            if target != self.absorbing:
                raise ModelError("absorbing state of a phase-type must not leave itself")

    # ------------------------------------------------------------------
    # Constructors for the classical sub-families
    # ------------------------------------------------------------------
    @classmethod
    def exponential(cls, rate: float) -> "PhaseType":
        """Exponential distribution with the given rate (one phase)."""
        if rate <= 0.0:
            raise ModelError("exponential rate must be positive")
        chain = CTMC.from_transitions(2, [(0, 1, rate)], initial=0)
        return cls(chain=chain, initial=0, absorbing=1)

    @classmethod
    def erlang(cls, phases: int, rate: float) -> "PhaseType":
        """Erlang distribution: ``phases`` sequential exponential stages."""
        if phases < 1:
            raise ModelError("Erlang needs at least one phase")
        if rate <= 0.0:
            raise ModelError("Erlang rate must be positive")
        transitions = [(k, k + 1, rate) for k in range(phases)]
        chain = CTMC.from_transitions(phases + 1, transitions, initial=0)
        return cls(chain=chain, initial=0, absorbing=phases)

    @classmethod
    def hypoexponential(cls, rates: Sequence[float]) -> "PhaseType":
        """Generalised Erlang: sequential stages with individual rates."""
        if not rates:
            raise ModelError("hypoexponential needs at least one stage")
        if any(r <= 0.0 for r in rates):
            raise ModelError("hypoexponential rates must be positive")
        transitions = [(k, k + 1, r) for k, r in enumerate(rates)]
        chain = CTMC.from_transitions(len(rates) + 1, transitions, initial=0)
        return cls(chain=chain, initial=0, absorbing=len(rates))

    @classmethod
    def coxian(cls, rates: Sequence[float], completion_probabilities: Sequence[float]) -> "PhaseType":
        """Coxian distribution.

        Stage ``k`` finishes with rate ``rates[k]``; upon finishing, the
        process absorbs with probability ``completion_probabilities[k]``
        and continues to the next stage otherwise.  The last stage must
        absorb with probability one.
        """
        if len(rates) != len(completion_probabilities):
            raise ModelError("Coxian needs one completion probability per stage")
        if not rates:
            raise ModelError("Coxian needs at least one stage")
        if any(r <= 0.0 for r in rates):
            raise ModelError("Coxian rates must be positive")
        if any(not 0.0 <= p <= 1.0 for p in completion_probabilities):
            raise ModelError("Coxian completion probabilities must lie in [0, 1]")
        if abs(completion_probabilities[-1] - 1.0) > 1e-12:
            raise ModelError("the final Coxian stage must complete with probability one")
        k = len(rates)
        absorbing = k
        transitions: list[tuple[int, int, float]] = []
        for stage, (rate, p_done) in enumerate(zip(rates, completion_probabilities)):
            if p_done > 0.0:
                transitions.append((stage, absorbing, rate * p_done))
            if stage + 1 < k and p_done < 1.0:
                transitions.append((stage, stage + 1, rate * (1.0 - p_done)))
        chain = CTMC.from_transitions(k + 1, transitions, initial=0)
        return cls(chain=chain, initial=0, absorbing=absorbing)

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def uniformized(self, rate: float | None = None) -> "PhaseType":
        """Uniformize the carrier CTMC (Jensen), keeping ``i`` and ``a``.

        After uniformization the absorbing state carries a self-loop with
        the uniform rate; this is a prerequisite for uniformity of the
        elapse IMC built on top.
        """
        return PhaseType(
            chain=uniformize(self.chain, rate),
            initial=self.initial,
            absorbing=self.absorbing,
        )

    def uniform_rate(self) -> float:
        """Uniform rate of the (uniformized) carrier chain."""
        return self.chain.uniform_rate()

    @property
    def num_phases(self) -> int:
        """Number of transient phases (states excluding the absorbing one)."""
        return self.chain.num_states - 1

    def _subgenerator(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Return ``(T, t, transient_order)``.

        ``T`` is the transient-to-transient sub-generator (self-loops
        cancel out), ``t = -T 1`` the absorption-rate column vector and
        ``transient_order`` maps matrix rows back to chain states.
        """
        transient = [s for s in range(self.chain.num_states) if s != self.absorbing]
        dense = self.chain.rates.toarray()
        sub = dense[np.ix_(transient, transient)]
        absorb = dense[transient, self.absorbing]
        off = sub - np.diag(np.diag(sub))  # self-loops cancel in the generator
        exits = off.sum(axis=1) + absorb
        t_matrix = off - np.diag(exits)
        return t_matrix, absorb, transient

    # ------------------------------------------------------------------
    # Distribution-theoretic interface
    # ------------------------------------------------------------------
    def _phases_at(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """``(alpha exp(T x), t)``: the probability of each transient phase
        at time ``x``, and the absorption-rate vector.

        Computed with ``expm_multiply``: ``scipy.linalg.expm`` loses most
        digits of ``exp(T x)`` when two phases' exit rates differ in the
        last bit, as in a Coxian with equal stage rates (the first exit
        rate is the sum of its two branches).
        """
        import scipy.sparse.linalg

        t_matrix, t_vec, transient = self._subgenerator()
        alpha = np.zeros(len(transient))
        alpha[transient.index(self.initial)] = 1.0
        return scipy.sparse.linalg.expm_multiply(t_matrix.T * x, alpha), t_vec

    def cdf(self, x: float) -> float:
        """``Pr(X <= x)``, via the matrix exponential of the sub-generator."""
        if x < 0.0:
            return 0.0
        phases, _t_vec = self._phases_at(x)
        return float(1.0 - phases.sum())

    def pdf(self, x: float) -> float:
        """Density at ``x >= 0``."""
        if x < 0.0:
            return 0.0
        phases, t_vec = self._phases_at(x)
        return float(phases @ t_vec)

    def moment(self, order: int) -> float:
        """Raw moment ``E[X^order]`` via ``(-1)^k k! alpha T^{-k} 1``."""
        if order < 1:
            raise ModelError("moment order must be >= 1")
        t_matrix, _t_vec, transient = self._subgenerator()
        alpha = np.zeros(len(transient))
        alpha[transient.index(self.initial)] = 1.0
        inv = np.linalg.inv(t_matrix)
        vec = alpha.copy()
        for _ in range(order):
            vec = vec @ inv
        return float((-1.0) ** order * math.factorial(order) * vec.sum())

    def mean(self) -> float:
        """Expected value of the distribution."""
        return self.moment(1)

    def variance(self) -> float:
        """Variance of the distribution."""
        first = self.moment(1)
        return self.moment(2) - first * first

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` independent samples by simulating the chain."""
        t_matrix, t_vec, transient = self._subgenerator()
        exit_rates = -np.diag(t_matrix)
        # Jump probabilities among transient states plus absorption.
        samples = np.empty(size)
        start = transient.index(self.initial)
        for n in range(size):
            state = start
            elapsed = 0.0
            while True:
                rate = exit_rates[state]
                elapsed += rng.exponential(1.0 / rate)
                row = t_matrix[state].copy()
                row[state] = 0.0
                weights = np.append(row, t_vec[state])
                weights = weights / weights.sum()
                nxt = rng.choice(len(weights), p=weights)
                if nxt == len(transient):
                    break
                state = nxt
            samples[n] = elapsed
        return samples

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PhaseType(phases={self.num_phases}, initial={self.initial}, "
            f"absorbing={self.absorbing})"
        )
