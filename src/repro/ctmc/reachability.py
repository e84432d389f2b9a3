"""Time-bounded reachability in CTMCs.

This is the analysis previous studies of the fault-tolerant workstation
cluster performed (Haverkort et al. [13], PRISM [18]): the probability to
reach a set of goal states ``B`` within ``t`` time units.  Figure 4 of
the paper compares these CTMC probabilities against the worst-case CTMDP
probabilities; the present module regenerates the CTMC side.

The standard reduction applies: transitions leaving ``B`` are irrelevant
for the event "``B`` was visited by time ``t``", so ``B`` is made
absorbing and a transient analysis of the modified chain yields the
reachability probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.core.reachability import _ActiveSet, _computed, _cone, _moves, _sweep
from repro.ctmc.model import CTMC
from repro.ctmc.uniformization import uniformized_jump_matrix
from repro.errors import ModelError
from repro.graph.structure import TransitionGraph
from repro.numerics.foxglynn import fox_glynn
from repro.obs import NumericalCertificate
from repro.states import state_index, state_mask

__all__ = [
    "PreparedCTMCReachability",
    "CTMCReachabilityResult",
    "IntervalReachabilityResult",
    "timed_reachability",
    "timed_reachability_curve",
    "interval_reachability_analysis",
]


@dataclass(frozen=True)
class CTMCReachabilityResult:
    """Timed-reachability probabilities plus their numerical-health certificate.

    ``values[s]`` is the probability from state ``s`` (one on goal
    states, NaN where a one-state solve did not compute it);
    ``iterations`` is the number of backward steps, the Fox-Glynn right
    truncation point (zero for trivial queries).
    """

    values: np.ndarray
    certificate: NumericalCertificate
    iterations: int

    def value(self, state: int) -> float:
        """Probability from ``state``; ``ModelError`` if it was not computed."""
        return _computed(self.values, state)


def timed_reachability(
    ctmc: CTMC,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-10,
    rate: float | None = None,
) -> CTMCReachabilityResult:
    """Probability, per state, to reach ``goal`` within ``t`` time units.

    Implementation: make ``goal`` absorbing, uniformize, and accumulate
    the Poisson-weighted powers of the jump matrix applied backwards to
    the goal indicator.  This mirrors the structure of Algorithm 1 with
    the nondeterministic maximisation removed, which is convenient both
    for code reuse and for the CTMC-as-one-action-CTMDP cross checks in
    the test suite.

    Parameters
    ----------
    ctmc:
        Chain to analyse (need not be uniform).
    goal:
        Goal states, as indices or a boolean mask.
    t:
        Time bound.
    epsilon:
        Poisson truncation error.
    rate:
        Optional uniformization rate override (useful to force the same
        rate as a related CTMDP for comparison plots).

    Returns
    -------
    CTMCReachabilityResult
        Values ``v`` with ``v[s] = Pr(s |= diamond^{<=t} goal)`` (goal
        states have probability one), the certificate and the number of
        backward steps.
    """
    return PreparedCTMCReachability(ctmc, goal, rate=rate).solve(t, epsilon=epsilon)


class PreparedCTMCReachability:
    """Reusable setup for repeated CTMC timed-reachability solves.

    Making the goal absorbing and uniformizing the modified chain do not
    depend on the time bound; this class performs them once so a whole
    time sweep shares the setup.  :func:`timed_reachability` delegates
    here, keeping prepared and one-shot solves bitwise-identical.  The
    backward steps are Algorithm 1's active-set sweep over the jump
    matrix, one row per state; ``state`` narrows it to that state's
    cone, as in :class:`~repro.core.reachability.PreparedTimedReachability`.
    """

    def __init__(
        self,
        ctmc: CTMC,
        goal: Iterable[int] | np.ndarray,
        rate: float | None = None,
        state: int | None = None,
    ) -> None:
        mask = state_mask(ctmc.num_states, goal, "goal state")
        self.ctmc = ctmc
        self.mask = mask
        self.num_states = ctmc.num_states
        self._ready = False
        blocked: np.ndarray | None = None
        self._unknown: np.ndarray | None = None
        if state is not None:
            blocked, self._unknown = _cone(TransitionGraph.from_ctmc(ctmc), state, mask)
        if not _moves(np.diff(ctmc.rates.indptr) > 0, mask, blocked):
            return

        self.p, self.e = uniformized_jump_matrix(_absorbing(ctmc, mask), rate)
        self._active = _ActiveSet.build(
            self.p,
            self.p @ mask.astype(np.float64),
            np.arange(self.num_states + 1),
            mask,
            blocked,
        )
        self._ready = True

    def solve(self, t: float, epsilon: float = 1e-10) -> CTMCReachabilityResult:
        """Reachability probabilities for one time bound, per state."""
        if t < 0.0:
            raise ModelError("time bound must be non-negative")
        if t == 0.0 or not self._ready:
            values = self.mask.astype(np.float64)
            certificate = NumericalCertificate.trivial("ctmc.reachability", epsilon)
            iterations = 0
        else:
            # Algorithm 1 without a choice: every state has one row, so
            # the objective never selects anything.
            sweep = _sweep(
                active=self._active,
                num_states=self.num_states,
                num_transitions=self.num_states,
                goal=self.mask,
                rate=self.e,
                t=t,
                epsilon=epsilon,
                objective="max",
                record_scheduler=False,
                span_name="ctmc.sweep",
                algorithm="ctmc.reachability",
            )
            values, iterations = sweep.values, sweep.iterations
            certificate = sweep.certificate
        if self._unknown is not None:
            values[self._unknown] = np.nan
        return CTMCReachabilityResult(values, certificate, iterations)


def _absorbing(ctmc: CTMC, states: np.ndarray) -> CTMC:
    """``ctmc`` with every transition out of ``states`` removed."""
    rates = ctmc.rates.tolil(copy=True)
    for state in np.flatnonzero(states):
        rates.rows[state] = []
        rates.data[state] = []
    return CTMC(rates=sp.csr_matrix(rates), initial=ctmc.initial)


def timed_reachability_curve(
    ctmc: CTMC,
    goal: Iterable[int] | np.ndarray,
    time_points: Iterable[float],
    epsilon: float = 1e-10,
    rate: float | None = None,
    initial: int | None = None,
) -> np.ndarray:
    """Reachability probabilities from one state for many time bounds.

    Evaluating a whole curve (as needed for Figure 4) with one backward
    run per ``t`` repeats the expensive matrix-vector products; instead
    this routine makes ``goal`` absorbing, computes the *forward* jump
    mass series ``m_k = (pi0 P^k) 1_goal`` once up to the largest
    truncation point, and then evaluates every time bound as the
    Poisson-weighted sum ``sum_k psi(k; E t) m_k``.

    Returns one probability per entry of ``time_points``.
    """
    ts = [float(t) for t in time_points]
    if any(t < 0.0 for t in ts):
        raise ModelError("time bounds must be non-negative")
    n = ctmc.num_states
    mask = state_mask(n, goal, "goal state")
    start = ctmc.initial if initial is None else state_index(n, initial)
    if mask[start]:
        return np.ones(len(ts))
    if not mask.any() or not ts:
        return np.zeros(len(ts))

    p, e = uniformized_jump_matrix(_absorbing(ctmc, mask), rate)

    horizon = fox_glynn(e * max(ts), epsilon).right
    masses = np.empty(horizon + 1)
    vec = np.zeros(n)
    vec[start] = 1.0
    goal_vec = mask.astype(np.float64)
    for k in range(horizon + 1):
        masses[k] = float(vec @ goal_vec)
        if k < horizon:
            vec = vec @ p

    results = np.empty(len(ts))
    for j, t in enumerate(ts):
        if t == 0.0:
            results[j] = 0.0
            continue
        fg = fox_glynn(e * t, epsilon)
        psi = fg.probabilities()
        upper = min(fg.right, horizon)
        window = masses[fg.left : upper + 1]
        results[j] = float(np.dot(psi[: len(window)], window))
    return np.clip(results, 0.0, 1.0)


@dataclass(frozen=True)
class IntervalReachabilityResult:
    """Interval-bounded reachability value plus a composed certificate."""

    value: float
    certificate: NumericalCertificate


def interval_reachability_analysis(
    ctmc: CTMC,
    goal: Iterable[int] | np.ndarray,
    t_start: float,
    t_end: float,
    epsilon: float = 1e-10,
    initial: int | None = None,
) -> IntervalReachabilityResult:
    """Certified probability to visit ``goal`` within ``[t_start, t_end]``.

    The CSL path formula ``F[t1,t2] goal``: visits before ``t_start`` do
    not count (the chain may pass through the goal early and leave
    again).  Standard decomposition: evolve the *unmodified* chain to
    ``t_start``, then ask for reachability within the remaining
    ``t_end - t_start`` from wherever the chain is.

    The answer composes two Poisson-truncated analyses, so its
    certificate composes theirs (algorithm
    ``"ctmc.interval_reachability"``): with transient error ``a`` in
    total variation and reachability sup error ``b``,

        |pi~ . v~  -  pi . v|  <=  a + b + a * b

    since ``pi~ . v~ = (pi + da)(v + db)`` with ``|da|_1 <= a``,
    ``|db|_inf <= b`` and ``|v|_inf <= 1``.  The window/iteration and
    round-off accounting fields are the sums of the components', and
    the admissible budget doubles (each stage was granted ``epsilon``).

    Returns the probability from ``initial`` (default: the chain's
    initial state).
    """
    if t_start < 0.0 or t_end < t_start:
        raise ModelError("need 0 <= t_start <= t_end")
    from repro.ctmc.uniformization import transient_analysis

    n = ctmc.num_states
    start = ctmc.initial if initial is None else state_index(n, initial)
    solver = PreparedCTMCReachability(ctmc, goal)
    pi0 = np.zeros(n)
    pi0[start] = 1.0
    transient = transient_analysis(
        ctmc, t_start, initial_distribution=pi0, epsilon=epsilon
    )
    reach = solver.solve(t_end - t_start, epsilon=epsilon)
    value = float(np.clip(transient.distribution @ reach.values, 0.0, 1.0))
    a = transient.certificate
    b = reach.certificate
    certificate = NumericalCertificate(
        algorithm="ctmc.interval_reachability",
        lam=a.lam + b.lam,
        epsilon=2.0 * float(epsilon),
        left=min(a.left, b.left),
        right=a.right + b.right,
        dropped_mass=a.dropped_mass + b.dropped_mass,
        weight_sum_deficit=a.weight_sum_deficit + b.weight_sum_deficit,
        underflow_count=a.underflow_count + b.underflow_count,
        overflow_count=a.overflow_count + b.overflow_count,
        sweep_residual=a.sweep_residual + b.sweep_residual,
        fp_slack=a.fp_slack + b.fp_slack,
        error_bound=a.error_bound + b.error_bound + a.error_bound * b.error_bound,
    )
    return IntervalReachabilityResult(value=value, certificate=certificate)
