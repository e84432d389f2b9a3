"""Expected time to reach a goal set in a uniform CTMDP.

A natural companion to timed reachability: instead of the probability of
hitting ``B`` within ``t``, the optimal *expected hitting time*.  For a
uniform CTMDP every sojourn has mean ``1/E`` regardless of the chosen
transition, so the problem is a total-expected-reward MDP on the
embedded jump chain with step reward ``1/E``:

    v(s) = 0                                   for s in B,
    v(s) = opt over (s, a, R) of 1/E + sum_{s'} Pr_R(s, s') v(s').

Finiteness: a scheduler that misses ``B`` with positive probability has
infinite expected time, so

* ``sup_D E[T]``  is finite at ``s`` iff *every* scheduler reaches ``B``
  almost surely from ``s`` (the minimal unbounded reachability
  probability is one);
* ``inf_D E[T]``  is finite iff *some* scheduler does (the maximal
  probability is one; for finite CTMDPs the supremum is attained by a
  memoryless scheduler).

States violating the respective condition are reported as ``inf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.errors import ModelError, NonUniformError
from repro.graph.qualitative import prob1_exists, prob1_forall
from repro.graph.structure import TransitionGraph
from repro.obs import NumericalCertificate, iterative_certificate
from repro.states import state_mask

__all__ = [
    "ExpectedTimeResult",
    "expected_time_analysis",
]


@dataclass(frozen=True)
class ExpectedTimeResult:
    """Expected-time values plus their numerical-health certificate."""

    values: np.ndarray
    certificate: NumericalCertificate


def _proper_initial_policy(
    ctmdp: CTMDP, mask: np.ndarray, finite: np.ndarray
) -> np.ndarray:
    """A policy guaranteed to reach the goal almost surely from every
    finite state: the Prob1E certificate -- per state, a transition that
    keeps all mass inside the finite set and makes progress towards the
    goal (following these witnesses, the distance-to-goal layer index
    strictly decreases with positive probability at every step)."""
    matrix = ctmdp.rate_matrix
    policy = np.zeros(ctmdp.num_states, dtype=np.int64)
    settled = mask.copy()
    changed = True
    while changed:
        changed = False
        for state in np.flatnonzero(finite & ~settled):
            lo, hi = ctmdp.choice_ptr[state], ctmdp.choice_ptr[state + 1]
            for row in range(lo, hi):
                start, end = matrix.indptr[row], matrix.indptr[row + 1]
                targets = matrix.indices[start:end]
                if all(finite[int(t)] for t in targets) and any(
                    settled[int(t)] for t in targets
                ):
                    policy[state] = row - lo
                    settled[state] = True
                    changed = True
                    break
    return policy


def expected_time_analysis(
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    objective: str = "min",
    max_policy_iterations: int = 10_000,
    tolerance: float = 1e-9,
) -> ExpectedTimeResult:
    """Optimal expected time, per state, until ``goal`` is first hit.

    Solved by *policy iteration*: policies are evaluated exactly through
    a sparse linear solve of ``(I - P_policy) v = 1/E`` on the finite
    non-goal states, then improved greedily; for positive step costs and
    a proper initial policy this terminates in finitely many steps with
    the exact optimum (no value-iteration convergence tail).

    The certificate (algorithm ``"ctmdp.expected_time"``, via
    :func:`repro.obs.iterative_certificate`) records the a-posteriori
    Bellman residual of the returned values over the finite solve
    states, scaled by the largest finite value -- at a true policy-
    iteration fixed point this is floating-point noise, and a residual
    above ``tolerance`` (e.g. the ``max_policy_iterations`` safety bound
    tripping first) marks the certificate degraded.

    Parameters
    ----------
    ctmdp:
        A uniform CTMDP.
    goal:
        The goal set; its states have expected time zero.
    objective:
        ``"min"`` (best-case hitting time) or ``"max"`` (worst case).
    max_policy_iterations:
        Safety bound; policy iteration terminates far earlier.
    tolerance:
        Admissible scaled Bellman residual for a healthy certificate.

    Returns
    -------
    ExpectedTimeResult
        Expected times (``inf`` where the respective finiteness
        condition fails, see module docstring) plus the certificate.
    """
    if objective not in ("max", "min"):
        raise ModelError(f"objective must be 'max' or 'min', got {objective!r}")
    mask = state_mask(ctmdp.num_states, goal, "goal state")
    n = ctmdp.num_states
    if not mask.any():
        return ExpectedTimeResult(
            values=np.full(n, np.inf),
            certificate=iterative_certificate(
                "ctmdp.expected_time", epsilon=tolerance, residual=0.0, iterations=0
            ),
        )

    rate = ctmdp.uniform_rate()
    if rate <= 0.0:
        raise NonUniformError("uniform rate must be strictly positive")
    step = 1.0 / rate

    # Finiteness (decided qualitatively, on the graph): max E[T] is
    # finite iff *every* scheduler reaches B almost surely, min E[T] iff
    # *some* scheduler does (Prob1A / Prob1E).
    graph = TransitionGraph.from_ctmdp(ctmdp)
    if objective == "max":
        finite = prob1_forall(graph, mask) | mask
    else:
        finite = prob1_exists(graph, mask) | mask

    import scipy.sparse as sp
    import scipy.sparse.linalg

    prob = ctmdp.probability_matrix()
    counts = np.diff(ctmdp.choice_ptr)
    nonempty = counts > 0

    # Unknowns: finite, non-goal states with at least one transition.
    solve_states = np.flatnonzero(finite & ~mask & nonempty)
    if len(solve_states) == 0:
        v = np.full(n, np.inf)
        v[mask] = 0.0
        return ExpectedTimeResult(
            values=v,
            certificate=iterative_certificate(
                "ctmdp.expected_time", epsilon=tolerance, residual=0.0, iterations=0
            ),
        )
    position = -np.ones(n, dtype=np.int64)
    position[solve_states] = np.arange(len(solve_states))

    # Transitions touching infinite states can never be part of a finite
    # policy and are excluded from improvement.
    infinite_vec = (~finite).astype(np.float64)
    touches_infinite = np.asarray(prob @ infinite_vec).ravel() > 0.0

    def _bellman_residual(v: np.ndarray, iterations: int) -> "NumericalCertificate":
        """Certificate from the a-posteriori Bellman defect at ``v``."""
        finite_v = np.where(np.isfinite(v), v, 0.0)
        values = step + np.asarray(prob @ finite_v).ravel()
        values[touches_infinite] = np.inf
        worst = 0.0
        for state in solve_states:
            lo, hi = ctmdp.choice_ptr[state], ctmdp.choice_ptr[state + 1]
            candidates = values[lo:hi]
            if objective == "max":
                usable = np.where(np.isfinite(candidates), candidates, -np.inf)
                best = float(usable.max())
            else:
                best = float(candidates.min())
            worst = max(worst, abs(float(v[state]) - best))
        finite_vals = v[np.isfinite(v)]
        scale = max(1.0, float(np.abs(finite_vals).max()) if len(finite_vals) else 1.0)
        return iterative_certificate(
            "ctmdp.expected_time",
            epsilon=tolerance,
            residual=worst / scale,
            iterations=iterations,
            # Goal states and the qualitatively-infinite states never
            # enter the linear solves.
            states_eliminated=n - len(solve_states),
        )

    policy = _proper_initial_policy(ctmdp, mask, finite)

    v = np.full(n, np.inf)
    v[mask] = 0.0
    for iteration in range(max_policy_iterations):
        # --- Evaluate the current policy exactly. ---------------------
        rows = ctmdp.choice_ptr[solve_states] + policy[solve_states]
        p_policy = prob[rows]  # len(solve) x n
        p_ff = p_policy[:, solve_states]
        identity = sp.identity(len(solve_states), format="csr")
        solution = scipy.sparse.linalg.spsolve(
            sp.csr_matrix(identity - p_ff), np.full(len(solve_states), step)
        )
        v = np.full(n, np.inf)
        v[mask] = 0.0
        v[solve_states] = np.atleast_1d(solution)

        # --- Greedy improvement. --------------------------------------
        # Transitions touching infinite states are unusable: for "min"
        # the optimum avoids them (a finite alternative exists by the
        # witness policy); for "max" they cannot occur from finite
        # states at all (a transition into a sometimes-avoiding state
        # would make the source sometimes-avoiding too).
        finite_v = np.where(np.isfinite(v), v, 0.0)
        values = step + np.asarray(prob @ finite_v).ravel()
        values[touches_infinite] = np.inf
        improved = False
        for state in solve_states:
            lo, hi = ctmdp.choice_ptr[state], ctmdp.choice_ptr[state + 1]
            candidates = values[lo:hi]
            if objective == "max":
                usable = np.where(np.isfinite(candidates), candidates, -np.inf)
                best = int(np.argmax(usable))
                better = candidates[best] > candidates[policy[state]] + 1e-12
            else:
                best = int(np.argmin(candidates))
                better = candidates[best] < candidates[policy[state]] - 1e-12
            if better:
                policy[state] = best
                improved = True
        if not improved:
            return ExpectedTimeResult(
                values=v, certificate=_bellman_residual(v, iteration + 1)
            )
    return ExpectedTimeResult(
        values=v, certificate=_bellman_residual(v, max_policy_iterations)
    )
