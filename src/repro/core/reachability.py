"""Timed reachability in uniform CTMDPs (Algorithm 1 of the paper).

Computes, for every state ``s`` of a uniform CTMDP with rate ``E``, the
maximal (or minimal) probability

    sup_D Pr_D(s, diamond^{<= t} B)

to reach the goal set ``B`` within ``t`` time units, ranging over all
randomized time-abstract history-dependent schedulers.  This is the
algorithm of Baier, Haverkort, Hermanns and Katoen (TCS 345(1), 2005),
in the mild variation of the paper that ranges over all emanating
*transitions* of a state rather than all actions (several transitions
may share an action label after the uIMC transformation).

The recursion runs backwards over the Poisson-truncated step horizon
``k = k(epsilon, E, t)`` (the Fox-Glynn right truncation point):

    q_{k+1}(s) = 0
    q_i(s)     = max over (s, a, R) of
                   psi(i) * Pr_R(s, B) + sum_{s'} Pr_R(s, s') * q_{i+1}(s')
                                                      for s not in B,
    q_i(s)     = psi(i) + q_{i+1}(s)                  for s in B,

and finally ``q(s) = q_1(s)`` for ``s`` outside ``B`` and ``1`` inside.
The greedy per-step maximisation is optimal precisely because the model
is uniform -- the number of jumps within ``t`` is Poisson distributed
independently of the scheduler -- which is the reason the whole
"uniformity by construction" trajectory exists.

Implementation notes (cf. Section 4.2): the rate matrix is stored as a
``T x S`` sparse matrix with one row per transition; one backward step
is a sparse matrix-vector product followed by an optimum over each
state's contiguous block of transition rows (see
:mod:`repro.core.segments` for the shared segment machinery, including
the objective-aware tie handling of the scheduler extraction).  Only the
rows of the *active* states -- outside ``B``, with at least one
transition -- are multiplied: the goal states share the scalar value
``g_i = psi(i) + g_{i+1}``, and every other state stays 0.  The active
rows are sliced out once per prepared model with their entries in
stored order, and ``Pr_R(s, B)`` rides along as the last entry of each
row, in a column that carries ``psi(i)``.  A step is then a handful of
in-place kernel calls -- one zero fill, one CSR product, one ``maximum``
(or ``minimum``) per choice column of each narrow choice-count block,
one ``reduceat`` over the states with many choices, one copy and one
fill -- that perform exactly the floating-point operations of the
full-row recursion on the rows they keep (see :class:`_ActiveSet`).

A solver prepared for one start ``state`` narrows the active set to that
state's *cone*: the non-goal states it reaches through non-goal states
that can also reach the goal.  Every other non-goal successor of a cone
state cannot reach the goal, so its value is an exact zero at every
step, and the start state's value is bitwise that of the full sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from repro.core.ctmdp import CTMDP
from repro.core.segments import (
    SegmentIndex,
    segment_argbest,
    segment_reduce,
    validate_objective,
)
from repro.errors import ConvergenceError, ModelError, NonUniformError
from repro.graph.structure import TransitionGraph
from repro.numerics.foxglynn import FoxGlynn, fox_glynn
from repro.obs import NumericalCertificate, certificate_from_foxglynn, sweep_span

# The compressed decision store depends on numpy only (never on the core
# solvers), so importing it here cannot cycle; the rest of repro.policy
# *does* import this module and stays behind lazy attributes.
from repro.policy.store import CompressedDecisions, PolicyWriter
from repro.states import state_index, state_mask

__all__ = [
    "ReachabilityResult",
    "PreparedTimedReachability",
    "timed_reachability",
    "unbounded_reachability",
    "replay_step_scheduler",
]

#: Widest choice-count block whose optimum the sweep takes column by
#: column.  Each column costs one ufunc call, about 0.5 us plus under
#: 1 ns per state, while ``reduceat`` costs about 2 us plus 30 ns per
#: state, so a chain of ``c - 1`` calls wins for the FTWC's 2- and
#: 3-choice blocks at any N, and one ``reduceat`` over the rows of all
#: wider states wins for the job-scheduling model's 6- to 56-choice
#: ones (widths 3 and 4 tie there).
_CHAIN_WIDTH = 4


@dataclass
class ReachabilityResult:
    """Outcome of a timed-reachability analysis.

    Attributes
    ----------
    values:
        Per-state probabilities; goal states carry probability one.  A
        solve prepared for one start state leaves every state outside
        its cone, the goal and the start itself at NaN.
    iterations:
        Number of backward steps ``k`` (the paper's "# Iterations").
    uniform_rate:
        The uniform rate ``E`` of the analysed model, or ``0.0`` when
        the analysis never needed it (``t = 0`` on an unprepared solver,
        empty goal set, no transition outside the goal).
    time_bound:
        The analysed time bound ``t``.
    objective:
        ``"max"`` or ``"min"``.
    poisson:
        The Fox-Glynn data used for the Poisson weights.
    decisions:
        Optional step-indexed optimal scheduler: ``decisions[i - 1][s]``
        is the index (within ``transitions_of(s)``) chosen at step ``i``,
        or ``-1`` where no choice exists.  Only recorded on request, as
        a row-indexable :class:`~repro.policy.store.CompressedDecisions`
        store.
    certificate:
        The numerical-health certificate of this solve: truncation
        accounting, sweep residual and the certified a-posteriori error
        bound (see :mod:`repro.obs.certificate`).
    """

    values: np.ndarray
    iterations: int
    uniform_rate: float
    time_bound: float
    objective: str
    poisson: FoxGlynn
    decisions: CompressedDecisions | None = None
    certificate: NumericalCertificate | None = None

    def value(self, state: int) -> float:
        """Probability from ``state``; ``ModelError`` if it was not computed."""
        return _computed(self.values, state)


def _computed(values: np.ndarray, state: int) -> float:
    value = float(values[state])
    if np.isnan(value):
        raise ModelError(f"state {state} lies outside the cone this solve computed")
    return value


def _cone(
    graph: TransitionGraph, state: int, goal: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(blocked, unknown)`` of a solve that reads only ``state``: all
    but its cone is blocked, and all but the cone, the goal and
    ``state`` itself is left uncomputed."""
    start = state_index(graph.num_states, state, "start state")
    cone = np.zeros(graph.num_states, dtype=bool)
    if not goal[start]:
        forward = graph.reachable_from(start, through=~goal)
        cone = graph.backward_reachable(goal, through=forward) & ~goal
    unknown = ~(cone | goal)
    unknown[start] = False
    return ~cone, unknown


def _moves(
    has_transitions: np.ndarray, goal: np.ndarray, blocked: np.ndarray | None
) -> bool:
    """Whether a sweep has anything to do: a nonempty goal and a state
    outside the goal and ``blocked`` with a transition.  Otherwise the
    goal and the blocked states are absorbing, nothing else moves, and
    the goal indicator is the answer whatever the rates."""
    movable = has_transitions & ~goal
    if blocked is not None:
        movable &= ~blocked
    return bool(goal.any() and movable.any())


@dataclass(frozen=True)
class _ActiveSet:
    """The states one backward sweep iterates, laid out for the step.

    Built once per model, goal and blocked set in ``O(nnz)``, and never
    changed after: the engine shares one per model and goal.  The active
    states -- not goal, not blocked, with at least one transition -- are
    ordered by choice count, most choices first and single-choice states
    last, stable within a count.  The rows of the ``m`` states with ``c``
    choices then form one contiguous ``m x c`` block.  For ``c`` up to
    ``_CHAIN_WIDTH`` its optimum is ``c - 1`` elementwise ``maximum``
    (or ``minimum``) calls over its columns; the states with more
    choices are a prefix of ``states``, and one ``reduceat`` over their
    rows takes all their optima at once.  Every single-choice state
    copies its one row.  A maximum is exact, so this is bitwise a
    per-state ``reduceat``, and each state's rows stay contiguous and
    in order for the scheduler extraction.

    ``matrix`` holds the active transition rows, sliced out of the
    ``T x S`` matrix with every row's entries in stored order, and its
    columns index a value vector laid out as

        [ active states (in ``states`` order) | referenced goal states | psi ]

    Every row with ``Pr_R(s, B) > 0`` carries that probability as its
    last stored entry, in the ``psi`` column, which holds ``psi(i)`` at
    step ``i``.  The CSR kernel sums a row in stored order from a zeroed
    output slot, so a row's value is ``(sum of its other products) +
    Pr_R(s, B) * psi(i)``: the same two operands the full-row recursion
    adds, in the other order, and IEEE addition is commutative.  So one
    step is the same sequence of floating-point operations as a full-row
    step on exactly the rows it keeps.  Rows with ``Pr_R(s, B) = 0`` get
    no entry, and columns of inactive non-goal states are dropped: their
    terms are ``+0.0`` at every step, and adding ``+0.0`` to a
    non-negative partial sum changes no bit.
    """

    #: Original state index per active state, most choices first.
    states: np.ndarray
    #: Number of multi-choice states (a prefix of ``states``).
    num_multi: int
    #: Number of states with more than ``_CHAIN_WIDTH`` choices (a
    #: prefix of ``states``), whose optima one ``reduceat`` takes.
    num_wide: int
    #: Segments of the multi-choice states over the rows of ``matrix``.
    multi: SegmentIndex
    #: Local ``choice_ptr`` over ``states``: their rows in ``matrix``.
    row_ptr: np.ndarray
    #: ``(choices, first, stop)`` per run of states with the same choice
    #: count from 2 to ``_CHAIN_WIDTH``: ``states[first:stop]``.
    blocks: tuple[tuple[int, int, int], ...]
    matrix: sp.csr_matrix
    #: Decision row of every state the sweep does not optimise: ``0``
    #: (the first transition) where a state has transitions, ``-1``
    #: where it has none.
    template: np.ndarray

    @classmethod
    def build(
        cls,
        prob: sp.csr_matrix,
        prob_to_goal: np.ndarray,
        choice_ptr: np.ndarray,
        goal: np.ndarray,
        blocked: np.ndarray | None = None,
    ) -> "_ActiveSet":
        choice_ptr = np.asarray(choice_ptr)
        counts = np.diff(choice_ptr)
        candidate = ~goal & (counts > 0)
        if blocked is not None:
            candidate &= ~blocked
        candidates = np.flatnonzero(candidate)
        states = candidates[np.argsort(-counts[candidates], kind="stable")]
        num_active = len(states)
        row_counts = counts[states]
        num_multi = int(np.count_nonzero(row_counts > 1))
        row_ptr = np.concatenate(([0], np.cumsum(row_counts)))
        rows = np.repeat(choice_ptr[states] - row_ptr[:-1], row_counts) + np.arange(
            row_ptr[-1]
        )
        sub = prob[rows]  # row slicing keeps each row's entries in order

        referenced = np.zeros(len(goal), dtype=bool)
        referenced[sub.indices] = True
        goal_columns = np.flatnonzero(referenced & goal)
        psi_column = num_active + len(goal_columns)
        column = np.full(len(goal), -1, dtype=sub.indices.dtype)
        column[states] = np.arange(num_active)
        column[goal_columns] = num_active + np.arange(len(goal_columns))
        mapped = column[sub.indices]
        keep = mapped >= 0
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        # Pr_R(s, B) > 0 goes in after a row's last kept entry.
        to_goal = prob_to_goal[rows]
        hits = to_goal > 0.0
        row_ends = kept_before[sub.indptr[1:]][hits]
        matrix = sp.csr_matrix(
            (
                np.insert(sub.data[keep], row_ends, to_goal[hits]),
                np.insert(mapped[keep], row_ends, psi_column),
                kept_before[sub.indptr] + np.concatenate(([0], np.cumsum(hits))),
            ),
            shape=(len(rows), psi_column + 1),
        )

        # The states wider than _CHAIN_WIDTH lead; after them, a block
        # starts where the (descending) choice count changes.
        num_wide = int(np.count_nonzero(row_counts > _CHAIN_WIDTH))
        narrow = row_counts[num_wide:num_multi]
        firsts = num_wide + np.flatnonzero(np.diff(narrow, prepend=0))
        stops = np.append(firsts[1:], num_multi)
        return cls(
            states=states,
            num_multi=num_multi,
            num_wide=num_wide,
            multi=SegmentIndex.from_choice_ptr(row_ptr[: num_multi + 1]),
            row_ptr=row_ptr,
            blocks=tuple(
                (int(row_counts[first]), int(first), int(stop))
                for first, stop in zip(firsts, stops)
            ),
            matrix=matrix,
            template=np.where(counts > 0, 0, -1).astype(np.int32),
        )

    def best_calls(
        self, transition_values: np.ndarray, q: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(a, b, out)`` per elementwise optimum one step makes: views
        of ``transition_values`` (the rows of ``matrix``) and of ``q``
        over which ``best(a, b, out=out)`` in order leaves the optimum of
        every state with 2 to ``_CHAIN_WIDTH`` choices in its slot of
        ``q``."""
        calls = []
        for choices, first, stop in self.blocks:
            start = int(self.row_ptr[first])
            columns = transition_values[start : start + (stop - first) * choices].reshape(
                stop - first, choices
            )
            out = q[first:stop]
            calls.append((columns[:, 0], columns[:, 1], out))
            calls.extend((out, columns[:, j], out) for j in range(2, choices))
        return calls

    def values(self, q: np.ndarray, goal: np.ndarray) -> tuple[np.ndarray, float]:
        """Per-state values of a finished sweep over ``q`` (goal states
        1, inactive states 0), clipped to ``[0, 1]``, and the largest
        excursion outside ``[0, 1]`` before the clip."""
        values = np.zeros(len(goal))
        values[self.states] = q[: len(self.states)]
        values[goal] = 1.0
        residual = max(0.0, float(values.max()) - 1.0, -float(values.min()))
        np.clip(values, 0.0, 1.0, out=values)
        return values, residual


class PreparedTimedReachability:
    """Reusable setup for repeated timed-reachability solves on one model.

    The expensive, time-bound-independent part of Algorithm 1 -- the
    row-stochastic ``T x S`` probability matrix, the per-transition
    goal-hitting probabilities and the active set the backward sweep
    iterates (the non-goal states with transitions, their rows sliced
    out once) -- is computed once in the constructor; each
    :meth:`solve` call then only performs the Fox-Glynn computation for
    its own ``(t, epsilon)`` and the backward iteration.  A whole time
    sweep over one ``(model, goal)`` pair therefore shares a single
    setup, which is what the batched query engine exploits.

    :func:`timed_reachability` delegates to this class, so prepared and
    one-shot solves are bitwise-identical.  Both objectives share the
    one active set.

    With ``state`` only that state's cone is swept (see the module
    notes); a start in the goal, or one that cannot reach it, needs no
    sweep at all, and neither does a model in which no state outside
    the goal has a transition.
    """

    def __init__(
        self, ctmdp: CTMDP, goal: Iterable[int] | np.ndarray, state: int | None = None
    ) -> None:
        self.ctmdp = ctmdp
        self.mask = state_mask(ctmdp.num_states, goal, "goal state")
        self.num_states = ctmdp.num_states
        self.rate = 0.0
        self._ready = False
        blocked: np.ndarray | None = None
        self._unknown: np.ndarray | None = None
        if state is not None:
            blocked, self._unknown = _cone(TransitionGraph.from_ctmdp(ctmdp), state, self.mask)
        if not _moves(np.diff(ctmdp.choice_ptr) > 0, self.mask, blocked):
            return
        rate = ctmdp.uniform_rate()  # raises NonUniformError when violated
        if rate <= 0.0:
            raise NonUniformError("uniform rate must be strictly positive for analysis")
        self.rate = rate
        self.prob = ctmdp.probability_matrix()  # T x S, row-stochastic
        self.prob_to_goal = self.prob @ self.mask.astype(np.float64)  # Pr_R(s, B)
        self._active = _ActiveSet.build(
            self.prob, self.prob_to_goal, ctmdp.choice_ptr, self.mask, blocked
        )
        self._ready = True

    def _trivial_result(
        self, t: float, epsilon: float, objective: str, algorithm: str = "ctmdp.reachability"
    ) -> ReachabilityResult:
        """The answer of ``t = 0`` or of a model where nothing moves (empty
        goal, empty cone, no transition outside the goal): the goal
        indicator.

        Uniformity is irrelevant here (no time passes, or there is
        nothing to reach), so the model's rate is *not* recomputed --
        querying a trivially-zero property on a non-uniform model must
        not raise.  The prepared rate is reported when available.
        """
        return ReachabilityResult(
            values=self.mask.astype(np.float64),
            iterations=0,
            uniform_rate=self.rate,
            time_bound=t,
            objective=objective,
            poisson=fox_glynn(0.0, min(epsilon, 0.5)),
            certificate=NumericalCertificate.trivial(algorithm, epsilon),
        )

    def solve(
        self,
        t: float,
        epsilon: float = 1e-6,
        objective: str = "max",
        record_scheduler: bool = False,
    ) -> ReachabilityResult:
        """Solve one time bound against the prepared model/goal pair.

        With ``record_scheduler`` the optimal step scheduler is recorded
        as the sweep runs: each decision row streams into a
        run-length/delta store, so the dense ``iterations x states``
        matrix is never materialised.
        """
        validate_objective(objective)
        if t < 0.0:
            raise ModelError("time bound must be non-negative")

        if t == 0.0 or not self._ready:
            result = self._trivial_result(t, epsilon, objective)
        else:
            result = _sweep(
                active=self._active,
                num_states=self.num_states,
                num_transitions=self.ctmdp.num_transitions,
                goal=self.mask,
                rate=self.rate,
                t=t,
                epsilon=epsilon,
                objective=objective,
                record_scheduler=record_scheduler,
                span_name="reachability.sweep",
                algorithm="ctmdp.reachability",
            )
        if self._unknown is not None:
            result.values[self._unknown] = np.nan
        return result


def _sweep(
    *,
    active: _ActiveSet,
    num_states: int,
    num_transitions: int,
    goal: np.ndarray,
    rate: float,
    t: float,
    epsilon: float,
    objective: str,
    record_scheduler: bool,
    span_name: str,
    algorithm: str,
) -> ReachabilityResult:
    """Algorithm 1's backward sweep over the active states.

    Shared by timed reachability and timed until.  Every goal state
    starts at 0 and follows ``g <- psi_i + g``, so one scalar carries
    all of them; every other state outside ``active`` (no transition,
    or blocked) is 0 at every step.  Recorded decisions take the
    argbest at the multi-choice active states and ``active.template``
    everywhere else.
    """
    fg = fox_glynn(rate * t, epsilon)
    psi, left = fg.probabilities().tolist(), fg.left
    k = fg.right
    num_active = len(active.states)
    num_multi = active.num_multi
    multi_rows = int(active.row_ptr[num_multi])
    multi_states = active.states[:num_multi]

    writer: PolicyWriter | None = None
    decision_row = active.template.copy()
    if record_scheduler:
        # The sweep runs backwards (row k-1 is produced first), so the
        # writer stores rows in arrival order and flags the orientation
        # instead of buffering the whole table.
        writer = PolicyWriter(num_states=num_states, reverse_rows=True)

    with sweep_span(
        span_name,
        t=t,
        objective=objective,
        states=num_states,
        transitions=num_transitions,
        active=num_active,
        iterations=k,
        lam=rate * t,
    ) as steps:
        record_steps = steps.enabled
        n_rows, n_cols = active.matrix.shape
        indptr, indices, data = active.matrix.indptr, active.matrix.indices, active.matrix.data
        q = np.zeros(n_cols)  # [active states | goal block | psi]
        transition_values = np.empty(n_rows)
        best = np.maximum if objective == "max" else np.minimum
        num_wide = active.num_wide
        wide_rows = transition_values[: active.row_ptr[num_wide]]
        wide_starts, wide = active.multi.starts[:num_wide], q[:num_wide]
        best_calls = active.best_calls(transition_values, q)
        single = q[num_multi:num_active]
        single_rows = transition_values[multi_rows:]
        goal_block = q[num_active:-1]
        g = 0.0
        for i in range(k, 0, -1):
            step_started = perf_counter() if record_steps else 0.0
            psi_i = psi[i - left] if i >= left else 0.0
            transition_values.fill(0.0)
            q[-1] = psi_i
            csr_matvec(n_rows, n_cols, indptr, indices, data, q, transition_values)
            if num_wide:
                best.reduceat(wide_rows, wide_starts, out=wide)
            for a, b, out in best_calls:
                best(a, b, out=out)
            single[:] = single_rows
            g = psi_i + g
            goal_block.fill(g)
            if writer is not None:
                # First transition attaining the optimum within each
                # segment, with the tie tolerance on the side that
                # matches the objective (cf. segment_argbest).
                decision_row[multi_states] = segment_argbest(
                    transition_values[:multi_rows], q[:num_multi], active.multi, objective
                )
                writer.append(decision_row)
            if record_steps:
                steps.record(perf_counter() - step_started)

    values, residual = active.values(q, goal)
    return ReachabilityResult(
        values=values,
        iterations=k,
        uniform_rate=rate,
        time_bound=t,
        objective=objective,
        poisson=fg,
        decisions=writer.finish() if writer is not None else None,
        certificate=certificate_from_foxglynn(
            fg, epsilon, algorithm, sweep_residual=residual
        ),
    )


def timed_reachability(
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-6,
    objective: str = "max",
    record_scheduler: bool = False,
) -> ReachabilityResult:
    """Run Algorithm 1 on a uniform CTMDP.

    Parameters
    ----------
    ctmdp:
        The model; must be uniform (:class:`~repro.errors.NonUniformError`
        otherwise -- the greedy recursion is unsound on non-uniform
        models).  Trivially-answerable queries (empty goal set) are
        exempt: uniformity is irrelevant to their answer.
    goal:
        Goal set ``B`` as indices or boolean mask over states.
    t:
        Time bound (hours in the FTWC study).
    epsilon:
        Poisson truncation error; the paper's experiments use ``1e-6``.
    objective:
        ``"max"`` for worst-case (sup over schedulers), ``"min"`` for
        best-case (inf).
    record_scheduler:
        If true, record the optimising transition per state and step,
        streamed into a :class:`~repro.policy.store.CompressedDecisions`
        store during the sweep.

    Returns
    -------
    ReachabilityResult
    """
    return PreparedTimedReachability(ctmdp, goal).solve(
        t,
        epsilon=epsilon,
        objective=objective,
        record_scheduler=record_scheduler,
    )


def _replay_rows(
    decisions: np.ndarray | CompressedDecisions, right: int
) -> Iterable[np.ndarray]:
    """Decision rows for backward indices ``i = right .. 1``.

    Backward step ``i`` reads logical row ``min(i - 1, steps - 1)``:
    steps beyond the recorded horizon reuse the last row.  For a
    :class:`CompressedDecisions` store this walks
    :meth:`~CompressedDecisions.iter_rows_reversed` -- each delta is
    decoded exactly once and the dense table is never materialised
    (for the backward-written stores of ``record_scheduler=True`` the
    reversed logical order *is* the physical order).
    """
    steps = len(decisions)
    if isinstance(decisions, CompressedDecisions):
        source = decisions.iter_rows_reversed()
        row = next(source)
        for _ in range(steps - right):
            row = next(source)  # recorded horizon longer: top rows unused
        for _ in range(max(0, right - steps)):
            yield row  # beyond the horizon: hold the last recorded row
        yield row
        for row in source:
            yield row
    else:
        for i in range(right, 0, -1):
            yield decisions[min(i - 1, steps - 1)]


def replay_step_scheduler(
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    t: float,
    decisions: np.ndarray | CompressedDecisions,
    epsilon: float = 1e-6,
    safe: Iterable[int] | np.ndarray | None = None,
) -> ReachabilityResult:
    """Exact per-state value of a recorded step scheduler, certified.

    Replays the Poisson-weighted backward recursion of Algorithm 1 with
    the optimisation replaced by the *fixed* choices of ``decisions``
    (what a ``record_scheduler=True`` solve produces: row ``i - 1``
    holds the per-state transition index used at backward step ``i``).
    Steps beyond the recorded horizon reuse the last row and ``-1``
    entries (states without a recorded choice) fall back to the first
    transition, matching :class:`~repro.core.scheduler.StepScheduler`.
    With ``safe`` the replay computes the until value ``safe U^{<=t}
    goal`` under the fixed scheduler (states outside ``safe + goal``
    are blocked at zero), mirroring :func:`repro.core.until.timed_until`.

    Compressed stores are replayed *streaming* -- rows are decoded in
    the sweep's own backward order, so replay memory matches extraction
    memory.  The result carries ``objective="replay"`` (no optimisation
    happened) and a :class:`~repro.obs.NumericalCertificate` with
    algorithm ``"ctmdp.replay"``; induced-chain validation
    (:mod:`repro.policy.validate`) consumes both.
    """
    if t < 0.0:
        raise ModelError("time bound must be non-negative")
    prepared = PreparedTimedReachability(ctmdp, goal)
    blocked: np.ndarray | None = None
    if safe is not None:
        blocked = ~(state_mask(ctmdp.num_states, safe, "safe state") | prepared.mask)
    if t == 0.0 or not prepared._ready:
        return prepared._trivial_result(t, epsilon, "replay", "ctmdp.replay")
    if not isinstance(decisions, CompressedDecisions):
        decisions = np.asarray(decisions)
        if decisions.ndim != 2 or decisions.shape[1] != ctmdp.num_states:
            raise ModelError(
                f"decisions must have shape (steps, {ctmdp.num_states}), "
                f"got {decisions.shape}"
            )
    elif decisions.num_states != ctmdp.num_states:
        raise ModelError(
            f"decisions cover {decisions.num_states} states, "
            f"model has {ctmdp.num_states}"
        )
    if len(decisions) == 0:
        raise ModelError("decisions must record at least one step")

    # Goal and blocked states are pinned whatever the decisions say, so
    # only the active rows are computed; each active state then takes
    # the value of its chosen row.
    if blocked is None:
        active = prepared._active
    else:
        active = _ActiveSet.build(
            prepared.prob, prepared.prob_to_goal, ctmdp.choice_ptr, prepared.mask, blocked
        )
    num_active = len(active.states)
    starts = active.row_ptr[:-1]
    last_choice = np.diff(active.row_ptr) - 1
    n_rows, n_cols = active.matrix.shape
    indptr, indices, data = active.matrix.indptr, active.matrix.indices, active.matrix.data

    fg = fox_glynn(prepared.rate * t, epsilon)
    psi, left = fg.probabilities().tolist(), fg.left
    q = np.zeros(n_cols)  # [active states | goal block | psi]
    transition_values = np.empty(n_rows)
    goal_block = q[num_active:-1]
    g = 0.0
    rows_iter = iter(_replay_rows(decisions, fg.right))
    for i in range(fg.right, 0, -1):
        psi_i = psi[i - left] if i >= left else 0.0
        transition_values.fill(0.0)
        q[-1] = psi_i
        csr_matvec(n_rows, n_cols, indptr, indices, data, q, transition_values)
        decision_row = next(rows_iter)
        choice = np.clip(decision_row[active.states], 0, last_choice)
        q[:num_active] = transition_values[starts + choice]
        g = psi_i + g
        goal_block.fill(g)

    values, residual = active.values(q, prepared.mask)
    return ReachabilityResult(
        values=values,
        iterations=fg.right,
        uniform_rate=prepared.rate,
        time_bound=t,
        objective="replay",
        poisson=fg,
        certificate=certificate_from_foxglynn(
            fg, epsilon, "ctmdp.replay", sweep_residual=residual
        ),
    )


def unbounded_reachability(
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    objective: str = "max",
    tol: float = 1e-12,
    max_iterations: int = 1_000_000,
) -> np.ndarray:
    """(Time-)unbounded reachability probabilities via value iteration.

    The continuous-time dynamics are irrelevant for the event "``B`` is
    ever reached", so this is value iteration on the embedded DTMDP.
    Used for sanity checks (timed probabilities must converge to these
    values as ``t`` grows) and by ``repro check`` for ``F`` queries
    without a time bound.

    The objective's qualitative sets (:mod:`repro.graph.qualitative`)
    are pinned before iterating: Prob0A and Prob1E for ``max``, Prob0E
    and Prob1A for ``min``.  Membership decides the unbounded value
    exactly, and the one-set is where plain value iteration crawls: on
    the FTWC every state is Prob1E, yet plain iteration ends its
    1,000,000-step budget 0.8% short of 1 at N=2.

    Raises :class:`~repro.errors.ConvergenceError` when ``max_iterations``
    steps leave the largest per-state change at or above ``tol``.
    """
    from repro.graph.qualitative import (
        prob0_exists,
        prob0_forall,
        prob1_exists,
        prob1_forall,
    )
    from repro.graph.structure import TransitionGraph

    validate_objective(objective)
    mask = state_mask(ctmdp.num_states, goal, "goal state")
    if not mask.any():
        return np.zeros(ctmdp.num_states)

    graph = TransitionGraph.from_ctmdp(ctmdp)
    if objective == "max":
        zero, one = prob0_forall(graph, mask), prob1_exists(graph, mask)
    else:
        zero, one = prob0_exists(graph, mask), prob1_forall(graph, mask)

    prob = ctmdp.probability_matrix()
    segments = SegmentIndex.from_choice_ptr(ctmdp.choice_ptr)

    with sweep_span(
        "vi.sweep", objective=objective, states=ctmdp.num_states, kind="unbounded"
    ) as steps:
        record_steps = steps.enabled
        q = one.astype(np.float64)  # the one-set contains the goal
        delta = np.inf
        for _ in range(max_iterations):
            step_started = perf_counter() if record_steps else 0.0
            transition_values = prob @ q
            new_q = np.zeros(ctmdp.num_states)
            new_q[segments.nonempty] = segment_reduce(transition_values, segments, objective)
            new_q[one] = 1.0
            new_q[zero] = 0.0
            if record_steps:
                steps.record(perf_counter() - step_started)
            delta = float(np.max(np.abs(new_q - q)))
            if delta < tol:
                return new_q
            q = new_q
    raise ConvergenceError(
        f"value iteration did not converge within {max_iterations} iterations "
        f"(last delta {delta:.3g}, tol {tol:g})"
    )
