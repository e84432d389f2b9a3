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
is a sparse matrix-vector product followed by a segmented optimum over
each state's contiguous block of transition rows (see
:mod:`repro.core.segments` for the shared segment machinery, including
the objective-aware tie handling of the scheduler extraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.core.segments import (
    SegmentIndex,
    segment_argbest,
    segment_reduce,
    validate_objective,
)
from repro.errors import ModelError, NonUniformError
from repro.numerics.foxglynn import FoxGlynn, fox_glynn
from repro.obs import NumericalCertificate, certificate_from_foxglynn, sweep_span

# The compressed decision store depends on numpy only (never on the core
# solvers), so importing it here cannot cycle; the rest of repro.policy
# *does* import this module and stays behind lazy attributes.
from repro.policy.store import CompressedDecisions, PolicyWriter
from repro.states import state_mask

__all__ = [
    "ReachabilityResult",
    "PreparedTimedReachability",
    "timed_reachability",
    "unbounded_reachability",
    "replay_step_scheduler",
]


@dataclass
class ReachabilityResult:
    """Outcome of a timed-reachability analysis.

    Attributes
    ----------
    values:
        Per-state probabilities; goal states carry probability one.
    iterations:
        Number of backward steps ``k`` (the paper's "# Iterations").
    uniform_rate:
        The uniform rate ``E`` of the analysed model, or ``0.0`` when
        the analysis never needed it (``t = 0`` on an unprepared solver,
        empty goal set).
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
    states_eliminated:
        Number of states the qualitative precomputation removed from
        the numeric sweep (known-zero states clamped, goal states folded
        into a scalar recursion).  Zero without ``precompute=True``.
    """

    values: np.ndarray
    iterations: int
    uniform_rate: float
    time_bound: float
    objective: str
    poisson: FoxGlynn
    decisions: CompressedDecisions | None = None
    certificate: NumericalCertificate | None = None
    states_eliminated: int = 0

    def value(self, state: int) -> float:
        """Probability from ``state``."""
        return float(self.values[state])


class PreparedTimedReachability:
    """Reusable setup for repeated timed-reachability solves on one model.

    The expensive, time-bound-independent part of Algorithm 1 -- the
    row-stochastic ``T x S`` probability matrix, the per-transition
    goal-hitting probabilities and the segment bookkeeping for the
    per-state optimisation -- is computed once in the constructor; each
    :meth:`solve` call then only performs the Fox-Glynn computation for
    its own ``(t, epsilon)`` and the backward iteration.  A whole time
    sweep over one ``(model, goal)`` pair therefore shares a single
    setup, which is what the batched query engine exploits.

    :func:`timed_reachability` delegates to this class, so prepared and
    one-shot solves are bitwise-identical.

    With ``precompute=True`` every :meth:`solve` first runs the
    qualitative graph analysis (:mod:`repro.graph.qualitative`): states
    with a known answer -- the zero set of the requested objective, and
    the goal states whose value follows a scalar recursion -- are
    removed from the numeric sweep, which then runs on the reduced
    sub-matrix of undecided states only.  Answers agree with the
    unclamped sweep within the solver's certified error bound but are
    *not* bitwise identical (the reduced mat-vec accumulates round-off
    in a different order), hence the opt-in default.
    """

    def __init__(
        self,
        ctmdp: CTMDP,
        goal: Iterable[int] | np.ndarray,
        precompute: bool = False,
    ) -> None:
        self.ctmdp = ctmdp
        self.mask = state_mask(ctmdp.num_states, goal, "goal state")
        self.num_states = ctmdp.num_states
        self.precompute = bool(precompute)
        self._zero_cache: dict[str, tuple[np.ndarray, np.ndarray | None]] = {}
        self._ready = False
        if not self.mask.any():
            return
        rate = ctmdp.uniform_rate()  # raises NonUniformError when violated
        if rate <= 0.0:
            raise NonUniformError("uniform rate must be strictly positive for analysis")
        self.rate = rate
        self.prob = ctmdp.probability_matrix()  # T x S, row-stochastic
        self.goal_vec = self.mask.astype(np.float64)
        self.prob_to_goal = self.prob @ self.goal_vec  # Pr_R(s, B) per row

        # Segment bookkeeping for the per-state optimisation: transitions
        # are sorted by source, so each state's rows are contiguous.
        # States without transitions keep value 0 (they cannot reach B).
        self.segments = SegmentIndex.from_choice_ptr(ctmdp.choice_ptr)
        self.goal_idx = np.flatnonzero(self.mask)
        self._ready = True

    def _trivial_result(self, t: float, epsilon: float, objective: str) -> ReachabilityResult:
        """The ``t = 0`` / empty-goal answer: the goal indicator itself.

        Uniformity is irrelevant here (no time passes, or there is
        nothing to reach), so the model's rate is *not* recomputed --
        querying a trivially-zero property on a non-uniform model must
        not raise.  The prepared rate is reported when available.
        """
        return ReachabilityResult(
            values=self.mask.astype(np.float64),
            iterations=0,
            uniform_rate=self.rate if self._ready else 0.0,
            time_bound=t,
            objective=objective,
            poisson=fox_glynn(0.0, min(epsilon, 0.5)),
            certificate=NumericalCertificate.trivial("ctmdp.reachability", epsilon),
        )

    def _zero_info(self, objective: str) -> tuple[np.ndarray, np.ndarray | None]:
        """The known-zero states of ``objective`` (cached per objective).

        For ``max`` these are the Prob0A states (no path to the goal at
        all); for ``min`` the Prob0E states, together with the witness
        choice (per state, the local index of a transition whose whole
        support stays inside the zero region) that a recorded scheduler
        must carry so that replaying it reproduces the zero.
        """
        cached = self._zero_cache.get(objective)
        if cached is not None:
            return cached
        from repro.graph.qualitative import prob0_exists, prob0_forall
        from repro.graph.structure import TransitionGraph

        graph = TransitionGraph.from_ctmdp(self.ctmdp)
        if objective == "max":
            info: tuple[np.ndarray, np.ndarray | None] = (
                prob0_forall(graph, self.mask),
                None,
            )
        else:
            zero, witness = prob0_exists(graph, self.mask, with_witness=True)
            info = (zero, witness)
        self._zero_cache[objective] = info
        return info

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
            return self._trivial_result(t, epsilon, objective)

        if self.precompute:
            zero, witness = self._zero_info(objective)
            return _clamped_sweep(
                prob=self.prob,
                prob_to_goal=self.prob_to_goal,
                choice_ptr=np.asarray(self.ctmdp.choice_ptr),
                num_states=self.num_states,
                mask=self.mask,
                zero=zero,
                witness=witness,
                rate=self.rate,
                t=t,
                epsilon=epsilon,
                objective=objective,
                record_scheduler=record_scheduler,
                span_name="reachability.sweep",
                algorithm="ctmdp.reachability",
            )

        return _sweep(
            prob=self.prob,
            prob_to_goal=self.prob_to_goal,
            segments=self.segments,
            num_states=self.num_states,
            num_transitions=self.ctmdp.num_transitions,
            goal_idx=self.goal_idx,
            rate=self.rate,
            t=t,
            epsilon=epsilon,
            objective=objective,
            record_scheduler=record_scheduler,
            span_name="reachability.sweep",
            algorithm="ctmdp.reachability",
        )


def _sweep(
    *,
    prob,
    prob_to_goal: np.ndarray,
    segments: SegmentIndex,
    num_states: int,
    num_transitions: int,
    goal_idx: np.ndarray,
    rate: float,
    t: float,
    epsilon: float,
    objective: str,
    record_scheduler: bool,
    span_name: str,
    algorithm: str,
    blocked: np.ndarray | None = None,
) -> ReachabilityResult:
    """Algorithm 1's backward sweep over every state.

    Shared by timed reachability (``blocked=None``) and timed until,
    whose ``blocked`` states (neither safe nor goal) are pinned to zero
    after every step: a path entering one has violated the formula.
    """
    fg = fox_glynn(rate * t, epsilon)
    psi = fg.probabilities()
    k = fg.right
    nonempty = segments.nonempty

    writer: PolicyWriter | None = None
    decision_row: np.ndarray | None = None
    if record_scheduler:
        # The sweep runs backwards (row k-1 is produced first), so the
        # writer stores rows in arrival order and flags the orientation
        # instead of buffering the whole table.
        writer = PolicyWriter(num_states=num_states, reverse_rows=True)
        decision_row = np.full(num_states, -1, dtype=np.int32)

    with sweep_span(
        span_name,
        t=t,
        objective=objective,
        states=num_states,
        transitions=num_transitions,
        iterations=k,
        lam=rate * t,
    ) as steps:
        record_steps = steps.enabled
        q = np.zeros(num_states)
        for i in range(k, 0, -1):
            step_started = perf_counter() if record_steps else 0.0
            psi_i = psi[i - fg.left] if i >= fg.left else 0.0
            transition_values = psi_i * prob_to_goal + prob @ q
            best = segment_reduce(transition_values, segments, objective)
            new_q = np.zeros(num_states)
            new_q[nonempty] = best
            new_q[goal_idx] = psi_i + q[goal_idx]
            if blocked is not None:
                new_q[blocked] = 0.0
            if writer is not None:
                # First transition attaining the optimum within each
                # segment, with the tie tolerance on the side that
                # matches the objective (cf. segment_argbest).
                decision_row[nonempty] = segment_argbest(
                    transition_values, best, segments, objective
                ).astype(np.int32)
                writer.append(decision_row)
            q = new_q
            if record_steps:
                steps.record(perf_counter() - step_started)

    values = q.copy()
    values[goal_idx] = 1.0
    if blocked is not None:
        values[blocked] = 0.0
    residual = max(0.0, float(values.max()) - 1.0, -float(values.min()))
    np.clip(values, 0.0, 1.0, out=values)

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


def _clamped_sweep(
    *,
    prob,
    prob_to_goal: np.ndarray,
    choice_ptr: np.ndarray,
    num_states: int,
    mask: np.ndarray,
    zero: np.ndarray,
    witness: np.ndarray | None,
    rate: float,
    t: float,
    epsilon: float,
    objective: str,
    record_scheduler: bool,
    span_name: str,
    algorithm: str,
) -> ReachabilityResult:
    """Backward sweep restricted to the qualitatively undecided states.

    Shared by timed reachability and timed until under
    ``precompute=True``.  Three state classes leave the numeric sweep:

    * ``zero`` states (the Prob0 set of the requested objective,
      including blocked until-states) are clamped to 0 -- sound for the
      *timed* objective because membership means the timed probability
      is exactly 0 for every horizon;
    * goal states follow the scalar recursion ``g_i = psi_i + g_{i+1}``
      shared by all of them, so their matrix rows and columns fold into
      ``(psi_i + g_{i+1}) * prob_to_goal``;
    * only the remaining *active* states are iterated, over the reduced
      ``active-rows x active-states`` sub-matrix.

    Recorded schedulers stay replayable: clamped min-states carry their
    zero-witness choice (a transition whose support stays inside the
    zero region), so the induced-chain validation reproduces the zero.
    """
    fg = fox_glynn(rate * t, epsilon)
    psi = fg.probabilities()
    k = fg.right

    active = ~mask & ~zero
    active_idx = np.flatnonzero(active)
    goal_idx = np.flatnonzero(mask)
    states_eliminated = num_states - len(active_idx)

    # Decision template for the eliminated states: min-zero states get
    # their witness transition, everything else the -1 "no choice"
    # marker (any choice of a max-zero state yields 0, goal states are
    # pinned by every replay).
    template = np.full(num_states, -1, dtype=np.int32)
    if witness is not None:
        chosen = witness >= 0
        template[chosen] = witness[chosen].astype(np.int32)

    writer: PolicyWriter | None = None
    if record_scheduler:
        writer = PolicyWriter(num_states=num_states, reverse_rows=True)

    def _finish(
        q_active: np.ndarray, g_total: float
    ) -> ReachabilityResult:
        values = np.zeros(num_states)
        values[active_idx] = q_active
        values[goal_idx] = 1.0
        residual = max(
            0.0,
            float(values.max()) - 1.0,
            -float(values.min()),
            g_total - 1.0,
        )
        np.clip(values, 0.0, 1.0, out=values)
        return ReachabilityResult(
            values=values,
            iterations=k,
            uniform_rate=rate,
            time_bound=t,
            objective=objective,
            poisson=fg,
            decisions=writer.finish() if writer is not None else None,
            certificate=certificate_from_foxglynn(
                fg,
                epsilon,
                algorithm,
                sweep_residual=residual,
                states_eliminated=states_eliminated,
            ),
            states_eliminated=states_eliminated,
        )

    if len(active_idx) == 0:
        # Every state is decided; only the constant decisions remain.
        if writer is not None:
            for _ in range(k):
                writer.append(template)
        return _finish(np.empty(0), float(np.sum(psi)))

    counts_all = np.diff(choice_ptr)
    row_sources = np.repeat(np.arange(num_states), counts_all)
    active_rows = np.flatnonzero(active[row_sources])
    segments = SegmentIndex.from_choice_ptr(
        np.concatenate(([0], np.cumsum(counts_all[active_idx])))
    )
    sub = prob[active_rows]
    prob_aa = sub[:, active_idx].tocsr()
    prob_to_goal_active = prob_to_goal[active_rows]
    record_states = active_idx[segments.nonempty]

    with sweep_span(
        span_name,
        t=t,
        objective=objective,
        states=num_states,
        active=len(active_idx),
        iterations=k,
        lam=rate * t,
        precompute=True,
    ) as steps:
        record_steps = steps.enabled
        q = np.zeros(len(active_idx))
        g = 0.0  # the shared goal-state value g_{i+1}
        for i in range(k, 0, -1):
            step_started = perf_counter() if record_steps else 0.0
            psi_i = psi[i - fg.left] if i >= fg.left else 0.0
            transition_values = (psi_i + g) * prob_to_goal_active + prob_aa @ q
            best = segment_reduce(transition_values, segments, objective)
            new_q = np.zeros(len(active_idx))
            new_q[segments.nonempty] = best
            if writer is not None:
                decision_row = template.copy()
                decision_row[record_states] = segment_argbest(
                    transition_values, best, segments, objective
                ).astype(np.int32)
                writer.append(decision_row)
            q = new_q
            g = psi_i + g
            if record_steps:
                steps.record(perf_counter() - step_started)

    return _finish(q, g)


def timed_reachability(
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    t: float,
    epsilon: float = 1e-6,
    objective: str = "max",
    record_scheduler: bool = False,
    precompute: bool = False,
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
    precompute:
        If true, clamp the qualitative zero set and fold the goal states
        into a scalar recursion before iterating; the sweep then covers
        only the undecided states.  Values agree with the unclamped
        sweep within the certified error bound (not bitwise), and the
        result reports ``states_eliminated``.

    Returns
    -------
    ReachabilityResult
    """
    return PreparedTimedReachability(ctmdp, goal, precompute=precompute).solve(
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
        return ReachabilityResult(
            values=prepared.mask.astype(np.float64),
            iterations=0,
            uniform_rate=prepared.rate if prepared._ready else 0.0,
            time_bound=t,
            objective="replay",
            poisson=fox_glynn(0.0, min(epsilon, 0.5)),
            certificate=NumericalCertificate.trivial("ctmdp.replay", epsilon),
        )
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

    fg = fox_glynn(prepared.rate * t, epsilon)
    psi = fg.probabilities()
    segments = prepared.segments
    nonempty_states = np.flatnonzero(segments.nonempty)
    goal_idx = prepared.goal_idx
    prob = prepared.prob
    prob_to_goal = prepared.prob_to_goal

    q = np.zeros(ctmdp.num_states)
    rows_iter = iter(_replay_rows(decisions, fg.right))
    for i in range(fg.right, 0, -1):
        psi_i = psi[i - fg.left] if i >= fg.left else 0.0
        transition_values = psi_i * prob_to_goal + prob @ q
        decision_row = next(rows_iter)
        choice = np.clip(decision_row[nonempty_states], 0, segments.counts - 1)
        rows = segments.starts + choice
        new_q = np.zeros(ctmdp.num_states)
        new_q[segments.nonempty] = transition_values[rows]
        new_q[goal_idx] = psi_i + q[goal_idx]
        if blocked is not None:
            new_q[blocked] = 0.0
        q = new_q

    values = q.copy()
    values[goal_idx] = 1.0
    if blocked is not None:
        values[blocked] = 0.0
    residual = max(0.0, float(values.max()) - 1.0, -float(values.min()))
    np.clip(values, 0.0, 1.0, out=values)
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
    precompute: bool = False,
) -> np.ndarray:
    """(Time-)unbounded reachability probabilities via value iteration.

    The continuous-time dynamics are irrelevant for the event "``B`` is
    ever reached", so this is plain value iteration on the embedded
    DTMDP.  Used for sanity checks (timed probabilities must converge to
    these values as ``t`` grows) and as a general-purpose utility.

    With ``precompute=True`` both qualitative sets of the objective are
    clamped before iterating -- unlike the timed solvers, the *one* set
    is sound here (``Pmax = 1`` / ``Pmin = 1`` membership is exactly the
    unbounded value), which removes the slowest-converging states from
    the iteration entirely.
    """
    validate_objective(objective)
    mask = state_mask(ctmdp.num_states, goal, "goal state")
    if not mask.any():
        return np.zeros(ctmdp.num_states)

    zero: np.ndarray | None = None
    one: np.ndarray | None = None
    if precompute:
        from repro.graph.qualitative import (
            prob0_exists,
            prob0_forall,
            prob1_exists,
            prob1_forall,
        )
        from repro.graph.structure import TransitionGraph

        graph = TransitionGraph.from_ctmdp(ctmdp)
        if objective == "max":
            zero = prob0_forall(graph, mask)
            one = prob1_exists(graph, mask)
        else:
            zero = np.asarray(prob0_exists(graph, mask))
            one = prob1_forall(graph, mask)

    prob = ctmdp.probability_matrix()
    segments = SegmentIndex.from_choice_ptr(ctmdp.choice_ptr)

    with sweep_span(
        "vi.sweep", objective=objective, states=ctmdp.num_states, kind="unbounded"
    ) as steps:
        record_steps = steps.enabled
        q = mask.astype(np.float64)
        if one is not None:
            q[one] = 1.0
        for _ in range(max_iterations):
            step_started = perf_counter() if record_steps else 0.0
            transition_values = prob @ q
            new_q = np.zeros(ctmdp.num_states)
            new_q[segments.nonempty] = segment_reduce(transition_values, segments, objective)
            new_q[mask] = 1.0
            if one is not None:
                new_q[one] = 1.0
            if zero is not None:
                new_q[zero] = 0.0
            if record_steps:
                steps.record(perf_counter() - step_started)
            if np.max(np.abs(new_q - q)) < tol:
                return new_q
            q = new_q
    return q
