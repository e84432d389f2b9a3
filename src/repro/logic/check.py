"""Query evaluation: dispatch parsed queries to the analysis engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.core.expected_time import expected_time_analysis
from repro.core.reachability import (
    ReachabilityResult,
    timed_reachability,
    unbounded_reachability,
)
from repro.core.until import timed_until as ctmdp_timed_until
from repro.ctmc.hitting import expected_hitting_time
from repro.ctmc.model import CTMC
from repro.ctmc.reachability import timed_reachability as ctmc_timed_reachability
from repro.ctmc.until import timed_until as ctmc_timed_until
from repro.ctmc.uniformization import steady_state_analysis
from repro.errors import ModelError
from repro.logic.formulas import (
    Atom,
    Comparison,
    ExpectedTimeQuery,
    Objective,
    ProbabilityQuery,
    Query,
    Reach,
    SteadyStateQuery,
    Until,
)
from repro.logic.parser import parse_query
from repro.obs import NumericalCertificate

__all__ = ["CheckResult", "check"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a query evaluation at one state.

    ``value`` is the computed quantity; ``satisfied`` is the verdict for
    threshold queries and ``None`` for ``=?`` queries; ``certificate``
    is the numerical-health certificate of the underlying solve
    (composite analyses such as interval reachability compose their
    stages' certificates); ``solver_result`` carries the full
    :class:`~repro.core.reachability.ReachabilityResult` when the query
    ran a time-bounded CTMDP solve -- with ``record_scheduler=True``
    this is where the extracted decisions live, ready to be wrapped
    into a :class:`~repro.policy.artifact.PolicyArtifact`.
    """

    query: Query
    value: float
    satisfied: bool | None
    certificate: NumericalCertificate | None = None
    solver_result: ReachabilityResult | None = None

    def __str__(self) -> str:
        verdict = "" if self.satisfied is None else f"  [{self.satisfied}]"
        return f"{self.query} = {self.value:.10g}{verdict}"


def _resolve(atom: Atom, labels: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    if atom.is_true:
        return np.ones(n, dtype=bool)
    if atom.label not in labels:
        raise ModelError(
            f"unknown label {atom.label!r}; available: {sorted(labels) or 'none'}"
        )
    mask = np.asarray(labels[atom.label], dtype=bool)
    if mask.shape != (n,):
        raise ModelError(f"label {atom.label!r} must cover all {n} states")
    return mask


def _verdict(comparison: Comparison, threshold: float | None, value: float) -> bool | None:
    if comparison is Comparison.QUERY:
        return None
    assert threshold is not None
    return value >= threshold if comparison is Comparison.AT_LEAST else value <= threshold


def _probability(
    query: ProbabilityQuery,
    model: CTMDP | CTMC,
    labels: Mapping[str, np.ndarray],
    state: int,
    epsilon: float,
    record_scheduler: bool = False,
) -> tuple[float, NumericalCertificate | None, ReachabilityResult | None]:
    """The queried probability, the solve's certificate, and -- for
    time-bounded CTMDP solves -- the full result object (carrying the
    recorded scheduler when ``record_scheduler`` is set)."""
    is_ctmdp = isinstance(model, CTMDP)
    if is_ctmdp and query.objective is Objective.NONE:
        raise ModelError("CTMDP queries need a scheduler quantifier (Pmax/Pmin)")
    if not is_ctmdp and query.objective is not Objective.NONE:
        raise ModelError("CTMC queries take plain P (no scheduler quantifier)")

    n = model.num_states
    path = query.path
    if isinstance(path, Reach):
        goal = _resolve(path.goal, labels, n)
        if isinstance(path.bound, tuple):
            if is_ctmdp:
                raise ModelError(
                    "interval-bounded reachability is supported for CTMCs only"
                )
            from repro.ctmc.reachability import interval_reachability_analysis

            # Composite of a transient analysis and a reachability solve;
            # the certificate composes the two stages' certificates.
            interval = interval_reachability_analysis(
                model, goal, path.bound[0], path.bound[1], epsilon=epsilon,
                initial=state,
            )
            return interval.value, interval.certificate, None
        if path.bound is None:
            if is_ctmdp:
                values = unbounded_reachability(model, goal, objective=query.objective.value)
            else:
                # Unbounded reachability on a CTMC: the embedded jump chain
                # decides it; reuse the CTMDP machinery on a wrapped model.
                values = _ctmc_unbounded(model, goal)
            return float(values[state]), None, None
        if is_ctmdp:
            result = timed_reachability(
                model, goal, path.bound, epsilon=epsilon,
                objective=query.objective.value, record_scheduler=record_scheduler,
            )
            return result.value(state), result.certificate, result
        reach = ctmc_timed_reachability(model, goal, path.bound, epsilon=epsilon)
        return float(reach.values[state]), reach.certificate, None

    assert isinstance(path, Until)
    safe = _resolve(path.safe, labels, n)
    goal = _resolve(path.goal, labels, n)
    if path.bound is None:
        raise ModelError("unbounded until is not supported; use F for plain reachability")
    if is_ctmdp:
        result = ctmdp_timed_until(
            model, safe, goal, path.bound, epsilon=epsilon,
            objective=query.objective.value, record_scheduler=record_scheduler,
        )
        return result.value(state), result.certificate, result
    until = ctmc_timed_until(model, safe, goal, path.bound, epsilon=epsilon)
    return float(until.values[state]), until.certificate, None


def _ctmc_unbounded(ctmc: CTMC, goal: np.ndarray) -> np.ndarray:
    transitions = []
    for s in range(ctmc.num_states):
        rates = {dst: rate for dst, rate in ctmc.successors(s)}
        if rates:
            transitions.append((s, "only", rates))
    wrapped = CTMDP.from_transitions(ctmc.num_states, transitions, initial=ctmc.initial)
    return unbounded_reachability(wrapped, goal, objective="max")


def check(
    query: Query | str,
    model: CTMDP | CTMC,
    labels: Mapping[str, np.ndarray] | None = None,
    state: int | None = None,
    epsilon: float = 1e-6,
    record_scheduler: bool = False,
) -> CheckResult:
    """Evaluate ``query`` on ``model`` at ``state``.

    Parameters
    ----------
    query:
        A parsed :class:`~repro.logic.formulas.Query` or its textual
        form (parsed on the fly).
    model:
        A (uniform) CTMDP or a CTMC; the query's scheduler quantifier
        must match the model kind.
    labels:
        Maps label names to boolean state masks.
    state:
        The state to report (defaults to the model's initial state).
    epsilon:
        Numerical precision for the time-bounded engines.
    record_scheduler:
        Record the optimal scheduler during time-bounded CTMDP solves
        (streamed into a compressed store); it is returned on
        ``CheckResult.solver_result.decisions``.
    """
    if isinstance(query, str):
        query = parse_query(query)
    labels = labels or {}
    state = model.initial if state is None else state
    if not 0 <= state < model.num_states:
        raise ModelError(f"state {state} out of range")

    if isinstance(query, ProbabilityQuery):
        value, certificate, solver_result = _probability(
            query, model, labels, state, epsilon,
            record_scheduler=record_scheduler,
        )
        return CheckResult(
            query=query,
            value=value,
            satisfied=_verdict(query.comparison, query.threshold, value),
            certificate=certificate,
            solver_result=solver_result,
        )

    if isinstance(query, SteadyStateQuery):
        if not isinstance(model, CTMC):
            raise ModelError("steady-state queries apply to CTMCs only")
        mask = _resolve(query.atom, labels, model.num_states)
        steady = steady_state_analysis(model)
        value = float(steady.distribution @ mask.astype(float))
        return CheckResult(
            query=query,
            value=value,
            satisfied=_verdict(query.comparison, query.threshold, value),
            certificate=steady.certificate,
        )

    assert isinstance(query, ExpectedTimeQuery)
    certificate = None
    if isinstance(model, CTMDP):
        if query.objective is Objective.NONE:
            raise ModelError("CTMDP expected-time queries need Tmax/Tmin")
        goal = _resolve(query.goal, labels, model.num_states)
        analysis = expected_time_analysis(model, goal, objective=query.objective.value)
        value = float(analysis.values[state])
        certificate = analysis.certificate
    else:
        if query.objective is not Objective.NONE:
            raise ModelError("CTMC expected-time queries take plain T")
        goal = _resolve(query.goal, labels, model.num_states)
        value = float(expected_hitting_time(model, goal)[state])
    return CheckResult(query=query, value=value, satisfied=None, certificate=certificate)
