"""Induced-chain validation of stored policy artifacts.

A stored scheduler is only trustworthy if fixing it on the model
reproduces the value it was extracted with: resolving the uCTMDP's
nondeterminism with the artifact's decisions induces a Markov chain
whose transient analysis must hit the reported sup/inf probability
within the certified error budget.  :func:`validate_artifact` performs
that check and answers with a :class:`ValidationReport` carrying a
:class:`~repro.obs.certificate.NumericalCertificate`.

Two replay routes are used:

* the *step route* (always): :func:`repro.core.reachability.replay_step_scheduler`
  re-runs the Poisson-weighted backward recursion with the stored
  choices -- the analytic transient analysis of the induced
  (time-inhomogeneous) chain, streamed straight off the compressed
  store;
* the *stationary route* (when every recorded row is identical): the
  scheduler is memoryless, so :meth:`repro.core.ctmdp.CTMDP.induced_ctmc`
  yields an honest CTMC and an independent
  :class:`~repro.ctmc.reachability.PreparedCTMCReachability` solve
  cross-checks the step route through entirely different code.

The induced-chain certificate reuses the standard slots so the standard
``healthy`` predicate applies unchanged: the observed deviation
``|replayed - reported|`` is stored in ``dropped_mass`` and the
admissible tolerance (query ε plus the extraction and replay error
bounds) in ``epsilon`` -- ``healthy`` therefore means exactly
"deviation within tolerance".  ``error_bound`` is the deviation plus
the replay's own certified bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.core.reachability import replay_step_scheduler
from repro.errors import ModelError
from repro.obs.certificate import NumericalCertificate, record_certificate
from repro.policy.artifact import PolicyArtifact
from repro.states import state_index, state_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricStore

__all__ = ["ValidationReport", "validate_artifact"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one induced-chain validation.

    Attributes
    ----------
    artifact_key / model_key / objective / t / epsilon:
        Provenance echoed from the artifact.
    reported_value:
        The probability recorded at extraction time.
    replayed_value:
        The probability the induced chain's transient analysis produced
        (at the validated ``initial`` state).
    deviation:
        ``|replayed_value - reported_value|``.
    tolerance:
        The admissible deviation: the query ε plus the certified error
        bounds of the extraction and of the replay.
    certificate:
        Induced-chain certificate (algorithm ``"policy.induced_chain"``;
        slot reuse documented in the module docstring).
    stationary:
        Whether the stored scheduler is memoryless.
    cross_check:
        For stationary schedulers: the independent CTMC route's value,
        deviation and certificate dict; ``None`` otherwise.
    replay_seconds:
        Wall time of the step-route replay (throughput accounting).
    """

    artifact_key: str
    model_key: str
    objective: str
    t: float
    epsilon: float
    initial: int
    reported_value: float
    replayed_value: float
    deviation: float
    tolerance: float
    certificate: NumericalCertificate
    stationary: bool
    cross_check: dict[str, Any] | None
    replay_seconds: float

    @property
    def ok(self) -> bool:
        """True iff the replay reproduced the reported value in budget."""
        return self.certificate.healthy and (
            self.cross_check is None or bool(self.cross_check["ok"])
        )

    def as_dict(self) -> dict[str, Any]:
        record = {
            "artifact_key": self.artifact_key,
            "model_key": self.model_key,
            "objective": self.objective,
            "t": self.t,
            "epsilon": self.epsilon,
            "initial": self.initial,
            "reported_value": self.reported_value,
            "replayed_value": self.replayed_value,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "stationary": self.stationary,
            "ok": self.ok,
            "certificate": self.certificate.as_dict(),
            "replay_seconds": self.replay_seconds,
        }
        if self.cross_check is not None:
            record["cross_check"] = self.cross_check
        return record

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        return (
            f"induced-chain {verdict}: reported={self.reported_value:.12f} "
            f"replayed={self.replayed_value:.12f} deviation={self.deviation:.3e} "
            f"tolerance={self.tolerance:.3e}"
            + (" (stationary, CTMC cross-checked)" if self.cross_check else "")
        )


def _induced_chain_certificate(
    replay_certificate: NumericalCertificate,
    deviation: float,
    tolerance: float,
) -> NumericalCertificate:
    """Fold a replay certificate and the observed deviation into one.

    Slot reuse (see module docstring): ``dropped_mass`` carries the
    deviation and ``epsilon`` the tolerance, so the inherited
    ``healthy`` predicate reads "no overflow, deviation <= tolerance,
    finite bound".
    """
    return NumericalCertificate(
        algorithm="policy.induced_chain",
        lam=replay_certificate.lam,
        epsilon=float(tolerance),
        left=replay_certificate.left,
        right=replay_certificate.right,
        dropped_mass=float(deviation),
        weight_sum_deficit=replay_certificate.weight_sum_deficit,
        underflow_count=replay_certificate.underflow_count,
        overflow_count=replay_certificate.overflow_count,
        sweep_residual=replay_certificate.sweep_residual,
        fp_slack=replay_certificate.fp_slack,
        error_bound=float(deviation) + replay_certificate.error_bound,
    )


def _stationary_cross_check(
    ctmdp: CTMDP,
    goal: np.ndarray,
    artifact: PolicyArtifact,
    initial: int,
    tolerance: float,
) -> dict[str, Any]:
    """Independent CTMC route for a memoryless policy.

    Fixing the (identical) first decision row on the model yields an
    honest CTMC; its prepared reachability solve must agree with the
    reported value through entirely different code than the step replay.
    """
    from repro.ctmc.reachability import PreparedCTMCReachability

    choices = np.maximum(artifact.decisions.row(0), 0)
    chain = ctmdp.induced_ctmc(choices)
    result = PreparedCTMCReachability(chain, goal).solve(
        artifact.t, epsilon=min(artifact.epsilon, 1e-10)
    )
    value = float(result.values[initial])
    deviation = abs(value - artifact.value)
    bound = result.certificate.error_bound
    return {
        "value": value,
        "deviation": deviation,
        "tolerance": tolerance + bound,
        "ok": bool(deviation <= tolerance + bound),
        "certificate": result.certificate.as_dict(),
    }


def validate_artifact(
    artifact: PolicyArtifact,
    ctmdp: CTMDP,
    goal: Iterable[int] | np.ndarray,
    initial: int | None = None,
    safe: Iterable[int] | np.ndarray | None = None,
    metrics: "MetricStore | None" = None,
) -> ValidationReport:
    """Validate ``artifact`` against the model it claims to solve.

    Parameters
    ----------
    artifact:
        The stored policy (typically ``registry.load_policy(key)``).
    ctmdp:
        The uniform CTMDP the artifact's ``model_key`` names.  The
        caller resolves the key through the registry; this function
        checks state-space compatibility but cannot re-derive the model
        from the hash.
    goal:
        Goal set the value was computed for.
    initial:
        State whose value is compared (default: the artifact's
        ``initial`` metadata, falling back to ``ctmdp.initial``).
    safe:
        Optional safe set for until-extracted policies.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricStore`; receives the
        validation counters, the deviation gauge, the replay-throughput
        gauge and the induced-chain certificate.
    """
    if artifact.decisions.num_states != ctmdp.num_states:
        raise ModelError(
            f"policy covers {artifact.decisions.num_states} states, "
            f"model has {ctmdp.num_states}"
        )
    if initial is None:
        initial = int(artifact.meta.get("initial", ctmdp.initial))
    initial = state_index(ctmdp.num_states, initial)

    started = time.perf_counter()
    replayed = replay_step_scheduler(
        ctmdp, goal, artifact.t, artifact.decisions,
        epsilon=artifact.epsilon, safe=safe,
    )
    replay_seconds = time.perf_counter() - started

    replay_certificate = replayed.certificate
    assert replay_certificate is not None
    replayed_value = float(replayed.values[initial])
    deviation = abs(replayed_value - artifact.value)
    stored_bound = (
        artifact.certificate.error_bound if artifact.certificate is not None else 0.0
    )
    if not math.isfinite(stored_bound):  # a degraded extraction buys no slack
        stored_bound = 0.0
    tolerance = artifact.epsilon + stored_bound + replay_certificate.error_bound

    certificate = _induced_chain_certificate(replay_certificate, deviation, tolerance)

    stationary = artifact.decisions.is_stationary and len(artifact.decisions) > 0
    cross_check = None
    if stationary and safe is None:
        cross_check = _stationary_cross_check(
            ctmdp, state_mask(ctmdp.num_states, goal, "goal state"), artifact,
            initial, tolerance,
        )

    if metrics is not None:
        metrics.count("policy_validations")
        if not certificate.healthy:
            metrics.count("policy_validations_failed")
        metrics.gauge("policy_last_deviation", deviation)
        metrics.gauge("policy_deviation_max", deviation)
        if replay_seconds > 0.0:
            throughput = (replayed.iterations * ctmdp.num_states) / replay_seconds
            metrics.gauge("policy_replay_rows_per_second", throughput / ctmdp.num_states)
            metrics.gauge("policy_replay_cells_per_second", throughput)
        metrics.add_time("policy_replay_seconds", replay_seconds)
        record_certificate(metrics, certificate)

    return ValidationReport(
        artifact_key=artifact.key,
        model_key=artifact.model_key,
        objective=artifact.objective,
        t=artifact.t,
        epsilon=artifact.epsilon,
        initial=initial,
        reported_value=artifact.value,
        replayed_value=replayed_value,
        deviation=deviation,
        tolerance=tolerance,
        certificate=certificate,
        stationary=stationary,
        cross_check=cross_check,
        replay_seconds=replay_seconds,
    )
