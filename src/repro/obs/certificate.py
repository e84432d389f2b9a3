"""Numerical-health certificates for Poisson-truncated analyses.

Algorithm 1 (and every uniformization-based transient analysis in this
repository) answers with an *approximation*: the infinite Poisson series
is truncated to the Fox-Glynn window ``[left, right]``, the retained
weights are renormalised, and the backward sweep accumulates ~10^2..10^5
floating-point matrix-vector products.  The a-priori analysis of Baier,
Haverkort, Hermanns and Katoen (TCS 345(1), 2005) bounds the truncation
error by the ``epsilon`` handed to Fox-Glynn -- but an operator serving
answers wants the *a-posteriori* account: how much Poisson mass was
actually dropped, whether any weight under- or overflowed, how far the
sweep drifted out of ``[0, 1]`` before clipping, and the error bound all
of that implies.

:class:`NumericalCertificate` is that machine-readable account.  One is
attached to every timed-reachability, until and transient result, is
folded into the engine's :class:`~repro.obs.metrics.MetricStore` as
gauges/histograms (:func:`record_certificate`), surfaced in ``repro
batch`` JSON output and ``repro check``, and drives the ``/healthz``
verdict of the HTTP telemetry server (:func:`health_summary`).

The certified bound decomposes as

    error_bound = 2 * dropped_mass + weight_sum_deficit
                  + sweep_residual + fp_slack

where ``dropped_mass`` is the *exact* Poisson mass outside the window
(not the a-priori ``epsilon``; the window finders over-cover, so this
is usually orders of magnitude smaller), the factor two covers both the
truncated tail (the computed value under-approximates) and the
renormalisation overshoot (retained weights are scaled up by
``1 / (1 - dropped_mass)``), ``weight_sum_deficit`` is the round-off
distance of the normalised weights from one, ``sweep_residual`` is the
largest out-of-``[0, 1]`` excursion the sweep produced before clipping,
and ``fp_slack`` charges a machine epsilon per retained Poisson index
for the accumulated matrix-vector round-off.  Tests validate the bound
against brute-force reference solutions on the FTWC family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.obs.tracer import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.numerics.foxglynn import FoxGlynn
    from repro.obs.metrics import MetricStore

__all__ = [
    "NumericalCertificate",
    "certificate_from_foxglynn",
    "health_summary",
    "iterative_certificate",
    "poisson_tail_mass",
    "record_certificate",
]

#: Per-retained-index machine-epsilon charge for the backward sweep's
#: accumulated round-off (each step is one sparse matvec plus a few
#: vector operations on values in ``[0, 1]``).
_FP_PER_STEP = 16.0 * float(np.finfo(np.float64).eps)


def poisson_tail_mass(lam: float, left: int, right: int) -> float:
    """Exact Poisson mass outside the window ``[left, right]``.

    Evaluated through the regularised incomplete gamma functions
    (``scipy.special.pdtr``/``pdtrc``), so it resolves tails far below
    the ``1 - cdf`` cancellation floor of ~1e-16.  scipy's Poisson
    distribution object computes its ``cdf``/``sf`` with the same two
    functions; a test checks that both give the same bits.  This is the
    *actual* dropped mass, which the nearly-sharp small-``lam`` finder
    keeps well under the a-priori admissible ``epsilon``.
    """
    if lam <= 0.0:
        return 0.0
    from scipy.special import pdtr, pdtrc

    below = float(pdtr(left - 1, lam)) if left > 0 else 0.0
    above = float(pdtrc(right, lam))
    return max(0.0, below) + max(0.0, above)


@dataclass(frozen=True)
class NumericalCertificate:
    """Machine-readable numerical-health account of one solver result.

    Attributes
    ----------
    algorithm:
        Which analysis issued the certificate (``"ctmdp.reachability"``,
        ``"ctmdp.until"``, ``"ctmc.reachability"``, ``"ctmc.transient"``).
    lam:
        The Poisson parameter ``E * t`` of the truncated series.
    epsilon:
        The a-priori admissible truncation error handed to Fox-Glynn.
    left, right:
        The truncation window; ``right`` is also the sweep's iteration
        count (the paper's "# Iterations").
    dropped_mass:
        Exact Poisson mass outside ``[left, right]``.
    weight_sum_deficit:
        ``|1 - sum(normalised weights)|`` -- round-off in the weight
        normalisation.
    underflow_count / overflow_count:
        Stored Poisson weights that underflowed to zero / came out
        non-finite.  Overflows abort the solve upstream, so a non-zero
        overflow count always marks a degraded certificate.
    sweep_residual:
        Largest excursion of the final values outside ``[0, 1]`` before
        clipping (accumulated floating-point drift of the sweep).
    fp_slack:
        Machine-epsilon allowance for the sweep's accumulated round-off
        (``16 eps`` per retained Poisson index).
    error_bound:
        The certified a-posteriori bound (see module docstring); always
        at most ``epsilon`` plus floating-point noise when the solve is
        healthy.
    states_eliminated:
        States a solver decided without solving for them (expected
        time: the goal states and the qualitatively infinite ones).
        Zero for the Poisson-truncated solves.
    """

    algorithm: str
    lam: float
    epsilon: float
    left: int
    right: int
    dropped_mass: float
    weight_sum_deficit: float
    underflow_count: int
    overflow_count: int
    sweep_residual: float
    fp_slack: float
    error_bound: float
    states_eliminated: int = 0

    @property
    def healthy(self) -> bool:
        """True iff every health predicate holds.

        Healthy means: no overflowed weights, the dropped mass stayed
        within the a-priori admissible ``epsilon``, and the certified
        bound is finite.
        """
        return (
            self.overflow_count == 0
            and self.dropped_mass <= self.epsilon
            and math.isfinite(self.error_bound)
        )

    @property
    def status(self) -> str:
        """``"ok"`` or ``"degraded"``."""
        return "ok" if self.healthy else "degraded"

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible record (the shape ``repro batch`` emits)."""
        return {
            "algorithm": self.algorithm,
            "lam": self.lam,
            "epsilon": self.epsilon,
            "left": self.left,
            "right": self.right,
            "dropped_mass": self.dropped_mass,
            "weight_sum_deficit": self.weight_sum_deficit,
            "underflow_count": self.underflow_count,
            "overflow_count": self.overflow_count,
            "sweep_residual": self.sweep_residual,
            "fp_slack": self.fp_slack,
            "error_bound": self.error_bound,
            "states_eliminated": self.states_eliminated,
            "status": self.status,
        }

    def describe(self) -> str:
        """One-line human rendering (used by ``repro check``)."""
        return (
            f"certificate[{self.algorithm}] lam={self.lam:g} "
            f"window=[{self.left},{self.right}] dropped={self.dropped_mass:.3e} "
            f"residual={self.sweep_residual:.3e} bound={self.error_bound:.3e} "
            f"status={self.status}"
        )

    @classmethod
    def trivial(cls, algorithm: str, epsilon: float) -> "NumericalCertificate":
        """The certificate of a trivially-answerable query.

        ``t = 0`` or an empty goal set: no Poisson series is truncated
        and no sweep runs, so the answer is exact.
        """
        return cls(
            algorithm=algorithm,
            lam=0.0,
            epsilon=epsilon,
            left=0,
            right=0,
            dropped_mass=0.0,
            weight_sum_deficit=0.0,
            underflow_count=0,
            overflow_count=0,
            sweep_residual=0.0,
            fp_slack=0.0,
            error_bound=0.0,
        )

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "NumericalCertificate":
        """Rebuild a certificate from its :meth:`as_dict` form."""
        return cls(
            algorithm=str(record["algorithm"]),
            lam=float(record["lam"]),
            epsilon=float(record["epsilon"]),
            left=int(record["left"]),
            right=int(record["right"]),
            dropped_mass=float(record["dropped_mass"]),
            weight_sum_deficit=float(record["weight_sum_deficit"]),
            underflow_count=int(record["underflow_count"]),
            overflow_count=int(record["overflow_count"]),
            sweep_residual=float(record["sweep_residual"]),
            fp_slack=float(record["fp_slack"]),
            error_bound=float(record["error_bound"]),
            # Absent in certificates stored before the field existed.
            states_eliminated=int(record.get("states_eliminated", 0)),
        )


def certificate_from_foxglynn(
    fg: "FoxGlynn",
    epsilon: float,
    algorithm: str,
    sweep_residual: float = 0.0,
) -> NumericalCertificate:
    """Issue a certificate for one Poisson-truncated solve.

    ``fg`` is the Fox-Glynn data the solve actually used;
    ``sweep_residual`` is the largest out-of-``[0, 1]`` excursion the
    sweep produced before clipping (``0.0`` for analyses that cannot
    drift, e.g. a plain transient distribution).
    """
    with span("solver.certificate", algorithm=algorithm):
        weights = np.asarray(fg.weights, dtype=np.float64)
        overflow_count = int(np.count_nonzero(~np.isfinite(weights)))
        underflow_count = int(np.count_nonzero(weights == 0.0))
        dropped = poisson_tail_mass(fg.lam, fg.left, fg.right)
        if fg.total_weight > 0.0 and math.isfinite(fg.total_weight):
            deficit = abs(1.0 - float(weights.sum()) / fg.total_weight)
        else:  # pragma: no cover - the weighter raises before this
            deficit = math.inf
    fp_slack = _FP_PER_STEP * (fg.right - fg.left + 1)
    error_bound = 2.0 * dropped + deficit + sweep_residual + fp_slack
    return NumericalCertificate(
        algorithm=algorithm,
        lam=float(fg.lam),
        epsilon=float(epsilon),
        left=int(fg.left),
        right=int(fg.right),
        dropped_mass=dropped,
        weight_sum_deficit=deficit,
        underflow_count=underflow_count,
        overflow_count=overflow_count,
        sweep_residual=float(sweep_residual),
        fp_slack=fp_slack,
        error_bound=error_bound,
    )


def iterative_certificate(
    algorithm: str,
    epsilon: float,
    residual: float,
    iterations: int,
    deficit: float = 0.0,
    states_eliminated: int = 0,
) -> NumericalCertificate:
    """Issue a certificate for a solver with no Poisson truncation.

    Covers the direct/iterative solvers -- steady-state (``residual`` is
    the balance defect ``||pi Q||_inf`` plus clipped negativity),
    expected time (the scaled Bellman residual at the returned values)
    and the policy validator's induced-chain check.  The Poisson slots
    are repurposed, keeping the standard :attr:`NumericalCertificate.healthy`
    predicate meaningful:

    * ``lam = 0`` and ``left = 0`` (no series was truncated);
    * ``right`` records the iteration/dimension count (the paper's
      "# Iterations" analogue, also scaling ``fp_slack``);
    * ``dropped_mass`` carries the observed ``residual``, so ``healthy``
      reads "the residual stayed within the admissible ``epsilon``";
    * ``weight_sum_deficit`` carries ``deficit`` (e.g. the distance of
      an un-normalised distribution from total mass one).

    ``error_bound = residual + deficit + fp_slack`` -- the a-posteriori
    defect actually measured, not an a-priori truncation budget.
    """
    iterations = max(0, int(iterations))
    fp_slack = _FP_PER_STEP * max(1, iterations)
    finite = math.isfinite(residual) and math.isfinite(deficit)
    return NumericalCertificate(
        algorithm=algorithm,
        lam=0.0,
        epsilon=float(epsilon),
        left=0,
        right=iterations,
        dropped_mass=float(residual),
        weight_sum_deficit=float(deficit),
        underflow_count=0,
        overflow_count=0 if finite else 1,
        sweep_residual=float(residual),
        fp_slack=fp_slack,
        error_bound=float(residual) + float(deficit) + fp_slack,
        states_eliminated=int(states_eliminated),
    )


def record_certificate(metrics: "MetricStore", certificate: NumericalCertificate) -> None:
    """Export one certificate into a :class:`MetricStore`.

    Counters track volume and degradation, gauges keep the latest and
    worst bounds, and the histograms feed the ``/metrics`` exposition.
    """
    metrics.count("certificates_total")
    if not certificate.healthy:
        metrics.count("certificates_degraded")
    if certificate.underflow_count:
        metrics.count("certificate_underflows", certificate.underflow_count)
    if certificate.overflow_count:
        metrics.count("certificate_overflows", certificate.overflow_count)
    metrics.gauge("certificate_last_error_bound", certificate.error_bound)
    metrics.gauge("certificate_error_bound_max", certificate.error_bound)
    metrics.observe("certificate_error_bound", certificate.error_bound)
    metrics.observe("certificate_dropped_mass", certificate.dropped_mass)


def health_summary(metrics: "MetricStore") -> dict[str, Any]:
    """Certificate-derived health verdict (the ``/healthz`` payload).

    Derived entirely from the metric store.  With no certificates
    issued yet the status is ``"ok"`` (an idle server is healthy).
    """
    total = metrics.counter("certificates_total")
    degraded = metrics.counter("certificates_degraded")
    failed = metrics.counter("queries_failed")
    status = "ok" if degraded == 0 else "degraded"
    summary: dict[str, Any] = {
        "status": status,
        "certificates": {
            "total": total,
            "degraded": degraded,
            "underflows": metrics.counter("certificate_underflows"),
            "overflows": metrics.counter("certificate_overflows"),
        },
        "queries": {
            "total": metrics.counter("queries_total"),
            "failed": failed,
        },
    }
    last = metrics.gauge_value("certificate_last_error_bound")
    worst = metrics.gauge_value("certificate_error_bound_max")
    if not math.isnan(last):
        summary["certificates"]["last_error_bound"] = last
    if not math.isnan(worst):
        summary["certificates"]["max_error_bound"] = worst
    return summary
