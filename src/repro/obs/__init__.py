"""``repro.obs``: span-based tracing, profiling and metric export.

The observability layer the ROADMAP's "fast as the hardware allows"
goal is measured against:

* :mod:`repro.obs.tracer` -- nested spans (wall/CPU time, allocation
  deltas) with a near-zero-cost disabled path; the pipeline's phase
  boundaries are instrumented through :func:`span` and the backward
  sweeps through :func:`sweep_span`;
* :mod:`repro.obs.metrics` -- the counter/timer/gauge/histogram store
  the engine's ``EngineMetrics`` is built on (thread-safe);
* :mod:`repro.obs.certificate` -- numerical-health certificates
  (Fox-Glynn truncation accounting, sweep residuals, certified error
  bounds) attached to every solver result;
* :mod:`repro.obs.export` -- the Prometheus text exposition served by
  ``repro serve`` and the HTTP endpoint;
* :mod:`repro.obs.http` -- the stdlib HTTP telemetry server
  (``/metrics``, ``/healthz``); imported lazily by the CLI, not
  re-exported here;
* :mod:`repro.obs.profile` -- ``repro profile``, a one-query run under
  tracing rendered as a phase-attributed breakdown (imported lazily by the CLI; not re-exported here to keep
  ``repro.obs`` import-light for the hot path).

See ``docs/observability.md`` for the span and metric glossary.
"""

from repro.obs.certificate import (
    NumericalCertificate,
    certificate_from_foxglynn,
    health_summary,
    iterative_certificate,
    poisson_tail_mass,
    record_certificate,
)
from repro.obs.export import escape_label_value, prometheus_exposition
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricStore
from repro.obs.tracer import (
    Span,
    StepRecorder,
    Tracer,
    current_tracer,
    span,
    summarize_durations,
    sweep_span,
    tracing,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricStore",
    "NumericalCertificate",
    "Span",
    "StepRecorder",
    "Tracer",
    "certificate_from_foxglynn",
    "current_tracer",
    "escape_label_value",
    "health_summary",
    "iterative_certificate",
    "poisson_tail_mass",
    "prometheus_exposition",
    "record_certificate",
    "span",
    "summarize_durations",
    "sweep_span",
    "tracing",
]
