"""Trace and metric export: JSONL span dumps, Prometheus exposition.

Two consumers are served:

* **trace tooling** -- :meth:`~repro.obs.tracer.Tracer.write_jsonl`
  emits one span per line; :func:`read_jsonl` loads such a file back
  into plain dictionaries for analysis scripts;
* **scrapers** -- :func:`prometheus_exposition` renders a
  :class:`~repro.obs.metrics.MetricStore` (counters, timers, gauges,
  histograms, info metrics) in the Prometheus/OpenMetrics text format,
  answered by ``repro serve`` on a literal ``/metrics`` request line
  and by the HTTP telemetry server (:mod:`repro.obs.http`) on
  ``GET /metrics``.

Metric name mangling follows the Prometheus conventions: counters get
a ``_total`` suffix, timers become ``<name>_seconds_total`` (the stored
timer names already end in ``_seconds``), histograms expand into
``_bucket``/``_sum``/``_count`` sample families, and every character
outside ``[a-zA-Z0-9_]`` is replaced by ``_``.  Each family is
announced by ``# HELP`` and ``# TYPE`` lines, in that order and exactly
once, and label values are escaped per the text-format grammar
(backslash, double quote, newline).
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Iterable, Mapping

from repro.obs.metrics import MetricStore

__all__ = ["escape_label_value", "prometheus_exposition", "read_jsonl"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Help strings for the metric families the engine records; families
#: outside the glossary get a generic description.
_HELP: dict[str, str] = {
    "queries_total": "Queries answered, including failed ones.",
    "queries_failed": "Queries that produced an error record.",
    "models_built": "Models constructed from scratch (cache misses).",
    "cache_hits_memory": "Registry lookups answered from memory.",
    "cache_hits_disk": "Registry lookups answered from the disk cache.",
    "cache_misses": "Registry lookups that had to build.",
    "disk_writes": "Models persisted to the on-disk cache.",
    "foxglynn": "Fox-Glynn truncation-point/weight computations.",
    "iterations": "Total backward value-iteration steps.",
    "sanitize_checks": "Model sanitizer passes run.",
    "certificates_total": "Numerical-health certificates issued.",
    "certificates_degraded": "Certificates whose health checks failed.",
    "certificate_underflows": "Poisson weights that underflowed to zero.",
    "certificate_overflows": "Non-finite Poisson weights observed.",
    "certificate_error_bound": "Per-result a-posteriori error bounds.",
    "certificate_last_error_bound": "Error bound of the most recent certificate.",
    "certificate_error_bound_max": "Largest error bound issued so far.",
    "certificate_dropped_mass": "Poisson mass outside the truncation window.",
    "http_requests": "HTTP telemetry requests served.",
}


def _metric_name(prefix: str, name: str) -> str:
    return _NAME_RE.sub("_", prefix + name)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format grammar."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value)) if value != int(value) else str(int(value))


def _render_labels(labels: Mapping[str, str]) -> str:
    """``{k="v",...}`` with sanitised names and escaped values (or ``""``)."""
    parts = [
        f'{_NAME_RE.sub("_", key)}="{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    ]
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class _Families:
    """Accumulates sample lines per metric family, headers emitted once.

    The text-format grammar requires each family's ``# HELP`` and
    ``# TYPE`` to appear exactly once, before its samples -- so when
    two store entries mangle to the same family name (a counter
    ``x_seconds`` and a timer ``x_seconds`` both become
    ``x_seconds_total``), their samples are grouped under a single
    header.  Families keep first-seen order.
    """

    def __init__(self) -> None:
        self._order: list[str] = []
        self._kinds: dict[str, tuple[str, str]] = {}
        self._samples: dict[str, list[str]] = {}

    def add(self, metric: str, kind: str, base_name: str, lines: Iterable[str]) -> None:
        if metric not in self._kinds:
            self._order.append(metric)
            text = _HELP.get(base_name, f"{kind} {base_name} recorded by repro.")
            self._kinds[metric] = (kind, text)
            self._samples[metric] = []
        self._samples[metric].extend(lines)

    def render(self) -> list[str]:
        lines: list[str] = []
        for metric in self._order:
            kind, help_text = self._kinds[metric]
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {kind}")
            lines.extend(self._samples[metric])
        return lines


def prometheus_exposition(
    metrics: MetricStore | Mapping[str, Any], prefix: str = "repro_"
) -> str:
    """Render one store (or its snapshot) in the Prometheus text format.

    Counters are exposed as ``<prefix><name>_total`` with type
    ``counter``; accumulated timers as ``<prefix><name>_seconds_total``
    (both monotonically increasing over a server's lifetime); gauges
    keep their name; histograms expand into cumulative ``_bucket``
    samples (one per bound plus ``+Inf``) with ``_sum`` and ``_count``;
    info metrics render as a constant-1 gauge carrying their labels.
    The output terminates with the OpenMetrics ``# EOF`` marker so
    scrapers can detect truncation.
    """
    snapshot = metrics.as_dict() if isinstance(metrics, MetricStore) else metrics
    families = _Families()
    for name, value in snapshot.get("counters", {}).items():
        metric = _metric_name(prefix, name) + "_total"
        families.add(metric, "counter", name, [f"{metric} {_format_value(value)}"])
    for name, value in snapshot.get("timers", {}).items():
        base = name[: -len("_seconds")] if name.endswith("_seconds") else name
        metric = _metric_name(prefix, base) + "_seconds_total"
        families.add(
            metric, "counter", name, [f"{metric} {_format_value(float(value))}"]
        )
    for name, value in snapshot.get("gauges", {}).items():
        metric = _metric_name(prefix, name)
        families.add(metric, "gauge", name, [f"{metric} {_format_value(float(value))}"])
    for name, data in snapshot.get("histograms", {}).items():
        metric = _metric_name(prefix, name)
        lines = []
        cumulative = 0
        for bound, count in zip(data["bounds"], data["counts"]):
            cumulative += int(count)
            le = _format_value(float(bound))
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        cumulative += int(data["counts"][-1])
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {_format_value(float(data['sum']))}")
        lines.append(f"{metric}_count {cumulative}")
        families.add(metric, "histogram", name, lines)
    for name, info_labels in snapshot.get("infos", {}).items():
        metric = _metric_name(prefix, name)
        families.add(
            metric, "gauge", name, [f"{metric}{_render_labels(info_labels)} 1"]
        )
    return "\n".join(families.render() + ["# EOF"]) + "\n"


def read_jsonl(path: Any) -> list[dict[str, Any]]:
    """Load a JSONL span trace back into a list of dictionaries."""
    records = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
