"""Counters, timers, gauges and histograms.

:class:`MetricStore` is the metric primitive the whole observability
layer sits on: a bag of named monotonic counters, accumulated timers,
point-in-time gauges and fixed-bucket histograms, serialisable as JSON
or in the Prometheus text exposition format (see
:mod:`repro.obs.export`).  The engine's
:class:`~repro.engine.metrics.EngineMetrics` is this class under its
historical name; the counter/timer glossary the engine uses lives in
``docs/observability.md``.

The store is thread-safe: every mutation takes an internal lock, so the
HTTP telemetry server (:mod:`repro.obs.http`) can render a consistent
snapshot while solver threads keep recording.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = ["DEFAULT_BUCKETS", "Histogram", "MetricStore"]

#: Default histogram bucket upper bounds (seconds or dimensionless),
#: log-spaced to cover both certificate error bounds (~1e-12 .. 1e-3)
#: and request/scrape latencies (~1e-4 .. 10 s).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


@dataclass
class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``bounds`` are the finite bucket upper bounds; an implicit ``+Inf``
    bucket catches everything beyond the last bound.  ``counts[i]`` is
    the number of observations ``<= bounds[i]`` (*non*-cumulative per
    slot here; the exposition layer accumulates), ``counts[-1]`` the
    overflow count.
    """

    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError("histogram counts must have len(bounds) + 1 slots")

    @property
    def count(self) -> int:
        """Total number of observations."""
        return sum(self.counts)

    def observe(self, value: float) -> None:
        """Record one observation."""
        for slot, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[slot] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += float(value)

    def as_dict(self) -> dict:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.sum, "count": self.count}


def _gauge_update(name: str, old: float | None, new: float) -> float:
    """The value gauge ``name`` holds after ``new`` is written over ``old``.

    Last write wins, except that ``*_max`` / ``*_min`` gauges keep the
    running extremum.
    """
    if old is None:
        return new
    if name.endswith("_max"):
        return max(old, new)
    if name.endswith("_min"):
        return min(old, new)
    return new


class MetricStore:
    """A thread-safe bag of counters, timers, gauges and histograms."""

    _guarded_by = {"_lock": ("counters", "timers", "gauges", "histograms", "infos")}

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.infos: dict[str, dict[str, str]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, increment: int = 1) -> None:
        """Increment the counter ``name`` (created at zero on first use)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + increment

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` onto the timer ``name``."""
        with self._lock:
            self.timers[name] = self.timers.get(name, 0.0) + seconds

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins).

        Names ending in ``_max`` / ``_min`` carry running-extremum
        semantics: setting them keeps the larger / smaller of the old
        and new value.  This is how ``certificate_error_bound_max``
        holds the worst bound of every query answered so far.
        """
        with self._lock:
            self.gauges[name] = _gauge_update(name, self.gauges.get(name), float(value))

    def observe(self, name: str, value: float,
                bounds: Sequence[float] | None = None) -> None:
        """Record ``value`` into the histogram ``name``.

        ``bounds`` fixes the bucket upper bounds on first use (the
        shared :data:`DEFAULT_BUCKETS` otherwise); later observations
        ignore the argument.
        """
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = Histogram(
                    bounds=tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
                )
                self.histograms[name] = histogram
            histogram.observe(value)

    def set_info(self, name: str, **labels: str) -> None:
        """Attach an info metric: a constant-1 gauge carrying labels.

        Rendered as ``<prefix><name>{key="value", ...} 1`` -- the
        Prometheus idiom for build/version metadata.
        """
        with self._lock:
            self.infos[name] = {str(k): str(v) for k, v in labels.items()}

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager timing its body into ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (zero if never incremented)."""
        with self._lock:
            return self.counters.get(name, 0)

    def seconds(self, name: str) -> float:
        """Accumulated seconds of timer ``name`` (zero if never used)."""
        with self._lock:
            return self.timers.get(name, 0.0)

    def gauge_value(self, name: str, default: float = math.nan) -> float:
        """Current value of gauge ``name`` (``default`` if never set)."""
        with self._lock:
            return self.gauges.get(name, default)

    def as_dict(self) -> dict:
        """JSON-compatible snapshot.

        Always carries ``counters`` and ``timers``; ``gauges``,
        ``histograms`` and ``infos`` appear only when non-empty, which
        keeps the engine's historical batch-result shape stable.
        """
        with self._lock:
            snapshot: dict = {
                "counters": dict(sorted(self.counters.items())),
                "timers": {name: float(value) for name, value in sorted(self.timers.items())},
            }
            if self.gauges:
                snapshot["gauges"] = {
                    name: float(value) for name, value in sorted(self.gauges.items())
                }
            if self.histograms:
                snapshot["histograms"] = {
                    name: histogram.as_dict()
                    for name, histogram in sorted(self.histograms.items())
                }
            if self.infos:
                snapshot["infos"] = {
                    name: dict(labels) for name, labels in sorted(self.infos.items())
                }
        return snapshot

    def dumps(self, indent: int | None = None) -> str:
        """The snapshot serialised as a JSON string."""
        return json.dumps(self.as_dict(), indent=indent)

    def prometheus(self, prefix: str = "repro_") -> str:
        """The store rendered in the Prometheus/OpenMetrics text format
        (see :func:`repro.obs.export.prometheus_exposition`)."""
        from repro.obs.export import prometheus_exposition

        return prometheus_exposition(self, prefix=prefix)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"{type(self).__name__}"
                f"(counters={self.counters}, timers={self.timers})"
            )
