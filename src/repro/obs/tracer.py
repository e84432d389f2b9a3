"""Span-based tracing with near-zero overhead when disabled.

A :class:`Tracer` records a tree of *spans*: named, attributed sections
of work with wall-clock time, CPU time and (optionally) allocation
deltas.  The pipeline is instrumented at its phase boundaries --
registry resolution, solver preparation, Fox-Glynn, the backward
iteration of Algorithm 1, bisimulation minimisation, the uIMC-to-uCTMDP
transformation -- via the module-level :func:`span` helper::

    with span("registry.build", family="ftwc") as sp:
        ...
        if sp is not None:
            sp.annotate(states=model.num_states)

When no tracer is active (the default), :func:`span` returns a shared
null context manager: the cost of an instrumented boundary is one
global read and one ``None`` check, which keeps the hot path within the
overhead budget enforced by ``benchmarks/test_bench_obs.py``.  A tracer
is activated for a lexical scope with :func:`tracing`::

    with tracing() as tracer:
        timed_reachability(model, goal, 100.0)
    tracer.render_tree()      # indented phase breakdown
    tracer.write_jsonl(path)  # one span per line, for external tooling

Every tracer carries a random ``trace_id`` and every span a
process-qualified ``span_id`` (``<trace_id>:<pid hex>:<index>``), so
JSONL files written by several runs or processes stay separable.

Per-*step* instrumentation inside the backward iteration does not
create one span per step (the FTWC horizons reach tens of thousands of
steps); instead the solver collects raw step durations only while a
tracer is active and attaches a summary histogram to the sweep's span.
The shared pattern -- open a ``*.sweep`` span, time each step, attach
the :func:`summarize_durations` summary, close with an ``error`` status
if the sweep raises -- is packaged as :func:`sweep_span`, which the
reachability, until and value-iteration sweeps all use.
"""

from __future__ import annotations

import json
import os
import threading
import time
import tracemalloc
import uuid
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Iterator

__all__ = [
    "Span",
    "StepRecorder",
    "Tracer",
    "tracing",
    "current_tracer",
    "span",
    "sweep_span",
    "summarize_durations",
]


@dataclass
class Span:
    """One recorded section of work.

    Attributes
    ----------
    name:
        Phase name, dot-qualified by subsystem (``"registry.build"``).
    index:
        Position in the tracer's span list (start order).
    parent:
        Index of the enclosing span, or ``None`` for roots.
    depth:
        Nesting depth (roots are 0).
    attributes:
        Free-form annotations (sizes, parameters, histograms).
    started_at:
        Wall-clock offset from the tracer's activation, in seconds.
    wall_seconds / cpu_seconds:
        Durations; CPU time is process-wide (``time.process_time``).
    alloc_bytes:
        Net allocation delta over the span when the tracer tracks
        allocations, else ``None``.
    status:
        ``"ok"`` normally; ``"error"`` when the span body raised (the
        exception type and message land in the ``error`` attribute).
    span_id / parent_span_id:
        Stable identifiers of the form ``<trace_id>:<pid>:<index>``;
        they survive serialisation.
    """

    name: str
    index: int
    parent: int | None
    depth: int
    attributes: dict[str, Any] = field(default_factory=dict)
    started_at: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    alloc_bytes: int | None = None
    status: str = "ok"
    span_id: str = ""
    parent_span_id: str | None = None

    def annotate(self, **attributes: Any) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible record (the shape of one JSONL line)."""
        record: dict[str, Any] = {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }
        if self.alloc_bytes is not None:
            record["alloc_bytes"] = self.alloc_bytes
        if self.attributes:
            record["attributes"] = _jsonable(self.attributes)
        return record


def _jsonable(value: Any) -> Any:
    """Coerce attribute values into JSON-serialisable shapes."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return repr(value)


class Tracer:
    """Collects spans for one traced scope.

    Not thread-safe: one tracer belongs to one analysis thread, which
    matches how the engine runs.
    """

    def __init__(self, track_allocations: bool = False) -> None:
        self.spans: list[Span] = []
        self.track_allocations = track_allocations
        self.trace_id = uuid.uuid4().hex[:16]
        self._stack: list[Span] = []
        self._origin = time.perf_counter()
        self._owns_tracemalloc = False
        if track_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    def close(self) -> None:
        """Release resources (stops tracemalloc if this tracer started it)."""
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._owns_tracemalloc = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _span_id(self, index: int) -> str:
        return f"{self.trace_id}:{os.getpid():x}:{index}"

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Record a span around the body; yields the live span.

        The span is closed on every exit path: if the body raises, the
        span still receives its timings, its ``status`` flips to
        ``"error"`` and the exception is recorded in the ``error``
        attribute before propagating.
        """
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(
            name=name,
            index=index,
            parent=parent.index if parent is not None else None,
            depth=len(self._stack),
            attributes=dict(attributes),
            started_at=time.perf_counter() - self._origin,
            span_id=self._span_id(index),
            parent_span_id=parent.span_id if parent is not None else None,
        )
        self.spans.append(record)
        self._stack.append(record)
        alloc_before = tracemalloc.get_traced_memory()[0] if self.track_allocations else 0
        cpu_before = time.process_time()
        wall_before = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.status = "error"
            record.attributes.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            record.wall_seconds = time.perf_counter() - wall_before
            record.cpu_seconds = time.process_time() - cpu_before
            if self.track_allocations and tracemalloc.is_tracing():
                record.alloc_bytes = tracemalloc.get_traced_memory()[0] - alloc_before
            self._stack.pop()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def total_wall_seconds(self) -> float:
        """Summed wall time of the root spans."""
        return sum(s.wall_seconds for s in self.spans if s.parent is None)

    def children_of(self, index: int | None) -> list[Span]:
        """Spans directly nested under ``index`` (``None`` for roots)."""
        return [s for s in self.spans if s.parent == index]

    def self_seconds(self, span: Span) -> float:
        """Wall time of a span minus its direct children (own work)."""
        return span.wall_seconds - sum(c.wall_seconds for c in self.children_of(span.index))

    def aggregate(self) -> list[dict[str, Any]]:
        """Flame-style aggregation: totals per span name, sorted by self time.

        ``self_seconds`` is the time attributed to the phase itself
        (excluding instrumented sub-phases), which is the column a
        profile reader optimises against.
        """
        buckets: dict[str, dict[str, Any]] = {}
        for record in self.spans:
            bucket = buckets.setdefault(
                record.name,
                {"name": record.name, "count": 0, "wall_seconds": 0.0,
                 "self_seconds": 0.0, "cpu_seconds": 0.0, "alloc_bytes": 0},
            )
            bucket["count"] += 1
            bucket["wall_seconds"] += record.wall_seconds
            bucket["self_seconds"] += self.self_seconds(record)
            bucket["cpu_seconds"] += record.cpu_seconds
            if record.alloc_bytes is not None:
                bucket["alloc_bytes"] += record.alloc_bytes
        return sorted(buckets.values(), key=lambda b: b["self_seconds"], reverse=True)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_dicts(self) -> list[dict[str, Any]]:
        """All spans in start order, JSON-compatible.

        Every record additionally carries the tracer's ``trace_id`` so
        a JSONL file mixing several traces stays separable.
        """
        records = []
        for record in self.spans:
            data = record.as_dict()
            data["trace_id"] = self.trace_id
            records.append(data)
        return records

    def write_jsonl(self, target: Any) -> None:
        """Write one span per line to a path or text stream."""
        if hasattr(target, "write"):
            for record in self.as_dicts():
                target.write(json.dumps(record) + "\n")
            return
        with open(target, "w", encoding="utf-8") as stream:
            self.write_jsonl(stream)

    def render_tree(self, total: float | None = None) -> str:
        """Indented text rendering of the span tree with timings."""
        total = total if total is not None else self.total_wall_seconds()
        lines = [
            f"{'span':<44}  {'wall':>10}  {'%':>6}  {'cpu':>10}  {'self':>10}"
        ]
        for record in self.spans:
            share = 100.0 * record.wall_seconds / total if total > 0.0 else 0.0
            label = "  " * record.depth + record.name
            extras = _render_attributes(record.attributes)
            if record.status != "ok":
                extras = f"!{record.status} {extras}".rstrip()
            if extras:
                label = f"{label} {extras}"
            lines.append(
                f"{label:<44}  {record.wall_seconds:>9.4f}s  {share:>5.1f}%  "
                f"{record.cpu_seconds:>9.4f}s  {self.self_seconds(record):>9.4f}s"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer({len(self.spans)} spans, {self.total_wall_seconds():.4f}s)"


_INLINE_ATTRIBUTES = ("t", "objective", "lam", "states", "n", "family", "source")


def _render_attributes(attributes: dict[str, Any]) -> str:
    parts = []
    for key in _INLINE_ATTRIBUTES:
        if key in attributes:
            value = attributes[key]
            if isinstance(value, float):
                parts.append(f"{key}={value:g}")
            else:
                parts.append(f"{key}={value}")
    return f"[{' '.join(parts)}]" if parts else ""


# ----------------------------------------------------------------------
# The active-tracer slot and the zero-overhead disabled path
# ----------------------------------------------------------------------
#
# Thread affinity: a :class:`Tracer` is single-threaded by design --
# spans nest via a plain stack, so all ``span()`` scopes must open and
# close on the thread that activated the tracer.  Cross-thread
# telemetry goes through the *locked* sink instead
# (:class:`~repro.obs.metrics.MetricStore`).  The module global below is
# therefore exempt from the ``_guarded_by`` discipline checked by
# ``repro lint --self``: ``current_tracer()``/``span()`` perform a single
# reference read (atomic in CPython), while the activate/deactivate
# transitions in :func:`tracing` -- the only check-then-set windows --
# serialise on ``_ACTIVE_LOCK``.
_ACTIVE: Tracer | None = None

#: Serialises the activate/deactivate transitions of ``_ACTIVE``; never
#: held while user code runs, so no other lock is ever taken under it
#: (the T002 nesting rule of ``repro lint --self``).
_ACTIVE_LOCK = threading.Lock()

#: Shared, re-enterable no-op context manager returned while tracing is
#: disabled; yields ``None`` so instrumentation sites can guard optional
#: annotation work with ``if sp is not None``.
_NULL_SPAN: ContextManager[None] = nullcontext(None)


def current_tracer() -> Tracer | None:
    """The tracer active in this process, or ``None``."""
    return _ACTIVE


def span(name: str, **attributes: Any) -> ContextManager[Span | None]:
    """A span on the active tracer, or the shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attributes)


@contextmanager
def tracing(track_allocations: bool = False) -> Iterator[Tracer]:
    """Activate a fresh :class:`Tracer` for the ``with`` body.

    Tracers do not nest: activating inside an active scope raises, which
    catches accidental double-instrumentation early.

    The not-already-active check and the activation are one atomic step
    under ``_ACTIVE_LOCK``, so two threads racing into ``tracing()``
    cannot both pass the check and silently share (then doubly clear)
    the slot; the loser gets the same ``RuntimeError`` as a nested
    activation.  The activated tracer itself remains single-threaded --
    see the thread-affinity note above ``_ACTIVE``.
    """
    global _ACTIVE
    tracer = Tracer(track_allocations=track_allocations)
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already active; tracing scopes do not nest")
        _ACTIVE = tracer
    try:
        yield tracer
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = None
        tracer.close()


# ----------------------------------------------------------------------
# Shared sweep instrumentation (per-step histograms)
# ----------------------------------------------------------------------
class StepRecorder:
    """Collects per-step durations for one sweep.

    ``enabled`` is ``False`` when no tracer is active; the sweep loops
    guard their two ``perf_counter`` calls on it, which keeps the
    disabled path within the overhead budget::

        with sweep_span("until.sweep", t=t) as steps:
            for i in ...:
                t0 = perf_counter() if steps.enabled else 0.0
                ...
                if steps.enabled:
                    steps.record(perf_counter() - t0)
    """

    __slots__ = ("enabled", "seconds")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.seconds: list[float] = []

    def record(self, seconds: float) -> None:
        self.seconds.append(seconds)


#: Shared disabled recorder handed out when no tracer is active.
_NULL_RECORDER = StepRecorder(False)


class _NullSweep:
    """Re-enterable no-op context yielding the shared disabled recorder."""

    __slots__ = ()

    def __enter__(self) -> StepRecorder:
        return _NULL_RECORDER

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SWEEP = _NullSweep()


@contextmanager
def _sweep_span_enabled(tracer: Tracer, name: str, attributes: dict[str, Any]) -> Iterator[StepRecorder]:
    with tracer.span(name, **attributes) as sp:
        recorder = StepRecorder(True)
        try:
            yield recorder
        finally:
            if recorder.seconds:
                sp.annotate(steps=summarize_durations(recorder.seconds))


def sweep_span(name: str, **attributes: Any) -> ContextManager[StepRecorder]:
    """Instrument one backward sweep: a span plus a per-step recorder.

    The single helper behind the ``reachability.sweep``, ``until.sweep``,
    ``ctmc.sweep`` and ``vi.sweep`` instrumentation: it opens the span, hands the loop
    a :class:`StepRecorder`, attaches the :func:`summarize_durations`
    step summary on exit, and -- like every span -- closes with an
    ``error`` status when the sweep raises.  Disabled cost is one global
    read and a shared no-op context, exactly like :func:`span`.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SWEEP
    return _sweep_span_enabled(tracer, name, attributes)


# ----------------------------------------------------------------------
# Step-duration summaries (per-sweep histograms)
# ----------------------------------------------------------------------
def summarize_durations(seconds: list[float]) -> dict[str, Any]:
    """Summary statistics + log-spaced histogram for per-step durations.

    Attached to the backward-iteration span instead of recording one
    span per step: the FTWC's 30000 h bound takes ~62k steps, and 62k
    span objects would distort the measurement they are meant to take.
    """
    if not seconds:
        return {"steps": 0}
    ordered = sorted(seconds)
    total = sum(ordered)
    n = len(ordered)

    def quantile(q: float) -> float:
        return ordered[min(n - 1, int(q * n))]

    # Log-spaced buckets from 1 microsecond up; everything faster lands
    # in the first bucket.
    buckets = [1e-6 * 4.0**k for k in range(8)]
    counts = [0] * (len(buckets) + 1)
    for value in ordered:
        for slot, edge in enumerate(buckets):
            if value <= edge:
                counts[slot] += 1
                break
        else:
            counts[-1] += 1
    histogram = {f"le_{edge:.0e}s": count for edge, count in zip(buckets, counts)}
    histogram["inf"] = counts[-1]
    return {
        "steps": n,
        "total_seconds": total,
        "min_seconds": ordered[0],
        "max_seconds": ordered[-1],
        "mean_seconds": total / n,
        "p50_seconds": quantile(0.50),
        "p90_seconds": quantile(0.90),
        "p99_seconds": quantile(0.99),
        "steps_per_second": n / total if total > 0.0 else float("inf"),
        "histogram": histogram,
    }
