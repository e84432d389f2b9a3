"""Per-layer metrics of the traced run, computed from the children's spans.

A span's *busy* time is its duration; its *self* time is its duration
minus the part of it that its direct child spans cover.  Counts and
times are totals over every traced child of one pass (one set-up plus
one round); import times are the median over the children that
imported the module.
"""

from __future__ import annotations

import statistics
from typing import Any, Iterable, Sequence

from procs import IMPORTED_MODULES, Child

__all__ = ["per_layer_metrics", "self_time", "span_stats"]

#: Span name and the statistics reported for it.
SPAN_METRICS = (
    ("engine.run_dicts", ("calls", "busy_s", "self_s")),
    ("engine.registry_get", ("calls", "busy_s")),
    ("models.build_ctmdp", ("calls", "busy_s")),
    ("io.write_tra", ("calls", "busy_s")),
    ("io.read_tra", ("calls", "busy_s")),
    ("imc.elapse", ("calls", "busy_s")),
    ("imc.parallel", ("calls", "busy_s", "self_s")),
    ("imc.hide", ("calls", "busy_s")),
    ("imc.transform", ("calls", "busy_s")),
    ("bisim.minimize", ("calls", "busy_s", "self_s")),
    ("bisim.refine", ("busy_s",)),
    ("bisim.quotient", ("busy_s",)),
    ("core.prepare", ("calls", "busy_s")),
    ("core.solve", ("calls", "busy_s", "self_s")),
    ("numerics.fox_glynn", ("calls", "busy_s")),
    ("obs.certificate", ("calls", "busy_s")),
)

IMPORT_METRICS = dict(
    zip(
        IMPORTED_MODULES,
        ("import.repro_s", "import.repro_analysis_s", "import.scipy_stats_s", "import.numpy_s"),
    )
)


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """``end - start`` minus the union of the ``children`` intervals,
    each clipped to ``[start, end]``."""
    covered = 0.0
    reach = start
    for child_start, child_end in sorted(children):
        lo, hi = max(child_start, reach), min(child_end, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def span_stats(traces: Sequence[Sequence[dict[str, Any]]]) -> dict[str, dict[str, float]]:
    """``calls``, ``busy_s`` and ``self_s`` per span name over ``traces``,
    each one process's spans with ``parent`` indices into its own list."""
    totals: dict[str, dict[str, float]] = {}
    for spans in traces:
        children: dict[int, list[tuple[float, float]]] = {}
        for span in spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        for index, span in enumerate(spans):
            entry = totals.setdefault(span["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += span["end"] - span["start"]
            entry["self_s"] += self_time(span["start"], span["end"], children.get(index, ()))
    return totals


def _attrs(children: Sequence[Child], name: str, key: str) -> list[float]:
    return [
        span["attrs"][key]
        for child in children
        for span in child.spans
        if span["name"] == name and key in span.get("attrs", {})
    ]


def per_layer_metrics(
    children: Sequence[Child], interpreter_s: float, overhead_ratio: float
) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``children`` are the pass's traced children; ``interpreter_s`` is the
    measured ``python -c pass`` time and ``overhead_ratio`` the traced
    over the untraced wall time of the same round.  A metric whose layer
    did not run reads 0, and so does a ratio with a zero base.
    """
    stats = span_stats([child.spans for child in children])
    metrics: dict[str, float] = {"startup.interpreter_s": interpreter_s}
    for module, name in IMPORT_METRICS.items():
        seconds = [child.imports[module] for child in children if module in child.imports]
        metrics[name] = statistics.median(seconds) if seconds else 0.0
    for span_name, reported in SPAN_METRICS:
        entry = stats.get(span_name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for stat in reported:
            metrics[f"{span_name}.{stat}"] = entry[stat]

    gets = metrics["engine.registry_get.calls"]
    hits = sum(_attrs(children, "engine.registry_get", "hit"))
    metrics["engine.registry_hit_ratio"] = hits / gets if gets else 0.0
    # Child wall time that no top-level span (the import span included)
    # covers: interpreter start-up, argument parsing, JSON in and out,
    # exit, and a server's wait for its next request.
    metrics["engine.unattributed_s"] = sum(
        child.wall_s
        - sum(span["end"] - span["start"] for span in child.spans if span["parent"] is None)
        for child in children
    )
    for direction in ("write", "read"):
        metrics[f"io.{direction}_tra.bytes"] = sum(_attrs(children, f"io.{direction}_tra", "bytes"))
    metrics["imc.peak_states"] = max(_attrs(children, "imc.parallel", "states"), default=0)
    metrics["bisim.states_in"] = sum(_attrs(children, "bisim.minimize", "states_in"))
    metrics["bisim.states_out"] = sum(_attrs(children, "bisim.minimize", "states_out"))
    steps = sum(_attrs(children, "core.solve", "transition_steps"))
    metrics["core.sweep.transition_steps"] = steps
    metrics["core.sweep.ns_per_transition_step"] = (
        1e9 * metrics["core.solve.self_s"] / steps if steps else 0.0
    )
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics
