"""Self-time arithmetic, per-layer aggregation and the metric lists of
``BENCHMARK.json``."""

import json
from pathlib import Path

import pytest
from layers import per_layer_metrics, self_time, span_stats
from procs import Child, import_times
from run import Pass, end_to_end_metrics

SPEC = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_self_time_subtracts_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (4.5, 6.0)]) == 5.0


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0


def test_span_stats_on_nested_spans():
    # solve [0, 10] > fox_glynn [1, 2], certificate [3, 7] > (nothing)
    # plus a second top-level solve [20, 25] without children.
    spans = [
        _span("core.solve", 0.0, 10.0),
        _span("numerics.fox_glynn", 1.0, 2.0, parent=0),
        _span("obs.certificate", 3.0, 7.0, parent=0),
        _span("core.solve", 20.0, 25.0),
    ]
    stats = span_stats([spans, spans])
    assert stats["core.solve"] == {"calls": 4, "busy_s": 30.0, "self_s": 20.0}
    assert stats["obs.certificate"] == {"calls": 2, "busy_s": 8.0, "self_s": 8.0}


def test_import_times_reads_cumulative_microseconds():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |     52000 |   numpy",
        "import time:       424 |    535258 | repro",
        "some other line",
        "import time:        30 |        40 |     repro.core.ctmdp",
    ])
    assert import_times(stderr) == {"numpy": 0.052, "repro": 0.535258}


def _child(spans, wall_s=2.0):
    return Child(wall_s, 1.0, 100.0, spans=spans, imports={"repro": 0.5})


def test_per_layer_metrics_are_exactly_the_listed_ones():
    metrics = per_layer_metrics([_child([])], interpreter_s=0.04, overhead_ratio=1.0)
    assert set(metrics) == {metric["name"] for metric in SPEC["per_layer"]}


def test_per_layer_ratios_and_counts():
    spans = [
        _span("startup.import", 0.0, 0.5),
        _span("engine.run_dicts", 0.6, 1.6),
        _span("engine.registry_get", 0.7, 0.8, parent=1, hit=0),
        _span("engine.registry_get", 0.8, 0.9, parent=1, hit=1),
        _span("core.solve", 1.0, 1.5, parent=1, transition_steps=1000),
        _span("numerics.fox_glynn", 1.0, 1.1, parent=4),
        _span("io.read_tra", 0.75, 0.78, parent=2, bytes=300),
    ]
    metrics = per_layer_metrics([_child(spans)], interpreter_s=0.04, overhead_ratio=1.1)
    assert metrics["engine.registry_hit_ratio"] == 0.5
    assert metrics["engine.run_dicts.self_s"] == pytest.approx(1.0 - 0.2 - 0.5)
    assert metrics["engine.unattributed_s"] == pytest.approx(2.0 - 0.5 - 1.0)
    assert metrics["core.sweep.ns_per_transition_step"] == pytest.approx(0.4e9 / 1000)
    assert metrics["io.read_tra.bytes"] == 300
    assert metrics["import.repro_s"] == 0.5
    assert metrics["import.numpy_s"] == 0.0
    assert metrics["trace.overhead_ratio"] == 1.1


def test_end_to_end_metrics_are_exactly_the_listed_ones():
    main = Pass(
        setup_s=[1.0, 3.0, 2.0], op_s=[0.5, 0.7], loop_s=1.2, loop_cpu_s=1.0,
        loop_rss_mb=[300.0, 330.0, 301.0], queries=4,
    )
    metrics = end_to_end_metrics(main)
    assert set(metrics) == {metric["name"] for metric in SPEC["end_to_end"]}
    assert metrics["setup_s"] == 2.0
    assert metrics["queries_per_s"] == pytest.approx(4 / 1.2)
    assert metrics["cpu_s_per_query"] == 0.25
    assert metrics["peak_rss_mb"] == 301.0
    assert all(value > 0 for value in metrics.values())
