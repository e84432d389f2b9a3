"""Unit tests for the span tracer."""

import io
import json
import os

import pytest

from repro.obs import (
    current_tracer,
    read_jsonl,
    span,
    summarize_durations,
    sweep_span,
    tracing,
)
from repro.obs.tracer import _NULL_SPAN, _NULL_SWEEP


class TestDisabledPath:
    def test_no_tracer_by_default(self):
        assert current_tracer() is None

    def test_span_returns_shared_null_context(self):
        """The disabled path allocates nothing: every call returns the
        module-level null context manager."""
        assert span("anything", t=1.0) is _NULL_SPAN
        assert span("else") is _NULL_SPAN

    def test_null_span_yields_none(self):
        with span("disabled") as sp:
            assert sp is None

    def test_null_span_reenterable(self):
        for _ in range(3):
            with span("again") as sp:
                assert sp is None


class TestRecording:
    def test_nesting_and_parenthood(self):
        with tracing() as tracer:
            with span("outer", family="ftwc"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"]
        outer, first, second = tracer.spans
        assert outer.parent is None and outer.depth == 0
        assert first.parent == outer.index and first.depth == 1
        assert second.parent == outer.index
        assert outer.attributes["family"] == "ftwc"

    def test_timings_accumulate(self):
        with tracing() as tracer:
            with span("work"):
                sum(range(10000))
        record = tracer.spans[0]
        assert record.wall_seconds >= 0.0
        assert tracer.total_wall_seconds() == record.wall_seconds

    def test_self_seconds_excludes_children(self):
        with tracing() as tracer:
            with span("parent"):
                with span("child"):
                    sum(range(50000))
        parent, child = tracer.spans
        assert tracer.self_seconds(parent) == pytest.approx(
            parent.wall_seconds - child.wall_seconds
        )

    def test_annotate_after_the_fact(self):
        with tracing() as tracer:
            with span("phase") as sp:
                assert sp is not None
                sp.annotate(iterations=42)
        assert tracer.spans[0].attributes["iterations"] == 42

    def test_tracer_deactivated_after_scope(self):
        with tracing():
            assert current_tracer() is not None
        assert current_tracer() is None
        assert span("after") is _NULL_SPAN

    def test_tracing_scopes_do_not_nest(self):
        with tracing():
            with pytest.raises(RuntimeError):
                with tracing():
                    pass

    def test_exception_still_closes_span(self):
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with span("failing"):
                    raise ValueError("boom")
        assert tracer.spans[0].wall_seconds >= 0.0
        assert current_tracer() is None

    def test_exception_marks_span_status_error(self):
        """Regression: a span left through an exception must be closed
        with an ``error`` status and carry the exception summary, so
        traces of failed queries are attributable."""
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with span("outer"):
                    with span("failing"):
                        raise ValueError("boom")
        outer, failing = tracer.spans
        assert failing.status == "error"
        assert failing.attributes["error"] == "ValueError: boom"
        # The error propagates through enclosing spans too.
        assert outer.status == "error"
        assert tracer.as_dicts()[1]["status"] == "error"
        assert "!error" in tracer.render_tree()

    def test_explicit_error_attribute_not_clobbered(self):
        with tracing() as tracer:
            with pytest.raises(RuntimeError):
                with span("failing") as sp:
                    sp.annotate(error="custom diagnosis")
                    raise RuntimeError("ignored")
        assert tracer.spans[0].status == "error"
        assert tracer.spans[0].attributes["error"] == "custom diagnosis"

    def test_successful_span_status_ok(self):
        with tracing() as tracer:
            with span("fine"):
                pass
        assert tracer.spans[0].status == "ok"
        assert "!error" not in tracer.render_tree()

    def test_allocation_tracking(self):
        with tracing(track_allocations=True) as tracer:
            with span("alloc"):
                _block = bytearray(1 << 20)
        record = tracer.spans[0]
        assert record.alloc_bytes is not None
        assert record.alloc_bytes >= (1 << 20) * 0.9


class TestAggregationAndExport:
    def test_aggregate_groups_by_name(self):
        with tracing() as tracer:
            for _ in range(3):
                with span("repeated"):
                    pass
            with span("single"):
                pass
        buckets = {b["name"]: b for b in tracer.aggregate()}
        assert buckets["repeated"]["count"] == 3
        assert buckets["single"]["count"] == 1

    def test_jsonl_round_trip(self, tmp_path):
        with tracing() as tracer:
            with span("outer", n=2):
                with span("inner"):
                    pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        records = read_jsonl(path)
        assert [r["name"] for r in records] == ["outer", "inner"]
        assert records[0]["attributes"]["n"] == 2
        assert records[1]["parent"] == records[0]["index"]

    def test_jsonl_to_stream_is_valid_json_lines(self):
        with tracing() as tracer:
            with span("one"):
                pass
        sink = io.StringIO()
        tracer.write_jsonl(sink)
        lines = sink.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "one"

    def test_render_tree_mentions_every_span(self):
        with tracing() as tracer:
            with span("build"):
                with span("sweep", t=100.0):
                    pass
        rendered = tracer.render_tree()
        assert "build" in rendered
        assert "sweep" in rendered
        assert "t=100" in rendered

    def test_numpy_attributes_serialise(self):
        import numpy as np

        with tracing() as tracer:
            with span("np", value=np.float64(0.5), count=np.int64(3)):
                pass
        record = tracer.as_dicts()[0]
        json.dumps(record)  # must not raise
        assert record["attributes"]["value"] == 0.5


class TestCrossProcessIdentity:
    def test_span_ids_are_process_qualified(self):
        with tracing() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
        outer, inner = tracer.spans
        pid_hex = f"{os.getpid():x}"
        assert outer.span_id == f"{tracer.trace_id}:{pid_hex}:0"
        assert inner.parent_span_id == outer.span_id
        records = tracer.as_dicts()
        assert all(record["trace_id"] == tracer.trace_id for record in records)


class TestSweepSpan:
    def test_disabled_returns_shared_null_sweep(self):
        assert sweep_span("x.sweep", t=1.0) is _NULL_SWEEP
        with sweep_span("x.sweep") as recorder:
            assert recorder.enabled is False
            recorder.record(0.5)  # must be a cheap no-op
        with sweep_span("again") as recorder:
            assert recorder.enabled is False

    def test_enabled_attaches_step_summary(self):
        with tracing() as tracer:
            with sweep_span("test.sweep", t=2.0) as recorder:
                assert recorder.enabled is True
                for _ in range(4):
                    recorder.record(0.001)
        record = tracer.spans[0]
        assert record.name == "test.sweep"
        assert record.attributes["t"] == 2.0
        steps = record.attributes["steps"]
        assert steps["steps"] == 4
        assert steps["p50_seconds"] == 0.001

    def test_summary_attached_even_on_error(self):
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with sweep_span("test.sweep") as recorder:
                    recorder.record(0.002)
                    raise ValueError("mid-sweep")
        record = tracer.spans[0]
        assert record.status == "error"
        assert record.attributes["steps"]["steps"] == 1


class TestSummarizeDurations:
    def test_empty(self):
        assert summarize_durations([]) == {"steps": 0}

    def test_quantiles_and_rate(self):
        seconds = [0.001] * 90 + [0.01] * 10
        summary = summarize_durations(seconds)
        assert summary["steps"] == 100
        assert summary["p50_seconds"] == 0.001
        assert summary["p99_seconds"] == 0.01
        assert summary["total_seconds"] == pytest.approx(0.19)
        assert summary["steps_per_second"] == pytest.approx(100 / 0.19)

    def test_histogram_counts_everything(self):
        seconds = [1e-7, 1e-6, 1e-4, 1.0]
        summary = summarize_durations(seconds)
        assert sum(summary["histogram"].values()) == len(seconds)
