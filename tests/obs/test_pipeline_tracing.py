"""Integration: the instrumented pipeline produces meaningful traces,
``repro profile`` renders them, and ``repro serve`` exposes metrics."""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.ctmdp import CTMDP
from repro.core.reachability import timed_reachability
from repro.engine.serve import serve
from repro.engine.solver import QueryEngine
from repro.obs import tracing
from repro.obs.profile import profile_query


def small_model() -> CTMDP:
    return CTMDP.from_transitions(
        3,
        [
            (0, "a", {1: 2.0, 2: 1.0}),
            (0, "b", {2: 3.0}),
            (1, "c", {1: 3.0}),
            (2, "d", {0: 3.0}),
        ],
    )


class TestSolverTracing:
    def test_sweep_span_with_step_summary(self):
        model = small_model()
        with tracing() as tracer:
            result = timed_reachability(model, [1], 2.0, epsilon=1e-8)
        names = [s.name for s in tracer.spans]
        assert "foxglynn" in names
        assert "reachability.sweep" in names
        sweep = next(s for s in tracer.spans if s.name == "reachability.sweep")
        assert sweep.attributes["iterations"] == result.iterations
        steps = sweep.attributes["steps"]
        assert steps["steps"] == result.iterations
        assert steps["steps_per_second"] > 0.0

    def test_untraced_solve_matches_traced_solve_bitwise(self):
        """Instrumentation must never change the numbers."""
        model = small_model()
        plain = timed_reachability(model, [1], 2.0, epsilon=1e-8)
        with tracing():
            traced = timed_reachability(model, [1], 2.0, epsilon=1e-8)
        np.testing.assert_array_equal(plain.values, traced.values)

    def test_engine_query_produces_phase_spans(self):
        engine = QueryEngine()
        from repro.engine.plan import Query

        with tracing() as tracer:
            batch = engine.run([Query(model={"family": "ftwc", "n": 1}, t=10.0)])
        assert batch.results[0].ok
        names = {s.name for s in tracer.spans}
        assert {"registry.get", "registry.build", "solver.prepare", "solver.solve"} <= names

    @pytest.mark.parametrize(
        ("family", "algorithm"),
        [("ftwc", "ctmdp.reachability"), ("ftwc-ctmc", "ctmc.reachability")],
    )
    def test_certificate_span_is_child_of_solve(self, family, algorithm):
        """The certificate is a named stage of the solve, not self time."""
        engine = QueryEngine()
        from repro.engine.plan import Query

        with tracing() as tracer:
            batch = engine.run([Query(model={"family": family, "n": 1}, t=10.0)])
        assert batch.results[0].ok
        certificates = [s for s in tracer.spans if s.name == "solver.certificate"]
        assert len(certificates) == 1
        assert certificates[0].attributes == {"algorithm": algorithm}
        assert tracer.spans[certificates[0].parent].name == "solver.solve"

    def test_compositional_build_stages_are_named(self):
        """Composition, hiding, pruning, encoding and the quotient are
        spans of the build, not its self time."""
        engine = QueryEngine()
        from repro.engine.plan import Query

        model = {"family": "ftwc-compositional", "n": 1}
        with tracing() as tracer:
            batch = engine.run([Query(model=model, t=10.0)])
        assert batch.results[0].ok
        spans = tracer.spans

        def ancestors(span):
            while span.parent is not None:
                span = spans[span.parent]
                yield span.name

        stages = {"imc.parallel", "imc.hide", "imc.prune", "bisim.encode", "bisim.quotient"}
        for name in stages:
            named = [s for s in spans if s.name == name]
            assert named, name
            assert all("registry.build" in ancestors(s) for s in named), name
        for name in ("bisim.encode", "bisim.quotient"):
            parents = {spans[s.parent].name for s in spans if s.name == name}
            assert parents == {"bisim.minimize"}, name
        parallel = next(s for s in spans if s.name == "imc.parallel")
        assert {"left", "right", "states"} <= set(parallel.attributes)
        assert "states" in next(s for s in spans if s.name == "imc.hide").attributes

    def test_until_sweep_records_step_histogram(self):
        """The until sweep shares the reachability instrumentation."""
        from repro.core.until import timed_until

        model = small_model()
        safe = np.ones(3, dtype=bool)
        goal = np.zeros(3, dtype=bool)
        goal[1] = True
        with tracing() as tracer:
            result = timed_until(model, safe, goal, 2.0, epsilon=1e-8)
        sweep = next(s for s in tracer.spans if s.name == "until.sweep")
        steps = sweep.attributes["steps"]
        assert steps["steps"] == result.iterations > 0
        assert "histogram" in steps

    def test_vi_sweep_records_step_histogram(self):
        """Unbounded value iteration sweeps carry the same per-step summary."""
        from repro.core.ctmdp import CTMDP
        from repro.core.reachability import unbounded_reachability

        ctmdp = CTMDP.from_transitions(
            3,
            [
                (0, "a", {1: 1.0, 2: 1.0}),
                (1, "b", {1: 2.0}),
                (2, "c", {0: 2.0}),
            ],
        )
        with tracing() as tracer:
            unbounded_reachability(ctmdp, [1])
        sweeps = [s for s in tracer.spans if s.name == "vi.sweep"]
        assert [s.attributes["kind"] for s in sweeps] == ["unbounded"]
        assert sweeps[0].attributes["steps"]["steps"] > 0


class TestProfile:
    def test_profile_query_report(self):
        report = profile_query(family="ftwc", n=1, t=10.0)
        rendered = report.render()
        assert "registry.build" in rendered
        assert "reachability.sweep" in rendered
        assert "phase" in rendered
        assert report.value > 0.0
        assert report.iterations > 0

    def test_profile_cli(self, capsys):
        assert main(["profile", "ftwc", "--n", "1", "--t", "10"]) == 0
        out = capsys.readouterr().out
        assert "registry.build" in out
        assert "sweep steps:" in out

    def test_profile_cli_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["profile", "ftwc", "--n", "1", "--t", "10", "--trace-out", str(trace)]
        )
        assert code == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(r["name"] == "reachability.sweep" for r in records)


class TestServeMetrics:
    def _run(self, lines: list[str]) -> list[str]:
        sink = io.StringIO()
        serve(input_stream=io.StringIO("\n".join(lines) + "\n"), output_stream=sink)
        return sink.getvalue().splitlines()

    def test_metrics_endpoint_prometheus_text(self):
        out = self._run(
            [
                json.dumps({"op": "query", "model": {"family": "ftwc", "n": 1}, "t": 5.0}),
                "/metrics",
                json.dumps({"op": "shutdown"}),
            ]
        )
        body = "\n".join(out)
        assert "repro_queries_total_total 1" in body
        assert "# EOF" in body

    def test_metrics_op_prometheus_format(self):
        out = self._run(
            [
                json.dumps({"op": "metrics", "format": "prometheus"}),
                json.dumps({"op": "shutdown"}),
            ]
        )
        payload = json.loads(out[0])
        assert payload["text"].endswith("# EOF\n")

    def test_metrics_op_json_unchanged(self):
        out = self._run(
            [json.dumps({"op": "metrics"}), json.dumps({"op": "shutdown"})]
        )
        assert "metrics" in json.loads(out[0])

    def test_query_response_carries_certificate(self):
        out = self._run(
            [
                json.dumps({"op": "query", "model": {"family": "ftwc", "n": 1}, "t": 5.0}),
                json.dumps({"op": "shutdown"}),
            ]
        )
        record = json.loads(out[0])
        assert record["certificate"]["status"] == "ok"
        assert record["certificate"]["error_bound"] >= 0.0


class TestServeHttp:
    def test_serve_starts_and_stops_http_listener(self):
        import re
        import urllib.request
        from contextlib import redirect_stderr

        from repro.engine.solver import QueryEngine

        # Drive the loop manually: issue a query, scrape over HTTP while
        # the loop is alive, then shut down and check the port is freed.
        import threading

        request_lines = [
            json.dumps({"op": "query", "model": {"family": "ftwc", "n": 1}, "t": 5.0}),
        ]

        class _Feed:
            """Blocking line source that releases lines on demand."""

            def __init__(self):
                self._lines = []
                self._event = threading.Event()
                self._closed = False

            def push(self, line):
                self._lines.append(line)
                self._event.set()

            def close(self):
                self._closed = True
                self._event.set()

            def __iter__(self):
                while True:
                    self._event.wait()
                    if self._lines:
                        yield self._lines.pop(0) + "\n"
                        if not self._lines:
                            self._event.clear()
                    elif self._closed:
                        return

        feed = _Feed()
        sink = io.StringIO()
        stderr = io.StringIO()
        engine = QueryEngine()

        def run():
            with redirect_stderr(stderr):
                serve(engine=engine, input_stream=feed, output_stream=sink,
                      http_port=0)

        thread = threading.Thread(target=run)
        thread.start()
        try:
            for line in request_lines:
                feed.push(line)
            # Wait for the listener announcement, then scrape.
            for _ in range(200):
                match = re.search(r"http://[\d.]+:(\d+)", stderr.getvalue())
                if match:
                    break
                thread.join(0.02)
            assert match, "telemetry URL was never announced"
            port = int(match.group(1))
            for _ in range(200):
                if "repro_queries_total_total 1" in urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=5.0
                ).read().decode():
                    break
                thread.join(0.02)
            health = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=5.0
                ).read()
            )
            assert health["status"] == "ok"
        finally:
            feed.push(json.dumps({"op": "shutdown"}))
            feed.close()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        import socket

        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5).close()


class TestOverheadShape:
    def test_disabled_span_is_cheap_relative_to_work(self):
        """Coarse sanity guard (the precise budget lives in
        benchmarks/test_bench_obs.py): a million disabled span entries
        must cost well under a second."""
        import time

        from repro.obs import span

        started = time.perf_counter()
        for _ in range(1_000_000):
            with span("hot"):
                pass
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0
