"""The HTTP telemetry server: endpoints, health verdicts, shutdown."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricStore, span, tracing
from repro.obs.http import PROMETHEUS_CONTENT_TYPE, SpanLog, TelemetryServer


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode("utf-8")


@pytest.fixture()
def store():
    store = MetricStore()
    store.count("queries_total", 3)
    store.add_time("solve_seconds", 0.5)
    store.count("certificates_total", 3)
    store.gauge("certificate_last_error_bound", 1e-9)
    return store


class TestEndpoints:
    def test_metrics_exposition(self, store):
        with TelemetryServer(store) as server:
            status, headers, body = _get(f"{server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert "repro_queries_total_total 3" in body
        assert body.endswith("# EOF\n")

    def test_healthz_ok(self, store):
        with TelemetryServer(store) as server:
            status, headers, body = _get(f"{server.url}/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["certificates"]["total"] == 3

    def test_healthz_degraded_is_503(self, store):
        store.count("certificates_degraded")
        with TelemetryServer(store) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/healthz", timeout=5.0)
        assert excinfo.value.code == 503
        payload = json.loads(excinfo.value.read())
        assert payload["status"] == "degraded"

    def test_traces_ndjson_and_limit(self, store):
        log = SpanLog()
        with tracing() as tracer:
            for index in range(5):
                with span("phase", index=index):
                    pass
        log.extend(tracer.as_dicts())
        with TelemetryServer(store, span_log=log) as server:
            _status, headers, body = _get(f"{server.url}/traces")
            assert headers["Content-Type"] == "application/x-ndjson"
            records = [json.loads(line) for line in body.splitlines()]
            assert len(records) == 5
            assert all(record["name"] == "phase" for record in records)
            assert all(record["trace_id"] == tracer.trace_id for record in records)

            _status, _headers, tail = _get(f"{server.url}/traces?limit=2")
            tail_records = [json.loads(line) for line in tail.splitlines()]
            assert [r["attributes"]["index"] for r in tail_records] == [3, 4]

    def test_traces_empty_log(self, store):
        with TelemetryServer(store) as server:
            status, _headers, body = _get(f"{server.url}/traces")
        assert status == 200
        assert body == ""

    def test_unknown_path_is_404(self, store):
        with TelemetryServer(store) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/nope", timeout=5.0)
        assert excinfo.value.code == 404


class TestLifecycle:
    def test_ephemeral_port_resolved(self, store):
        server = TelemetryServer(store, port=0)
        try:
            assert server.port > 0
            assert str(server.port) in server.url
        finally:
            server.stop()

    def test_stop_releases_the_port(self, store):
        server = TelemetryServer(store).start()
        host, port = "127.0.0.1", server.port
        server.stop()
        # Connecting after a clean stop must be refused.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5).close()

    def test_double_start_rejected(self, store):
        server = TelemetryServer(store).start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_stop_without_start_closes_socket(self, store):
        TelemetryServer(store).stop()  # must not raise

    def test_concurrent_scrapes(self, store):
        import concurrent.futures

        with TelemetryServer(store) as server:
            url = f"{server.url}/metrics"
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                bodies = list(pool.map(lambda _: _get(url)[2], range(16)))
        assert all(body.endswith("# EOF\n") for body in bodies)


class TestQueryValidation:
    """Junk query strings answer 400, not a traceback-into-500."""

    @pytest.mark.parametrize(
        "query",
        [
            "limit=frob",
            "limit=-1",
            "limit=1e3",
            "limit=" + "9" * 40,
        ],
    )
    def test_bad_traces_limit_is_400(self, store, query):
        with TelemetryServer(store) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/traces?{query}", timeout=5.0)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert "error" in payload

    def test_valid_limit_still_works(self, store):
        log = SpanLog()
        log.extend([{"name": f"s{i}"} for i in range(5)])
        with TelemetryServer(store, span_log=log) as server:
            _status, _headers, body = _get(f"{server.url}/traces?limit=2")
        assert len(body.splitlines()) == 2


class TestSpanLog:
    def test_ring_buffer_bounds_memory(self):
        log = SpanLog(maxlen=3)
        log.extend({"name": f"s{i}"} for i in range(10))
        assert len(log) == 3
        assert [record["name"] for record in log.tail()] == ["s7", "s8", "s9"]

    def test_tail_limit_clamps(self):
        log = SpanLog()
        log.extend([{"name": "a"}, {"name": "b"}])
        assert len(log.tail(100)) == 2
        assert log.tail(0) == []
        assert [r["name"] for r in log.tail(1)] == ["b"]

    def test_concurrent_extends_lose_nothing(self):
        import threading

        log = SpanLog(maxlen=100_000)
        writers, per_writer = 8, 1000
        barrier = threading.Barrier(writers)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(per_writer):
                log.extend([{"worker": worker, "index": i}])

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = log.tail()
        assert len(records) == writers * per_writer
        # Per-writer order is preserved even under interleaving.
        for worker in range(writers):
            indices = [r["index"] for r in records if r["worker"] == worker]
            assert indices == list(range(per_writer))

    def test_concurrent_extend_and_tail(self):
        import threading

        log = SpanLog(maxlen=256)
        stop = threading.Event()

        def write() -> None:
            i = 0
            while not stop.is_set():
                log.extend([{"index": i}])
                i += 1

        writer = threading.Thread(target=write)
        writer.start()
        try:
            for _ in range(200):
                tail = log.tail(16)
                indices = [record["index"] for record in tail]
                assert indices == sorted(indices), "torn tail read"
        finally:
            stop.set()
            writer.join()
