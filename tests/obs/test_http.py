"""The HTTP telemetry server: endpoints, health verdicts, shutdown."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricStore
from repro.obs.http import PROMETHEUS_CONTENT_TYPE, TelemetryServer


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

    @pytest.mark.parametrize("path", ["/nope", "/traces"])
    def test_unknown_path_is_404(self, store, path):
        with TelemetryServer(store) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}{path}", timeout=5.0)
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
