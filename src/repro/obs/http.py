"""Stdlib HTTP telemetry endpoint for the analysis engine.

A :class:`TelemetryServer` exposes the live observability state of a
running process over plain HTTP -- no third-party dependency, just
``http.server`` on a daemon thread:

``GET /metrics``
    The engine's :class:`~repro.obs.metrics.MetricStore` in Prometheus
    text exposition format (``text/plain; version=0.0.4``).
``GET /healthz``
    JSON health summary derived from the numerical-health certificates
    recorded in the store (:func:`repro.obs.certificate.health_summary`);
    ``200`` while every certificate is healthy, ``503`` once any solve
    was degraded.

Every other path answers 404.

The server is started by ``repro serve --http-port`` alongside the
stdio request loop, which shuts it down gracefully (the listener thread
is joined, the socket closed).

Reads are snapshots under the store's lock, so scraping a server that is
concurrently answering queries is safe.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from repro.obs.certificate import health_summary
from repro.obs.export import prometheus_exposition
from repro.obs.metrics import MetricStore

__all__ = ["PROMETHEUS_CONTENT_TYPE", "TelemetryServer"]

#: Content type of the ``/metrics`` endpoint, per the Prometheus text
#: exposition format specification.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

class _TelemetryHandler(BaseHTTPRequestHandler):
    """Request handler; routing for the telemetry endpoints."""

    server: "TelemetryServer"
    server_version = "repro-obs/1"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.partition("?")[0]
        if path == "/metrics":
            self._get_metrics()
        elif path == "/healthz":
            self._get_healthz()
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    # -- GET endpoints -------------------------------------------------
    def _get_metrics(self) -> None:
        body = prometheus_exposition(self.server.metrics).encode("utf-8")
        self._reply(200, PROMETHEUS_CONTENT_TYPE, body)

    def _get_healthz(self) -> None:
        summary = health_summary(self.server.metrics)
        status = summary.get("status", "degraded")
        self._reply_json(200 if status == "ok" else 503, summary)

    # -- plumbing ------------------------------------------------------
    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self._reply(status, "application/json", body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging; scrapes are frequent."""


class TelemetryServer(ThreadingHTTPServer):
    """HTTP telemetry listener over a metric store.

    Binds immediately on construction (``port=0`` picks a free port,
    readable as :attr:`port`); :meth:`start` spins up the daemon
    listener thread and :meth:`stop` shuts it down gracefully.  Usable
    as a context manager::

        with TelemetryServer(engine.metrics) as server:
            urllib.request.urlopen(f"{server.url}/metrics")
    """

    daemon_threads = True
    _guarded_by = {"_lock": ("_thread",)}

    def __init__(
        self,
        metrics: MetricStore,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.metrics = metrics
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        super().__init__((host, port), _TelemetryHandler)

    @property
    def port(self) -> int:
        """The bound TCP port (resolved after ``port=0``)."""
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the listener, e.g. ``http://127.0.0.1:8943``."""
        return f"http://{self.server_address[0]}:{self.port}"

    def start(self) -> "TelemetryServer":
        """Serve on a daemon thread; returns ``self`` for chaining."""
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("telemetry server already started")
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-obs-http", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, join the listener thread, close the socket.

        The listener handle is swapped out under the lock, but
        ``shutdown``/``join`` run outside it: ``shutdown`` blocks until
        ``serve_forever`` drains, and holding the lock across a blocking
        wait would stall every other caller of the lock.
        """
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            self.shutdown()
            thread.join(timeout=5.0)
        self.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
