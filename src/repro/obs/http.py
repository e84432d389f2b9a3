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
``GET /traces``
    The most recent finished spans as newline-delimited JSON (the same
    records ``Tracer.as_dicts`` emits); ``?limit=N`` tails the last
    ``N``.

Malformed query strings (non-numeric, negative or absurdly long
``limit`` values) are rejected with 400 rather than bubbling into a
500.

The server is started by ``repro serve --http-port`` alongside the
stdio request loop and standalone by ``repro obs-server``; both shut
it down gracefully (the listener thread is joined, the socket closed).

Reads are snapshots under the store's lock, so scraping a server that is
concurrently answering queries is safe.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterable, Mapping
from urllib.parse import parse_qs

from repro.obs.certificate import health_summary
from repro.obs.export import prometheus_exposition
from repro.obs.metrics import MetricStore

__all__ = ["PROMETHEUS_CONTENT_TYPE", "SpanLog", "TelemetryServer"]

#: Content type of the ``/metrics`` endpoint, per the Prometheus text
#: exposition format specification.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``?limit=`` values longer than this are rejected outright -- no
#: legitimate tail needs a ten-digit limit, and parsing junk that long
#: is a waste.
_MAX_QUERY_VALUE_LENGTH = 9


class SpanLog:
    """Thread-safe ring buffer of finished span records.

    Holds the most recent ``maxlen`` span dictionaries (the shape of
    ``Tracer.as_dicts``) for the ``/traces`` endpoint.  Bounded so a
    long-lived server cannot grow without limit.
    """

    _guarded_by = {"_lock": ("_records",)}

    def __init__(self, maxlen: int = 512) -> None:
        self._records: deque[dict[str, Any]] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def extend(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Append finished span records, oldest first."""
        with self._lock:
            self._records.extend(dict(record) for record in records)

    def tail(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The last ``limit`` records (all of them when ``None``)."""
        with self._lock:
            records = list(self._records)
        if limit is not None and limit >= 0:
            records = records[len(records) - min(limit, len(records)):]
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class _BadRequest(Exception):
    """A client error that should answer 400 with its message."""


def _parse_query(query: str) -> dict[str, str]:
    """The query string as a flat dict; junk values raise _BadRequest.

    Only the *parse* is validated here (single values, sane lengths);
    per-parameter semantics (``limit`` numeric) are checked at the use
    site via :func:`_query_limit`.
    """
    try:
        pairs = parse_qs(query, keep_blank_values=True, strict_parsing=False)
    except ValueError as exc:  # pragma: no cover - parse_qs is lenient
        raise _BadRequest(f"malformed query string: {exc}") from exc
    flat: dict[str, str] = {}
    for key, values in pairs.items():
        value = values[-1]
        if len(value) > _MAX_QUERY_VALUE_LENGTH:
            raise _BadRequest(
                f"query parameter {key!r} too long ({len(value)} chars)"
            )
        flat[key] = value
    return flat


def _query_limit(params: Mapping[str, str]) -> int | None:
    value = params.get("limit")
    if value is None:
        return None
    try:
        limit = int(value)
    except ValueError:
        raise _BadRequest(f"limit must be a non-negative integer, got {value!r}") from None
    if limit < 0:
        raise _BadRequest(f"limit must be non-negative, got {limit}")
    return limit


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Request handler; routing for the telemetry endpoints."""

    server: "TelemetryServer"
    server_version = "repro-obs/1"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, _, query = self.path.partition("?")
        try:
            params = _parse_query(query)
            if path == "/metrics":
                self._get_metrics()
            elif path == "/healthz":
                self._get_healthz()
            elif path == "/traces":
                self._get_traces(params)
            else:
                self._reply(404, "text/plain; charset=utf-8", b"not found\n")
        except _BadRequest as exc:
            self._reply_json(400, {"error": str(exc)})

    # -- GET endpoints -------------------------------------------------
    def _get_metrics(self) -> None:
        body = prometheus_exposition(self.server.metrics).encode("utf-8")
        self._reply(200, PROMETHEUS_CONTENT_TYPE, body)

    def _get_healthz(self) -> None:
        summary = health_summary(self.server.metrics)
        status = summary.get("status", "degraded")
        self._reply_json(200 if status == "ok" else 503, summary)

    def _get_traces(self, params: Mapping[str, str]) -> None:
        records = self.server.span_log.tail(_query_limit(params))
        lines = [json.dumps(record) for record in records]
        body = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
        self._reply(200, "application/x-ndjson", body)

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
    """HTTP telemetry listener over a metric store and a span log.

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
        span_log: SpanLog | None = None,
    ) -> None:
        self.metrics = metrics
        self.span_log = span_log if span_log is not None else SpanLog()
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
