"""``repro serve``: a JSON-lines query server over stdin/stdout.

One request per input line, one JSON response per output line (flushed
immediately), so the server composes with pipes, sockets via ``nc``, or
a supervising process.  The registry lives for the whole session:
the first query on a model builds it, every later query -- in the same
session or, with a disk cache, in any later one -- hits the cache.

Request shapes (the ``op`` field selects; a line without ``op`` is
treated as a single query):

``{"op": "query", "model": {...}, "t": 100.0, ...}``
    Answer one query; responds with the query's result record.
``{"op": "batch", "queries": [...], "defaults": {...}}``
    Answer a batch; responds with ``{"results": [...], "metrics": ...}``.
``{"op": "metrics"}``
    Snapshot of the session's engine metrics.  With
    ``"format": "prometheus"`` the snapshot is returned as
    ``{"text": ...}`` in the Prometheus exposition format.
``{"op": "ping"}``
    Liveness check; responds ``{"ok": true}``.
``{"op": "shutdown"}``
    Acknowledge and exit the loop.

Additionally, the literal request line ``/metrics`` (no JSON) answers
with the raw Prometheus text exposition -- it is self-terminating via
its ``# EOF`` marker -- so a scraper bridged onto the stream needs no
JSON handling at all.

Malformed input never terminates the loop: the offending line yields an
``{"error": ...}`` response and the server reads on.
"""

from __future__ import annotations

import json
import sys
from typing import Any, IO

from repro.engine.solver import QueryEngine

__all__ = ["serve"]


def _respond(stream: IO[str], payload: dict[str, Any]) -> None:
    stream.write(json.dumps(payload) + "\n")
    stream.flush()


def _handle(engine: QueryEngine, request: Any) -> tuple[dict[str, Any], bool]:
    """Process one request; returns ``(response, keep_running)``."""
    if not isinstance(request, dict):
        return {"error": "request must be a JSON object"}, True
    op = request.get("op", "query")
    if op == "ping":
        return {"ok": True}, True
    if op == "shutdown":
        return {"ok": True, "shutdown": True}, False
    if op == "metrics":
        if request.get("format") == "prometheus":
            return {"text": engine.metrics.prometheus()}, True
        return {"metrics": engine.metrics.as_dict()}, True
    if op == "batch":
        queries = request.get("queries")
        if not isinstance(queries, list):
            return {"error": "batch request needs a 'queries' list"}, True
        batch = engine.run_dicts(queries, defaults=request.get("defaults"))
        return batch.as_dict(), True
    if op == "query":
        record = {key: value for key, value in request.items() if key != "op"}
        batch = engine.run_dicts([record])
        return batch.results[0].as_dict(), True
    return {"error": f"unknown op {op!r}"}, True


def serve(
    engine: QueryEngine | None = None,
    input_stream: IO[str] | None = None,
    output_stream: IO[str] | None = None,
    http_port: int | None = None,
    http_host: str = "127.0.0.1",
) -> int:
    """Run the request loop until EOF or a ``shutdown`` request.

    Returns the process exit code (always 0; protocol-level errors are
    reported in-band so a misbehaving client cannot take the server
    down).

    With ``http_port`` set, a :class:`repro.obs.http.TelemetryServer`
    additionally exposes the session's metrics over HTTP (``/metrics``,
    ``/healthz``) for the lifetime of the loop; ``0`` binds
    an ephemeral port.  The listener is shut down gracefully when the
    loop ends, whichever way it ends.
    """
    engine = engine if engine is not None else QueryEngine()
    source = input_stream if input_stream is not None else sys.stdin
    sink = output_stream if output_stream is not None else sys.stdout

    telemetry = None
    if http_port is not None:
        from repro.obs.http import TelemetryServer

        telemetry = TelemetryServer(
            engine.metrics, host=http_host, port=http_port
        ).start()
        print(f"telemetry listening on {telemetry.url}", file=sys.stderr)
    try:
        _serve_loop(engine, source, sink)
    finally:
        if telemetry is not None:
            telemetry.stop()
    return 0


def _serve_loop(engine: QueryEngine, source: IO[str], sink: IO[str]) -> None:
    for line in source:
        line = line.strip()
        if not line:
            continue
        if line == "/metrics":
            # Raw Prometheus exposition; scrapers detect completeness by
            # the trailing "# EOF" line, so no JSON framing is needed.
            sink.write(engine.metrics.prometheus())
            sink.flush()
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            _respond(sink, {"error": f"invalid JSON: {exc}"})
            continue
        try:
            response, keep_running = _handle(engine, request)
        except Exception as exc:  # pragma: no cover - defensive
            response, keep_running = {"error": f"{type(exc).__name__}: {exc}"}, True
        _respond(sink, response)
        if not keep_running:
            break
