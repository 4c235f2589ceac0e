"""The stdlib-only HTTP front door for :class:`~repro.serve.ServeService`.

Endpoints:

* ``POST /v1/execute`` — one JSON request (protocol.py), answered with
  the result image or a typed error; the handler thread carries a
  ``serve.request`` span;
* ``GET /healthz`` — liveness + readiness: ``{"status": "ok" |
  "draining", "protocol": N, "uptime_s": ..., "started_at_unix": ...,
  "engine": ..., "engine_fingerprint": ...}``; draining answers 503 so
  load balancers stop routing here during shutdown;
* ``GET /metrics`` — the process metrics registry snapshot as JSON
  (the same document the trace exporters embed), including the
  ``serve.*`` and flattened ``*.hist.*`` namespaces;
  ``GET /metrics?format=prometheus`` renders the same snapshot as
  Prometheus text exposition (:mod:`repro.obs.prom`) for scrapers.

Every ``POST /v1/execute`` response carries the ``request_id`` minted
at intake — in the JSON document (top level, and under ``meta`` on
success) and as the ``X-Request-Id`` header — joining the response to
its structured-log lines and its ``serve.*`` spans.

:func:`run_server` is the ``repro serve`` entry point: it installs
SIGTERM/SIGINT handlers that trigger a graceful drain (in-flight
requests complete, queued ones are rejected retriable) and returns 0
on a clean exit.  The bound port is printed as the first stdout line
(``listening on http://host:port``) so callers using ``--port 0`` can
discover the ephemeral port.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs import get_registry, span
from ..obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from ..obs.prom import render_prometheus
from .protocol import PROTOCOL_VERSION, error_response
from .service import ServeConfig, ServeService

#: refuse request bodies above this size before reading them fully;
#: large enough for a MAX_PIXELS float64 image with base64 overhead
MAX_BODY_BYTES = 1024 * 1024 * 1024


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns the service it fronts."""

    daemon_threads = True
    #: SO_REUSEADDR so a drained server's port is immediately reusable
    allow_reuse_address = True

    def __init__(self, addr: Tuple[str, int], service: ServeService):
        super().__init__(addr, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    #: quiet by default: per-request access logging is the span's job
    protocol_version = "HTTP/1.1"
    #: headers and body leave in two writes; with Nagle on, the body
    #: waits for the client's delayed ACK of the headers (~40 ms) on
    #: every keep-alive response
    disable_nagle_algorithm = True

    @property
    def service(self) -> ServeService:
        return self.server.service    # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        pass

    # -- plumbing ------------------------------------------------------------

    def _send_json(self, status: int, doc: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        payload = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass                       # client went away; nothing to do

    def _retry_headers(self, doc: Dict[str, Any]) -> Dict[str, str]:
        retry_after = doc.get("retry_after")
        if retry_after is None:
            return {}
        return {"Retry-After": f"{float(retry_after):.0f}"}

    # -- endpoints -----------------------------------------------------------

    def do_GET(self) -> None:          # noqa: N802 - stdlib casing
        parts = urlsplit(self.path)
        if parts.path == "/healthz":
            doc = self.service.health()
            self._send_json(503 if doc["status"] == "draining" else 200,
                            doc)
        elif parts.path == "/metrics":
            fmt = parse_qs(parts.query).get("format", ["json"])[-1]
            if fmt == "prometheus":
                payload = render_prometheus().encode()
                self.send_response(200)
                self.send_header("Content-Type", PROM_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                try:
                    self.wfile.write(payload)
                except (BrokenPipeError, ConnectionResetError):
                    pass
            elif fmt == "json":
                self._send_json(200, get_registry().snapshot())
            else:
                self._send_json(400, error_response(
                    "bad_format",
                    f"unknown metrics format {fmt!r} "
                    f"(json | prometheus)"))
        else:
            self._send_json(404, error_response(
                "not_found", f"no such endpoint {self.path!r}"))

    def do_POST(self) -> None:         # noqa: N802 - stdlib casing
        if self.path != "/v1/execute":
            self._send_json(404, error_response(
                "not_found", f"no such endpoint {self.path!r}"))
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length <= 0:
            self._send_json(411, error_response(
                "length_required", "Content-Length required"))
            return
        if length > MAX_BODY_BYTES:
            self._send_json(413, error_response(
                "too_large",
                f"body exceeds {MAX_BODY_BYTES} bytes"))
            return
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, error_response(
                "bad_json", f"request body is not JSON: {exc}"))
            return
        with span("serve.request", path=self.path) as req_span:
            status, doc = self.service.handle(body)
            req_span.attrs["http_status"] = status
            if isinstance(doc.get("request_id"), str):
                req_span.attrs["request_id"] = doc["request_id"]
            meta = doc.get("meta")
            if isinstance(meta, dict) and "fingerprint" in meta:
                req_span.attrs["fingerprint"] = meta["fingerprint"][:16]
        headers = self._retry_headers(doc)
        if isinstance(doc.get("request_id"), str):
            headers["X-Request-Id"] = doc["request_id"]
        self._send_json(status, doc, headers=headers)


def create_server(host: str = "127.0.0.1", port: int = 0,
                  config: Optional[ServeConfig] = None,
                  cache=None) -> ServeHTTPServer:
    """Build the HTTP server and start its service threads.  ``port=0``
    binds an ephemeral port — read it from ``server.server_address``."""
    service = ServeService(config=config, cache=cache).start()
    return ServeHTTPServer((host, port), service)


def run_server(host: str = "127.0.0.1", port: int = 8077,
               config: Optional[ServeConfig] = None,
               cache=None,
               drain_timeout: Optional[float] = 30.0,
               install_signals: bool = True,
               ready_line: bool = True,
               trace_out: Optional[str] = None) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully.  Returns the
    process exit code (0 = clean drain).

    With *trace_out*, the whole serving session runs under the
    :mod:`repro.obs` tracer and the Chrome-trace document (including
    the metrics snapshot) is written there after the drain — the CI
    serve job validates that export against the trace schema.
    """
    import contextlib

    stack = contextlib.ExitStack()
    tracer = None
    if trace_out is not None:
        from ..obs import tracing
        tracer = stack.enter_context(tracing())
    server = create_server(host, port, config=config, cache=cache)
    bound_host, bound_port = server.server_address[:2]
    if ready_line:
        print(f"listening on http://{bound_host}:{bound_port}",
              flush=True)

    stop = threading.Event()

    def _on_signal(signum, frame):     # noqa: ARG001 - signal API
        stop.set()

    if install_signals:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    serve_thread = threading.Thread(target=server.serve_forever,
                                    name="serve-http", daemon=True)
    serve_thread.start()
    try:
        while not stop.wait(timeout=0.2):
            pass
    except KeyboardInterrupt:
        pass
    # drain first so /healthz flips to draining while in-flight work
    # completes, then stop accepting connections at the socket level
    drained = server.service.drain(timeout=drain_timeout)
    server.shutdown()
    server.server_close()
    serve_thread.join(timeout=5.0)
    if tracer is not None:
        from ..obs import write_chrome_trace
        stack.close()            # stop collecting before exporting
        write_chrome_trace(tracer, trace_out)
        print(f"trace ({len(tracer)} spans) written to {trace_out}",
              flush=True)
    if ready_line:
        print("drained" if drained else "drain timed out", flush=True)
    return 0 if drained else 1
