"""Stdlib HTTP client for a running ``repro serve`` instance.

Used by the benchmark, the e2e tests and downstream applications; the
only dependency beyond numpy is :mod:`http.client`.  Typed exceptions
mirror the server's load-management answers so callers can distinguish
"retry later" (:class:`ServerBusy`, :class:`ServerDraining`) from
"your request is wrong" (:class:`ServeError` with ``http_status``
400) and "give up on this one" (:class:`RequestTimeout`)::

    client = ServeClient("127.0.0.1", 8077)
    client.wait_ready()
    result = client.execute(pipeline="edge", image=array)
    result.image          # np.ndarray, byte-identical to a direct
                          # Scheduler execution of the same pipeline
    result.meta           # launches, engine, cache_hits, fingerprint
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from .protocol import decode_image, dump_json, encode_image


class ServeError(RuntimeError):
    """The server answered with an error document."""

    def __init__(self, http_status: int, doc: Dict[str, Any]):
        message = doc.get("message", doc.get("error", "unknown error"))
        super().__init__(f"HTTP {http_status}: {message}")
        self.http_status = http_status
        self.doc = doc


class ServerBusy(ServeError):
    """Load shed (429); honour ``retry_after`` before retrying."""

    @property
    def retry_after(self) -> float:
        return float(self.doc.get("retry_after", 1.0))


class ServerDraining(ServeError):
    """The instance is shutting down (503, retriable elsewhere)."""

    @property
    def retry_after(self) -> float:
        return float(self.doc.get("retry_after", 1.0))


class RequestTimeout(ServeError):
    """The per-request deadline expired server-side (504)."""


@dataclasses.dataclass
class ExecuteResult:
    """A successful ``/v1/execute`` answer."""

    image: np.ndarray
    meta: Dict[str, Any]
    #: server-minted correlation id — grep the server's structured log
    #: or trace for it
    request_id: str = ""


_ERROR_TYPES = {429: ServerBusy, 503: ServerDraining,
                504: RequestTimeout}


class ServeClient:
    """Keep-alive client: one persistent HTTP/1.1 connection per
    calling thread (the handler answers with Content-Length, so the
    connection survives across requests); a dropped connection is
    re-dialled once, transparently."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8077,
                 timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    # -- plumbing ------------------------------------------------------------

    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Drop this thread's persistent connection."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def _roundtrip(self, conn: http.client.HTTPConnection, method: str,
                   path: str, payload: Optional[bytes],
                   headers: Dict[str, str]):
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response, response.read()

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
        payload = None
        headers: Dict[str, str] = {}
        if body is not None:
            payload = dump_json(body)
            headers["Content-Type"] = "application/json"
        conn = self._conn()
        try:
            response, raw = self._roundtrip(conn, method, path,
                                            payload, headers)
        except (http.client.HTTPException, ConnectionError,
                BrokenPipeError):
            # stale keep-alive connection (server restarted, idle
            # timeout): re-dial once and retry
            self.close()
            conn = self._conn()
            response, raw = self._roundtrip(conn, method, path,
                                            payload, headers)
        doc = json.loads(raw)
        if response.status >= 400:
            raise _ERROR_TYPES.get(response.status, ServeError)(
                response.status, doc)
        return doc

    # -- endpoints -----------------------------------------------------------

    def execute(self, image: np.ndarray,
                pipeline: Optional[str] = None,
                chain: Optional[List[Dict[str, Any]]] = None,
                device: Optional[str] = None,
                backend: Optional[str] = None,
                engine: Optional[str] = None,
                timeout_ms: Optional[float] = None) -> ExecuteResult:
        """Run *image* through a named *pipeline* or inline *chain*."""
        body: Dict[str, Any] = {"image": encode_image(image)}
        if pipeline is not None:
            body["pipeline"] = pipeline
        if chain is not None:
            body["chain"] = chain
        for key, value in (("device", device), ("backend", backend),
                           ("engine", engine),
                           ("timeout_ms", timeout_ms)):
            if value is not None:
                body[key] = value
        doc = self._request("POST", "/v1/execute", body)
        return ExecuteResult(image=decode_image(doc["image"]),
                             meta=doc.get("meta", {}),
                             request_id=doc.get("request_id", ""))

    def execute_raw(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """POST a prebuilt request body (tests exercising edge cases)."""
        return self._request("POST", "/v1/execute", body)

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        return self._request("GET", "/metrics")

    def wait_ready(self, timeout: float = 10.0,
                   interval: float = 0.05) -> None:
        """Poll ``/healthz`` until the server answers, raising
        :class:`TimeoutError` after *timeout* seconds."""
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                self.healthz()
                return
            except (OSError, ServeError, ValueError) as exc:
                last = exc
                time.sleep(interval)
        raise TimeoutError(
            f"server at {self.host}:{self.port} not ready within "
            f"{timeout}s: {last}")
