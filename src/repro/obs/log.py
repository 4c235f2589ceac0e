"""Structured JSON event logging for the request path.

Spans answer "where did the time go"; the structured log answers "what
happened to request X" — one JSON object per line, one line per
lifecycle edge, every line carrying the ``request_id`` minted at serve
intake, so an operator can grep a single request end-to-end and join it
against the trace (the same id rides the ``serve.request`` /
``serve.plan`` / ``serve.exec`` span attrs).

The emitter mirrors the tracer's contract exactly:

* **opt-in** — with no sink installed :func:`log_event` is a no-op that
  never formats anything, so the hot path pays one ``None`` check;
* programmatic — ``with logging_to(buffer): ...`` (tests), or
  :func:`enable`/:func:`disable` for long-running hosts;
* environment — ``REPRO_LOG=1`` logs to stderr,
  ``REPRO_LOG_OUT=/path/file.jsonl`` appends to a file instead —
  the toggle pair mirrors ``REPRO_TRACE``/``REPRO_TRACE_OUT``.

Event names are dot-scoped under ``request.*`` and enumerated in
:data:`EVENTS` — the catalogue docs/OBSERVABILITY.md documents and the
serve tests assert against.  Fields are flat JSON scalars; ``ts`` is
Unix time, ``thread`` is the emitting thread's name.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, TextIO

#: the structured-log event catalogue (docs/OBSERVABILITY.md).  Every
#: ``log_event`` call site uses one of these names; the serve tests and
#: the log-validating assertions reject events outside the catalogue.
EVENTS = (
    "request.received",    # accepted at intake
    "request.shed",        # refused: queue at capacity (429)
    "request.rejected",    # refused: draining (503) or malformed (400)
    "request.grouped",     # opened or joined its fingerprint's group
    "request.dispatched",  # a worker started executing the group
    "request.completed",   # a result (success or error doc) delivered
    "request.timeout",     # waiter deadline expired (504)
    "request.cancelled",   # group skipped: every waiter abandoned
    "request.drained",     # flushed during graceful shutdown (503)
    "serve.started",       # service worker threads are up
    "serve.draining",      # drain began
)


class EventLog:
    """A line-oriented JSON sink; all writes are serialised."""

    def __init__(self, stream: TextIO):
        self.stream = stream
        self._lock = threading.Lock()

    def emit(self, event: str, fields: Dict[str, Any]) -> None:
        doc: Dict[str, Any] = {"ts": round(time.time(), 6),
                               "event": event,
                               "thread": threading.current_thread().name}
        for key, value in fields.items():
            if value is None or isinstance(value, (str, int, float, bool)):
                doc[key] = value
            elif isinstance(value, (list, tuple)):
                doc[key] = [str(v) if not isinstance(
                    v, (str, int, float, bool)) else v for v in value]
            else:
                doc[key] = str(value)
        line = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        with self._lock:
            try:
                self.stream.write(line + "\n")
                self.stream.flush()
            except (OSError, ValueError):   # closed/broken sink must
                pass                        # never take down a request


_active: Optional[EventLog] = None
_install_lock = threading.Lock()


def enabled() -> bool:
    return _active is not None


def get_log() -> Optional[EventLog]:
    return _active


def enable(stream: Optional[TextIO] = None) -> EventLog:
    """Install a process-wide event log (default sink: stderr)."""
    global _active
    import sys
    with _install_lock:
        log = EventLog(stream if stream is not None else sys.stderr)
        _active = log
        return log


def disable() -> Optional[EventLog]:
    global _active
    with _install_lock:
        log, _active = _active, None
        return log


@contextmanager
def logging_to(stream: Optional[TextIO] = None
               ) -> Iterator[EventLog]:
    """Collect events for the duration of the block (tests pass a
    ``StringIO``); restores whatever sink was active before::

        with logging_to(io.StringIO()) as log:
            service.handle(body)
        events = [json.loads(l) for l in log.stream.getvalue().splitlines()]
    """
    global _active
    with _install_lock:
        previous = _active
        log = EventLog(stream if stream is not None else io.StringIO())
        _active = log
    try:
        yield log
    finally:
        with _install_lock:
            _active = previous


def log_event(event: str, **fields: Any) -> None:
    """Emit one structured event if a sink is installed (no-op cost:
    a single global read when logging is off)."""
    log = _active
    if log is None:
        return
    log.emit(event, fields)


def new_request_id() -> str:
    """A fresh request id: 16 hex chars, unique per process lifetime
    for any realistic request volume, cheap to grep."""
    return uuid.uuid4().hex[:16]


# --------------------------------------------------------------------------
# Environment toggle (REPRO_LOG / REPRO_LOG_OUT)
# --------------------------------------------------------------------------


def _truthy(value: str) -> bool:
    return value.strip().lower() not in ("", "0", "false", "no", "off")


def _env_setup() -> None:
    out = os.environ.get("REPRO_LOG_OUT", "").strip()
    if not _truthy(os.environ.get("REPRO_LOG", "")) and not out:
        return
    if out:
        try:
            stream = open(out, "a", encoding="utf-8")
        except OSError:
            return
        import atexit
        atexit.register(stream.close)
        enable(stream)
    else:
        enable()


_env_setup()
