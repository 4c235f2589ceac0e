"""Hierarchical, thread-safe span tracing for the whole runtime.

Every stage the compilation driver, the cache, the graph scheduler and
the simulator execute is wrapped in a :func:`span`::

    with span("compile.frontend") as sp:
        ...                       # do the work
    timings["frontend_ms"] = sp.duration_ms

Spans nest through a *per-thread* stack: a span opened while another is
active on the same thread becomes its child.  Work fanned out to a
:class:`~concurrent.futures.ThreadPoolExecutor` keeps its lineage by
capturing :func:`current_id` on the submitting thread and re-entering it
in the worker with :func:`child_of` — the per-thread stacks are stitched
back together by parent id, so a Chrome-trace export shows the graph
scheduler's branches and the exploration chunks under the spans that
spawned them.  (Process pools cannot share the tracer; spans produced in
child processes are simply not recorded — see docs/OBSERVABILITY.md.)

Tracing is **opt-in**: with no active :class:`Tracer` a :func:`span`
still measures its own duration (the compile driver's stage timings are
views over spans and must work unconditionally) but records nothing and
never touches shared state.  Enable collection either

* programmatically — ``with tracing() as tracer: ...``, or
* process-wide — ``REPRO_TRACE=1`` in the environment, optionally with
  ``REPRO_TRACE_OUT=/path/trace.json`` to write a Chrome trace at exit.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One timed, named region of work.

    ``start_us``/``end_us`` are microseconds relative to the recording
    tracer's epoch (absolute ``perf_counter`` microseconds when the span
    ran unrecorded).  ``parent_id`` is the ``span_id`` of the enclosing
    span — possibly one running on a different thread (see
    :func:`child_of`).
    """

    __slots__ = ("name", "span_id", "parent_id", "thread_id",
                 "start_us", "end_us", "attrs")

    def __init__(self, name: str, span_id: int,
                 parent_id: Optional[int], thread_id: int,
                 start_us: float, attrs: Dict[str, Any]):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = thread_id
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attrs = attrs

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    @property
    def duration_ms(self) -> float:
        return self.duration_us / 1e3

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "duration_ms": self.duration_ms,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, {self.duration_ms:.3f} ms)")


class Tracer:
    """Collects finished spans; all methods are thread-safe.

    Span ids are assigned at span *start* from one shared counter, so
    sorting the collected spans by ``(start_us, span_id)`` reproduces
    creation order deterministically — the property the golden-trace
    test pins.
    """

    def __init__(self, name: str = "repro"):
        self.name = name
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 1
        self._epoch = time.perf_counter()

    def now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def next_id(self) -> int:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            return sid

    def record(self, sp: Span) -> None:
        with self._lock:
            self._spans.append(sp)

    def spans(self) -> List[Span]:
        """Finished spans, in deterministic creation order."""
        with self._lock:
            out = list(self._spans)
        out.sort(key=lambda s: (s.start_us, s.span_id))
        return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# --------------------------------------------------------------------------
# Module state: the active tracer + per-thread span stacks
# --------------------------------------------------------------------------

_active: Optional[Tracer] = None
_install_lock = threading.Lock()
_state = threading.local()


def _stack() -> List[Span]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


def get_tracer() -> Optional[Tracer]:
    """The currently installed tracer, or ``None`` when disabled."""
    return _active


def enabled() -> bool:
    return _active is not None


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install *tracer* (or a fresh one) as the process-wide collector."""
    global _active
    with _install_lock:
        if tracer is None:
            tracer = Tracer()
        _active = tracer
        return tracer


def disable() -> Optional[Tracer]:
    """Uninstall and return the active tracer (``None`` if none was)."""
    global _active
    with _install_lock:
        tracer, _active = _active, None
        return tracer


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Collect spans for the duration of the block::

        with tracing() as tracer:
            compile_kernel(...)
        chrome_trace(tracer)

    Restores whatever tracer (or lack of one) was active before.
    """
    global _active
    with _install_lock:
        previous = _active
        if tracer is None:
            tracer = Tracer()
        _active = tracer
    try:
        yield tracer
    finally:
        with _install_lock:
            _active = previous


def current_id() -> Optional[int]:
    """Span id of this thread's innermost open span (for stitching)."""
    stack = _stack()
    if stack:
        return stack[-1].span_id
    return getattr(_state, "adopted", None)


@contextmanager
def child_of(parent_id: Optional[int]) -> Iterator[None]:
    """Adopt *parent_id* as this thread's span parent.

    Used by thread-pool workers: the submitter captures
    :func:`current_id` and the worker wraps its work in
    ``child_of(token)`` so its spans parent across the thread boundary.
    A ``None`` token is a no-op, which lets call sites stitch
    unconditionally.
    """
    prev = getattr(_state, "adopted", None)
    _state.adopted = parent_id
    try:
        yield
    finally:
        _state.adopted = prev


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span]:
    """Time a named region; record it if a tracer is active.

    Always yields a :class:`Span` whose ``duration_ms`` is valid after
    the block — disabled tracing only skips collection, never timing,
    because ``CompiledKernel.stage_timings`` is a view over these spans.
    """
    tracer = _active
    if tracer is None:
        sp = Span(name, 0, None, threading.get_ident(),
                  time.perf_counter() * 1e6, attrs)
        try:
            yield sp
        finally:
            sp.end_us = time.perf_counter() * 1e6
        return

    stack = _stack()
    parent = stack[-1].span_id if stack \
        else getattr(_state, "adopted", None)
    sp = Span(name, tracer.next_id(), parent, threading.get_ident(),
              tracer.now_us(), attrs)
    stack.append(sp)
    try:
        yield sp
    finally:
        sp.end_us = tracer.now_us()
        # tolerate a tracer swapped mid-span: unwind by identity
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:           # pragma: no cover - defensive
            stack.remove(sp)
        tracer.record(sp)


# --------------------------------------------------------------------------
# Environment toggle (REPRO_TRACE / REPRO_TRACE_OUT)
# --------------------------------------------------------------------------


def _truthy(value: str) -> bool:
    return value.strip().lower() not in ("", "0", "false", "no", "off")


def _env_setup() -> None:
    if not _truthy(os.environ.get("REPRO_TRACE", "")):
        return
    tracer = enable()
    out = os.environ.get("REPRO_TRACE_OUT", "").strip()
    if out:
        import atexit

        def _write() -> None:
            from .export import write_chrome_trace
            try:
                write_chrome_trace(tracer, out)
            except OSError:      # pragma: no cover - best effort at exit
                pass

        atexit.register(_write)


_env_setup()
