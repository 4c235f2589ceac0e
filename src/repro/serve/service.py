"""The serve request engine: queue, batching window, dedup, workers.

Lifecycle of one request::

    handle() -> submit() -> [bounded queue] -> dispatcher thread
        -> batching window -> group by fingerprint -> worker pool
        -> plan + execute (once per group) -> wake every waiter

The **dispatcher** is a single thread that sleeps until work arrives,
keeps collecting for ``batch_window_ms`` so concurrent identical
requests land in the same batch, then groups the drained batch by
:func:`~repro.serve.protocol.request_fingerprint`.  Each group is
handed to the worker pool as *one* unit: it plans once, executes once,
and every member request receives the same response document
(``serve.dedup_hits`` counts the members that got an answer without an
execution of their own).

Every worker thread owns a :class:`~repro.graph.pool.BufferPool` arena
(thread-local) that is :meth:`~repro.graph.pool.BufferPool.reset`
between requests — buffers go back to the free lists but the arenas
stay allocated, so a warm worker executes without touching the
allocator.  All workers share one process-wide
:class:`~repro.cache.CompilationCache`; the cache's per-key
single-flight locking guarantees N concurrent misses of the same kernel
compile exactly once.

Above the cache sits a bounded LRU of idle
:class:`~repro.graph.scheduler.PreparedGraph` instances keyed by request
*structure* (work, shape, wire dtype, engine — not pixels): a warm
request checks one out, loads its frame, runs and checks it back in, so
it pays for decode, its kernels and encode but never re-plans,
re-fuses, re-compiles or re-proves (docs/SERVING.md, "Warm path").

Robustness is explicit state, not best effort:

* the queue is bounded — :meth:`ServeService.submit` raises
  :class:`QueueFull` (HTTP 429 + Retry-After) instead of buffering
  without limit;
* every request carries a deadline — waiters that hit it get
  :class:`RequestTimedOut` (HTTP 504); a group whose waiters have *all*
  given up before execution starts is cancelled without executing;
* :meth:`ServeService.drain` (SIGTERM) stops intake, rejects whatever
  is still queued as retriable (HTTP 503), waits for in-flight groups
  to finish, and leaves the cache/arenas intact for inspection.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..cache import CompilationCache
from ..graph.pool import BufferPool
from ..graph.scheduler import PreparedGraph, prepare_graph
from ..obs import get_registry, span
from ..obs.hist import get_histograms, observe
from ..obs.log import log_event, new_request_id
from ..obs.schema import SERVE_COUNTERS, SERVE_HISTOGRAMS
from .planner import Plan, plan_request
from .protocol import (PROTOCOL_VERSION, ProtocolError, _canonical_work,
                       decode_image, encode_image, error_response,
                       request_fingerprint)

#: idle prepared graphs the service keeps, over all request structures;
#: the least recently used one is dropped beyond it
PREPARED_CACHE_SIZE = 32


class ServeRejected(RuntimeError):
    """Base for submissions the service refused; carries the HTTP
    status and response document the front door should send."""

    http_status = 500
    code = "rejected"

    def __init__(self, message: str, **extra: Any):
        super().__init__(message)
        self.doc = error_response(self.code, message, **extra)


class QueueFull(ServeRejected):
    """Load shed: the bounded queue is at capacity (HTTP 429)."""

    http_status = 429
    code = "queue_full"


class Draining(ServeRejected):
    """The service is shutting down; retry against a healthy instance
    (HTTP 503, retriable)."""

    http_status = 503
    code = "draining"


class RequestTimedOut(ServeRejected):
    """The per-request deadline expired before a result was ready
    (HTTP 504).  The shared execution may still complete for other
    waiters; this waiter just stopped caring."""

    http_status = 504
    code = "timeout"


@dataclasses.dataclass
class ServeConfig:
    """Tunables for one :class:`ServeService` instance."""

    #: worker threads executing request groups
    workers: int = 2
    #: how long the dispatcher keeps collecting after the first request
    #: of a batch arrives; 0 disables coalescing (every request is its
    #: own group unless already queued together)
    batch_window_ms: float = 4.0
    #: submissions beyond this many pending requests — awaiting
    #: dispatch or awaiting a worker — are shed (429)
    queue_limit: int = 64
    #: deadline for requests that do not carry ``timeout_ms``
    default_timeout_ms: float = 30000.0
    #: engine for requests that do not name one
    engine: str = "auto"
    #: intra-graph scheduler workers; 1 keeps each request serial and
    #: leaves concurrency to the request-level worker pool
    graph_workers: int = 1
    #: Retry-After seconds advertised on 429/503
    retry_after_s: float = 1.0
    #: largest fingerprint-group batch one dispatch drains (backstop so
    #: one window cannot monopolise the pool)
    max_batch: int = 256


class ServeStats:
    """Thread-safe counters for the ``serve.*`` metrics namespace."""

    _FIELDS = SERVE_COUNTERS

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for field in self._FIELDS:
            setattr(self, field, 0)

    def bump(self, field: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + by)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {field: getattr(self, field)
                    for field in self._FIELDS}


class _PreparedCache:
    """Bounded LRU of *idle* prepared graphs, keyed by request
    structure.  A worker checks an instance out for one request and
    back in afterwards, so two concurrent requests of one structure
    never share an image; a structure seen concurrently may hold
    several idle instances, all counting against the bound."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._idle: "collections.OrderedDict[str, List]" = \
            collections.OrderedDict()
        self._size = 0

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def checkout(self, key: str) -> Optional[Tuple[Plan, PreparedGraph]]:
        with self._lock:
            idle = self._idle.get(key)
            if not idle:
                return None
            entry = idle.pop()
            if not idle:
                del self._idle[key]
            self._size -= 1
            return entry

    def checkin(self, key: str, entry: Tuple[Plan, PreparedGraph]) -> int:
        """Return *entry* to the pool; returns how many least recently
        used instances were evicted to stay within the bound."""
        with self._lock:
            self._idle.setdefault(key, []).append(entry)
            self._idle.move_to_end(key)
            self._size += 1
            evicted = 0
            while self._size > self.capacity:
                oldest, idle = next(iter(self._idle.items()))
                idle.pop(0)
                if not idle:
                    del self._idle[oldest]
                self._size -= 1
                evicted += 1
            return evicted


@dataclasses.dataclass
class _Pending:
    """One submitted request waiting for its group's result."""

    body: Dict[str, Any]
    fingerprint: str
    deadline: float
    #: id minted at intake; echoed in the response, the structured log
    #: and the ``serve.*`` span attrs
    request_id: str = ""
    #: monotonic intake time — queue-wait/request-latency histograms
    submitted_at: float = 0.0
    done: threading.Event = dataclasses.field(
        default_factory=threading.Event)
    #: (http_status, response_doc) once done is set
    result: Optional[Tuple[int, Dict[str, Any]]] = None
    #: flipped by a waiter that stopped waiting; cancellation checks it
    abandoned: bool = False

    def finish(self, status: int, doc: Dict[str, Any]) -> None:
        self.result = (status, doc)
        self.done.set()


class ServeService:
    """The long-running request engine behind the HTTP front door."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 cache: Optional[CompilationCache] = None):
        self.config = config or ServeConfig()
        if cache is None:
            from ..cache import get_default_cache
            cache = get_default_cache()
        self.cache = cache
        self.stats = ServeStats()
        self._queue: Deque[_Pending] = collections.deque()
        self._lock = threading.Lock()
        # two conditions on the one lock, so a notify can never be
        # consumed by the wrong kind of waiter: only the dispatcher
        # waits on _queue_wake (intake), only workers wait on
        # _work_wake (grouped work)
        self._queue_wake = threading.Condition(self._lock)
        self._work_wake = threading.Condition(self._lock)
        self._draining = False
        self._stopped = False
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        self._worker_local = threading.local()
        self._pools: List[BufferPool] = []
        self._workers: List[threading.Thread] = []
        self._work: Deque[List[_Pending]] = collections.deque()
        self._dispatcher: Optional[threading.Thread] = None
        self.started_at_unix = time.time()
        self._started_monotonic = time.monotonic()
        self._engine_fp: Optional[str] = None
        self._prepared = _PreparedCache(PREPARED_CACHE_SIZE)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServeService":
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch",
            daemon=True)
        self._dispatcher.start()
        for i in range(max(1, self.config.workers)):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"serve-worker-{i}", daemon=True)
            t.start()
            self._workers.append(t)
        # the scheduler runs with register_metrics=False under serve
        # (parallel requests would race to overwrite the global slots),
        # so the service installs the aggregate sources itself: the one
        # shared cache, and the per-worker arenas summed
        registry = get_registry()
        registry.register_source("serve", self.metrics)
        registry.register_source("cache", self.cache.stats.metrics)
        registry.register_source("pool", self._pool_metrics)
        # materialise the serve histograms so the "hist" source is
        # registered, with every serve.hist.* key, before the first
        # snapshot rather than after the first request records one
        hists = get_histograms()
        for name in SERVE_HISTOGRAMS:
            hists.get_or_create(name)
        log_event("serve.started", workers=self.config.workers,
                  engine=self.config.engine,
                  queue_limit=self.config.queue_limit)
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: reject queued work as retriable, let
        in-flight groups finish.  Returns True when fully drained."""
        with self._lock:
            first = not self._draining
            if first:
                self._draining = True
                flushed = list(self._queue)
                self._queue.clear()
            else:
                flushed = []
        if first:
            log_event("serve.draining", flushed=len(flushed))
        for pending in flushed:
            self.stats.bump("drained")
            self._deliver(pending, 503, error_response(
                "draining", "server is draining; retry elsewhere",
                retriable=True,
                retry_after=self.config.retry_after_s),
                event="request.drained")
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._idle:
            while self._inflight or self._work or self._queue:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        with self._lock:
            self._stopped = True
            self._queue_wake.notify_all()
            self._work_wake.notify_all()
        return True

    @property
    def draining(self) -> bool:
        return self._draining

    # -- health --------------------------------------------------------------

    def engine_fingerprint(self) -> str:
        """Identity of what executes requests: the C compiler signature
        when the configured engine can compile natively, ``"sim"``
        otherwise.  Memoised — the compiler probe shells out once."""
        if self._engine_fp is None:
            fp = "sim"
            if self.config.engine in ("native", "auto"):
                from ..runtime.native import (compiler_signature,
                                              find_c_compiler)
                cc = find_c_compiler()
                fp = compiler_signature(cc) if cc else "sim (no C compiler)"
            self._engine_fp = fp
        return self._engine_fp

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document (status key set by the caller)."""
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(
                time.monotonic() - self._started_monotonic, 3),
            "started_at_unix": round(self.started_at_unix, 3),
            "engine": self.config.engine,
            "engine_fingerprint": self.engine_fingerprint(),
        }

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """The canonical ``serve.*`` metrics namespace."""
        counters = self.stats.as_dict()
        with self._lock:
            depth = len(self._queue) + len(self._work)
        out = {f"serve.{k}": v for k, v in counters.items()}
        out["serve.queue_depth"] = depth
        return out

    def _pool_metrics(self) -> Dict[str, float]:
        """All worker arenas summed into one ``pool.*`` view."""
        with self._lock:
            pools = list(self._pools)
        total: Dict[str, float] = {}
        for pool in pools:
            for key, value in pool.stats.metrics().items():
                total[key] = total.get(key, 0) + value
        return total

    # -- intake --------------------------------------------------------------

    def submit(self, body: Dict[str, Any],
               request_id: Optional[str] = None) -> _Pending:
        """Fingerprint + enqueue *body*; raises :class:`ServeRejected`
        subclasses (shed/drain) or :class:`ProtocolError` (400).  The
        *request_id* (minted here when the caller did not) rides the
        raised documents too, so even a shed request is greppable."""
        if request_id is None:
            request_id = new_request_id()
        fingerprint, _ = request_fingerprint(
            body, default_engine=self.config.engine)
        timeout_ms = body.get("timeout_ms",
                              self.config.default_timeout_ms)
        if (not isinstance(timeout_ms, (int, float))
                or isinstance(timeout_ms, bool) or timeout_ms <= 0):
            raise ProtocolError(
                f"timeout_ms must be a positive number, got "
                f"{timeout_ms!r}")
        now = time.monotonic()
        pending = _Pending(body=body, fingerprint=fingerprint,
                           deadline=now + timeout_ms / 1e3,
                           request_id=request_id, submitted_at=now)
        try:
            with self._lock:
                if self._draining:
                    raise Draining(
                        "server is draining; retry elsewhere",
                        retriable=True,
                        retry_after=self.config.retry_after_s)
                # backpressure counts everything awaiting a worker, not
                # just the pre-dispatch queue: with a zero batching
                # window the dispatcher drains _queue into _work almost
                # instantly, and sheds must engage on the same depth
                # /metrics reports
                if (len(self._queue) + len(self._work)
                        >= self.config.queue_limit):
                    self.stats.bump("shed")
                    raise QueueFull(
                        f"queue is at its {self.config.queue_limit}"
                        f"-request limit",
                        retry_after=self.config.retry_after_s)
                self._queue.append(pending)
                self._queue_wake.notify()
        except ServeRejected as exc:
            exc.doc["request_id"] = request_id
            log_event("request.shed" if isinstance(exc, QueueFull)
                      else "request.rejected",
                      request_id=request_id,
                      fingerprint=fingerprint[:16], code=exc.code)
            raise
        self.stats.bump("requests")
        log_event("request.received", request_id=request_id,
                  fingerprint=fingerprint[:16])
        return pending

    def handle(self, body: Any) -> Tuple[int, Dict[str, Any]]:
        """Synchronous request-to-response: submit, wait, classify.

        This is the whole behaviour of ``POST /v1/execute`` minus HTTP
        framing, so tests can drive the service without sockets.
        """
        request_id = new_request_id()
        if not isinstance(body, dict):
            log_event("request.rejected", request_id=request_id,
                      code="bad_request")
            return 400, error_response(
                "bad_request", "request body must be an object",
                request_id=request_id)
        try:
            pending = self.submit(body, request_id=request_id)
        except ServeRejected as exc:
            return exc.http_status, exc.doc
        except ProtocolError as exc:
            log_event("request.rejected", request_id=request_id,
                      code="bad_request")
            return 400, error_response("bad_request", str(exc),
                                       request_id=request_id)
        remaining = pending.deadline - time.monotonic()
        if not pending.done.wait(timeout=max(0.0, remaining)):
            pending.abandoned = True
            self.stats.bump("timeouts")
            timeout_ms = body.get("timeout_ms",
                                  self.config.default_timeout_ms)
            log_event("request.timeout", request_id=request_id,
                      fingerprint=pending.fingerprint[:16],
                      timeout_ms=float(timeout_ms))
            return 504, error_response(
                "timeout",
                f"no result within {timeout_ms:.0f} ms", retriable=True,
                request_id=request_id)
        assert pending.result is not None
        return pending.result

    # -- dispatcher ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopped:
                    self._queue_wake.wait()
                if self._stopped and not self._queue:
                    return
            # first request seen: hold the batching window open so
            # concurrent identical requests coalesce into one group
            window_s = self.config.batch_window_ms / 1e3
            if window_s > 0:
                time.sleep(window_s)
            # pop, group and publish under ONE lock hold: every pending
            # request is visible in _queue, _work or _inflight at all
            # times, so drain()'s idle predicate can never observe a
            # clean state while requests sit in a dispatcher local
            with self._lock:
                batch: List[_Pending] = []
                while self._queue and len(batch) < self.config.max_batch:
                    batch.append(self._queue.popleft())
                if not batch:
                    continue
                groups: Dict[str, List[_Pending]] = {}
                for pending in batch:
                    groups.setdefault(pending.fingerprint,
                                      []).append(pending)
                for group in groups.values():
                    if len(group) > 1:
                        self.stats.bump("batched", len(group))
                        self.stats.bump("dedup_hits", len(group) - 1)
                    self._inflight += 1
                    self._work.append(group)
                self._work_wake.notify_all()
                published = list(groups.values())
            # observe/log outside the lock: sinks take their own locks
            for group in published:
                observe("serve.hist.batch_size", len(group))
                log_event("request.grouped",
                          request_id=group[0].request_id,
                          fingerprint=group[0].fingerprint[:16],
                          group=len(group))

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._work and not self._stopped:
                    self._work_wake.wait()
                if self._stopped and not self._work:
                    return
                group = self._work.popleft()
            try:
                self._run_group(group)
            finally:
                with self._idle:
                    self._inflight -= 1
                    self._idle.notify_all()

    # -- execution -----------------------------------------------------------

    def _arena(self) -> BufferPool:
        pool = getattr(self._worker_local, "pool", None)
        if pool is None:
            pool = BufferPool()
            self._worker_local.pool = pool
            with self._lock:
                self._pools.append(pool)
        return pool

    def _deliver(self, pending: _Pending, status: int,
                 doc: Dict[str, Any],
                 event: str = "request.completed") -> None:
        """Personalise *doc* for one waiter (its ``request_id``), record
        the end-to-end latency and emit the lifecycle event."""
        doc = dict(doc)
        doc["request_id"] = pending.request_id
        meta = doc.get("meta")
        if isinstance(meta, dict):
            meta = dict(meta)
            meta["request_id"] = pending.request_id
            doc["meta"] = meta
        request_ms = (time.monotonic() - pending.submitted_at) * 1e3
        observe("serve.hist.request_ms", request_ms)
        log_event(event, request_id=pending.request_id,
                  fingerprint=pending.fingerprint[:16],
                  http_status=status, request_ms=round(request_ms, 3))
        pending.finish(status, doc)

    def _run_group(self, group: List[_Pending]) -> None:
        if all(p.abandoned for p in group):
            # every waiter gave up during the queue wait: executing
            # would burn a worker on an answer nobody reads
            self.stats.bump("cancelled", len(group))
            for pending in group:
                log_event("request.cancelled",
                          request_id=pending.request_id,
                          fingerprint=pending.fingerprint[:16])
            return
        lead = group[0]
        now = time.monotonic()
        for pending in group:
            observe("serve.hist.queue_wait_ms",
                    (now - pending.submitted_at) * 1e3)
            log_event("request.dispatched",
                      request_id=pending.request_id,
                      fingerprint=pending.fingerprint[:16],
                      group=len(group))
        try:
            status, doc = self._execute(lead.body, len(group),
                                        lead.fingerprint,
                                        lead.request_id)
        except ProtocolError as exc:
            status, doc = 400, error_response("bad_request", str(exc))
            self.stats.bump("errors", len(group))
        except Exception as exc:    # noqa: BLE001 - one bad request
            # must never take down the worker thread
            status, doc = 500, error_response(
                "internal", f"{type(exc).__name__}: {exc}")
            self.stats.bump("errors", len(group))
        else:
            if status == 200:
                self.stats.bump("completed", len(group))
            else:
                self.stats.bump("errors", len(group))
        for pending in group:
            self._deliver(pending, status, doc)

    def _prepared_key(self, body: Dict[str, Any], data) -> str:
        """What makes two requests' prepared graphs interchangeable:
        the canonical work, the image shape and wire dtype, and the
        engine identity — never the pixels."""
        return json.dumps(
            [_canonical_work(body, self.config.engine), list(data.shape),
             str(data.dtype), self.engine_fingerprint()],
            sort_keys=True, separators=(",", ":"))

    def _execute(self, body: Dict[str, Any], group_size: int,
                 fingerprint: str, lead_request_id: str = ""
                 ) -> Tuple[int, Dict[str, Any]]:
        """Plan and run one request group on this worker's warm arena.

        A request whose structure ran before checks an idle prepared
        graph out of the LRU (no planning, fusion, compilation or
        proving), loads its pixels into the graph's source image, runs
        it and checks it back in; a miss plans and prepares it first.

        ``serve.plan``/``serve.exec`` are deliberately *top-level*
        spans in the worker thread, correlated to ``serve.request`` by
        the ``fingerprint`` attr rather than stitched as children: a
        waiter may time out (closing its request span) while the shared
        execution continues, and a child outliving its parent would
        violate the trace validator's containment rule.
        """
        with span("serve.plan", fingerprint=fingerprint[:16],
                  group=group_size, request_id=lead_request_id) as sp:
            t0 = time.perf_counter()
            data = decode_image(body.get("image"))
            t1 = time.perf_counter()
            key = self._prepared_key(body, data)
            warm = self._prepared.checkout(key)
            plan = plan_request(body, data) if warm is None else warm[0]
            t2 = time.perf_counter()
            sp.attrs["prepared"] = warm is not None
        observe("serve.hist.decode_ms", (t1 - t0) * 1e3)
        observe("serve.hist.plan_ms", (t2 - t1) * 1e3)
        self.stats.bump("prepared_misses" if warm is None
                        else "prepared_hits")
        engine = body.get("engine") or self.config.engine
        arena = self._arena()
        with span("serve.exec", fingerprint=fingerprint[:16],
                  engine=engine, group=group_size,
                  request_id=lead_request_id):
            self.stats.bump("executions")
            # reset in finally: a failed execute/encode must still zero
            # the per-run pool accounting, or the pool.* metrics drift
            # after every request error
            try:
                t0 = time.perf_counter()
                if warm is None:
                    # lint=False: the HIP3xx pass is advisory and
                    # re-deriving identical diagnostics for every
                    # structure is pure serving cost
                    prepared = prepare_graph(
                        plan.graph, cache=self.cache,
                        workers=self.config.graph_workers,
                        engine=engine, lint=False)
                else:
                    prepared = warm[1]
                    plan.source.set_data(data)
                t1 = time.perf_counter()
                report = prepared.run(pool=arena, register_metrics=False)
                t2 = time.perf_counter()
                encoded = encode_image(plan.output.get_data())
                t3 = time.perf_counter()
            finally:
                arena.reset()
        observe("serve.hist.prepare_ms", (t1 - t0) * 1e3)
        observe("serve.hist.exec_ms", (t2 - t1) * 1e3)
        observe("serve.hist.encode_ms", (t3 - t2) * 1e3)
        # only an instance that ran cleanly goes back, and without its
        # pixels: an idle instance must not pin frame-sized buffers
        prepared.release()
        evicted = self._prepared.checkin(key, (plan, prepared))
        if evicted:
            self.stats.bump("prepared_evictions", evicted)
        meta = {
            "fingerprint": fingerprint,
            "engine": report.engine_used,
            "launches": report.launches,
            "cache_hits": report.cache_hits,
            "compile_wall_ms": round(report.compile_wall_ms, 3),
            "execute_wall_ms": round(report.execute_wall_ms, 3),
            "group_size": group_size,
            "prepared": warm is not None,
            "protocol": PROTOCOL_VERSION,
        }
        return 200, {"status": "ok", "image": encoded, "meta": meta}
