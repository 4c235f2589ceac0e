"""The serve request engine: intake dedup, a bounded work queue, workers.

Lifecycle of one request::

    handle() -> submit() -> open or join the fingerprint's group
        -> work deque -> worker -> plan + execute (once per group)
        -> close the group -> wake every member

:meth:`ServeService.submit` looks the request's
:func:`~repro.serve.protocol.request_fingerprint` up in the map of
*open* groups.  A group is open from the moment its first request is
submitted until its worker has the result, queued or running alike, so
an identical request that arrives at any point in that span joins it
instead of executing again.  Otherwise the request opens a new group
and appends it to the work deque the workers pop.  The worker removes
the group from the map, under the service lock, once it has the
result: every member present then receives the same response document
(``serve.dedup_hits`` counts the members that got an answer without an
execution of their own), and a later identical request opens a new
group.

Every worker thread owns a :class:`~repro.graph.pool.BufferPool` arena
(thread-local) that backs the memory plan of each graph it runs.  The
arena only grows, to the largest plan the worker has run, so a warm
worker executes without touching the allocator.  All workers share one
process-wide :class:`~repro.cache.CompilationCache`; the cache's
per-key single-flight locking guarantees N concurrent misses of the
same kernel compile exactly once.

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
  is still queued as retriable (HTTP 503), waits for running groups
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
    #: submissions beyond this many waiting requests — members of a
    #: queued group, or joined to a running one — are shed (429)
    queue_limit: int = 64
    #: deadline for requests that do not carry ``timeout_ms``
    default_timeout_ms: float = 30000.0
    #: engine for requests that do not name one
    engine: str = "auto"
    #: Retry-After seconds advertised on 429/503
    retry_after_s: float = 1.0


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


@dataclasses.dataclass
class _Group:
    """The requests of one fingerprint while its execution is open,
    queued or running; they share one execution and one response."""

    fingerprint: str
    members: List[_Pending] = dataclasses.field(default_factory=list)
    #: members present when a worker took the group; 0 while queued
    taken: int = 0


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
        self._lock = threading.Lock()
        # two conditions on the one lock: workers wait on _work_wake
        # (queued groups), drain() waits on _idle (running groups)
        self._work_wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._draining = False
        self._stopped = False
        #: groups a worker has taken and not yet answered
        self._inflight = 0
        self._worker_local = threading.local()
        self._pools: List[BufferPool] = []
        self._workers: List[threading.Thread] = []
        #: every open group by fingerprint; queued ones are also in _work
        self._open: Dict[str, _Group] = {}
        self._work: Deque[_Group] = collections.deque()
        self.started_at_unix = time.time()
        self._started_monotonic = time.monotonic()
        self._engine_fp: Optional[str] = None
        self._prepared = _PreparedCache(PREPARED_CACHE_SIZE)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServeService":
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
        """Graceful shutdown: reject queued groups as retriable, let
        running groups finish.  Returns True when fully drained."""
        flushed: List[_Pending] = []
        with self._lock:
            first = not self._draining
            if first:
                self._draining = True
                for group in self._work:
                    del self._open[group.fingerprint]
                    flushed.extend(group.members)
                self._work.clear()
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
            while self._inflight:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        with self._lock:
            self._stopped = True
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
            depth = self._waiting()
        out = {f"serve.{k}": v for k, v in counters.items()}
        out["serve.queue_depth"] = depth
        return out

    def _pool_metrics(self) -> Dict[str, float]:
        """The worker arenas' growths summed into one ``pool.*`` view."""
        with self._lock:
            pools = list(self._pools)
        return {"pool.allocs": sum(pool.allocs for pool in pools)}

    def _waiting(self) -> int:
        """Requests no execution has taken up yet: every member of a
        queued group, and each member that joined a running group after
        its worker took it.  The caller holds the lock."""
        return sum(len(group.members) - group.taken
                   for group in self._open.values())

    # -- intake --------------------------------------------------------------

    def submit(self, body: Dict[str, Any],
               request_id: Optional[str] = None) -> _Pending:
        """Fingerprint *body* and join the open group of that
        fingerprint, or open one and queue it for a worker.  Raises
        :class:`ServeRejected` subclasses (shed/drain) or
        :class:`ProtocolError` (400).  The *request_id* (minted here
        when the caller did not) rides the raised documents too, so even
        a shed request is greppable."""
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
                if self._waiting() >= self.config.queue_limit:
                    self.stats.bump("shed")
                    raise QueueFull(
                        f"queue is at its {self.config.queue_limit}"
                        f"-request limit",
                        retry_after=self.config.retry_after_s)
                group = self._open.get(fingerprint)
                if group is None:
                    group = self._open[fingerprint] = _Group(fingerprint)
                    self._work.append(group)
                    self._work_wake.notify()
                group.members.append(pending)
                # logged under the lock: once it is released a worker
                # may dispatch or even answer this request
                log_event("request.received", request_id=request_id,
                          fingerprint=fingerprint[:16])
                log_event("request.grouped", request_id=request_id,
                          fingerprint=fingerprint[:16],
                          group=len(group.members))
                if group.taken:
                    # joined a running execution: it is dispatched now,
                    # with no queue wait to record
                    log_event("request.dispatched", request_id=request_id,
                              fingerprint=fingerprint[:16],
                              group=len(group.members))
        except ServeRejected as exc:
            exc.doc["request_id"] = request_id
            log_event("request.shed" if isinstance(exc, QueueFull)
                      else "request.rejected",
                      request_id=request_id,
                      fingerprint=fingerprint[:16], code=exc.code)
            raise
        self.stats.bump("requests")
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

    # -- workers -------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._work and not self._stopped:
                    self._work_wake.wait()
                if self._stopped and not self._work:
                    return
                group = self._work.popleft()
                cancelled = all(p.abandoned for p in group.members)
                if cancelled:
                    # closed in the hold that saw it abandoned, so no
                    # request can join a group nobody will execute
                    del self._open[group.fingerprint]
                else:
                    group.taken = len(group.members)
                    self._inflight += 1
            if cancelled:
                # every waiter gave up during the queue wait: executing
                # would burn a worker on an answer nobody reads
                self.stats.bump("cancelled", len(group.members))
                for pending in group.members:
                    log_event("request.cancelled",
                              request_id=pending.request_id,
                              fingerprint=pending.fingerprint[:16])
                continue
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

    def _run_group(self, group: _Group) -> None:
        lead = group.members[0]
        now = time.monotonic()
        for pending in group.members[:group.taken]:
            observe("serve.hist.queue_wait_ms",
                    (now - pending.submitted_at) * 1e3)
            log_event("request.dispatched",
                      request_id=pending.request_id,
                      fingerprint=pending.fingerprint[:16],
                      group=group.taken)
        try:
            status, doc = self._execute(lead.body, lead.fingerprint,
                                        lead.request_id)
        except ProtocolError as exc:
            status, doc = 400, error_response("bad_request", str(exc))
        except Exception as exc:    # noqa: BLE001 - one bad request
            # must never take down the worker thread
            status, doc = 500, error_response(
                "internal", f"{type(exc).__name__}: {exc}")
        # close the group: a later identical request opens a new one,
        # and the members present now are all it will ever have
        with self._lock:
            del self._open[group.fingerprint]
        members = group.members
        if len(members) > 1:
            self.stats.bump("batched", len(members))
            self.stats.bump("dedup_hits", len(members) - 1)
        observe("serve.hist.batch_size", len(members))
        self.stats.bump("completed" if status == 200 else "errors",
                        len(members))
        if status == 200:
            doc["meta"]["group_size"] = len(members)
        for pending in members:
            self._deliver(pending, status, doc)

    def _prepared_key(self, body: Dict[str, Any], data) -> str:
        """What makes two requests' prepared graphs interchangeable:
        the canonical work, the image shape and wire dtype, and the
        engine identity — never the pixels."""
        return json.dumps(
            [_canonical_work(body, self.config.engine), list(data.shape),
             str(data.dtype), self.engine_fingerprint()],
            sort_keys=True, separators=(",", ":"))

    def _execute(self, body: Dict[str, Any], fingerprint: str,
                 lead_request_id: str = ""
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
                  request_id=lead_request_id) as sp:
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
                  engine=engine, request_id=lead_request_id):
            self.stats.bump("executions")
            t0 = time.perf_counter()
            if warm is None:
                # lint=False: the HIP3xx pass is advisory and
                # re-deriving identical diagnostics for every
                # structure is pure serving cost
                prepared = prepare_graph(
                    plan.graph, cache=self.cache, workers=1,
                    engine=engine, lint=False)
            else:
                prepared = warm[1]
                plan.source.set_data(data)
            t1 = time.perf_counter()
            report = prepared.run(pool=arena, register_metrics=False)
            t2 = time.perf_counter()
            encoded = encode_image(plan.output.get_data())
            t3 = time.perf_counter()
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
            # set when the group closes, to every member it answered
            "group_size": 1,
            "prepared": warm is not None,
            "protocol": PROTOCOL_VERSION,
        }
        return 200, {"status": "ok", "image": encoded, "meta": meta}
