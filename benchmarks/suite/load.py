"""Open- and closed-loop HTTP load against a running ``repro serve``.

The load comes from this one process over :data:`~.workloads.CONNECTIONS`
keep-alive connections, one sending thread each.

* **Open loop** -- requests go out on the seeded Poisson schedule
  whether or not earlier ones have returned.  A request's latency runs
  from its *due* time, so a stall that delays later sends is charged
  to them.  A thread builds its next body as soon as its previous
  request returns, ahead of the due time, so only a backlogged thread
  pays for building it (~1 ms for a 4 MB frame); *lateness* is how
  long after ``max(due, free)`` a send actually started -- the
  generator's own delay, which the harness gates.  A probe thread times
  :func:`~.pace.probe` in the idle gaps (:class:`IdleGate`).
* **Closed loop** -- each thread sends its next request as soon as the
  previous one returns, for a fixed time, cycling through a prebuilt
  pool of distinct requests; throughput is correct responses per
  second.  No probe runs here: the loop keeps both cores busy, and its
  throughput does not follow the probe (see :mod:`.pace`).

Only raw bytes are kept here; decoding and checking happen after the
timed phase, so verification never competes with the sends.  Every time
is ``time.perf_counter``, the probes' clock.
"""

from __future__ import annotations

import dataclasses
import http.client
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import pace
from .workloads import CONNECTIONS, Request

#: client-side deadline for one request; the server's default request
#: timeout is 30 s, so a request still open after this is lost
REQUEST_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Outcome:
    """What happened to one request."""

    request: Request
    status: int                  # HTTP status; 0 = no response
    #: response body, kept only for requests the harness checks
    raw: Optional[bytes]
    #: due (open loop) or send (closed loop) -> response received, ms
    latency_ms: float
    lateness_ms: float = 0.0
    #: when the response was received
    end: float = 0.0


class Connection:
    """One keep-alive connection; re-dialled once if the server closed
    it between requests."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def _roundtrip(self, method: str, path: str,
                   body: Optional[bytes] = None) -> Tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def post(self, body: bytes) -> Tuple[int, bytes]:
        try:
            return self._roundtrip("POST", "/v1/execute", body)
        except (http.client.HTTPException, ConnectionError):
            self.close()
            return self._roundtrip("POST", "/v1/execute", body)

    def get(self, path: str) -> bytes:
        return self._roundtrip("GET", path)[1]

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def send(conn: Connection, body: bytes) -> Tuple[int, bytes]:
    """POST *body*; a transport failure (or client timeout) is status 0
    and drops the connection, so the next request dials afresh."""
    try:
        return conn.post(body)
    except (OSError, http.client.HTTPException):
        conn.close()
        return 0, b""


def send_each(host: str, port: int,
              bodies: List[bytes]) -> List[Tuple[int, bytes]]:
    """POST every body once, as fast as the connections allow; returns
    ``(status, response body)`` in *bodies* order."""
    results: List[Tuple[int, bytes]] = [(0, b"")] * len(bodies)
    cursor = [0]
    lock = threading.Lock()

    def sender(conn: Connection) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(bodies):
                return
            results[i] = send(conn, bodies[i])

    _run_threads(host, port, sender)
    return results


class IdleGate:
    """Lets :func:`~.pace.probe` run in the open loop only while the
    load is idle: every sender asleep until a due time at least
    :data:`GUARD_S` away, and quiet for :data:`QUIET_S` (the server's
    OpenMP threads spin for a moment after a request)."""

    QUIET_S = 0.010
    GUARD_S = 0.015

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._busy = CONNECTIONS
        self._wake: Dict[int, float] = {}    # sleeping sender -> its due
        self._quiet_since = time.perf_counter()
        self._done = False

    def asleep(self, due: float) -> None:
        with self._cond:
            self._busy -= 1
            self._wake[threading.get_ident()] = due
            if self._busy == 0:
                self._quiet_since = time.perf_counter()
            self._cond.notify_all()

    def awake(self) -> None:
        with self._cond:
            self._busy += 1
            del self._wake[threading.get_ident()]
            self._cond.notify_all()

    def finish(self) -> None:
        with self._cond:
            self._done = True
            self._cond.notify_all()

    def probe_while_idle(self, samples: List[pace.Sample]) -> None:
        """Append a probe to *samples* whenever the load is idle, at
        most every :data:`~.pace.PROBE_EVERY_S`, until :meth:`finish`."""
        next_at = time.perf_counter()
        while True:
            with self._cond:
                while True:
                    if self._done:
                        return
                    now = time.perf_counter()
                    soonest = min(self._wake.values(), default=math.inf)
                    if now < next_at:
                        timeout: Optional[float] = next_at - now
                    elif self._busy:
                        timeout = None
                    elif now - self._quiet_since < self.QUIET_S:
                        timeout = self._quiet_since + self.QUIET_S - now
                    elif soonest - now < self.GUARD_S:
                        # wait until that sender has woken (awake()
                        # notifies); by then it is busy again
                        timeout = (soonest - now + 0.001 if soonest > now
                                   else None)
                    else:
                        break
                    self._cond.wait(timeout)
            samples.append(pace.sample())
            next_at = time.perf_counter() + pace.PROBE_EVERY_S


def open_loop(host: str, port: int, schedule: List[Request],
              body: Callable[[int], bytes], keep: Callable[[int], bool]
              ) -> Tuple[List[Outcome], List[pace.Sample]]:
    """Send *schedule* on its due times; the thread that takes request
    *i* builds ``body(i)`` as soon as it is free, before the due time.
    ``keep(i)`` says whether the *i*-th response body is retained for
    checking.  Returns the outcomes and the probes taken in the idle
    gaps."""
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    cursor = [0]
    lock = threading.Lock()
    gate = IdleGate()
    probes: List[pace.Sample] = []
    t0 = time.perf_counter() + 0.05

    def sender(conn: Connection) -> None:
        free_at = time.perf_counter()
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(schedule):
                gate.asleep(math.inf)
                return
            req = schedule[i]
            payload = body(i)
            due = t0 + req.due
            gate.asleep(due)
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            gate.awake()
            sent = time.perf_counter()
            status, raw = send(conn, payload)
            done = time.perf_counter()
            outcomes[i] = Outcome(
                req, status, raw if keep(i) else None,
                latency_ms=(done - due) * 1e3,
                lateness_ms=(sent - max(due, free_at)) * 1e3, end=done)
            free_at = done

    prober = threading.Thread(target=gate.probe_while_idle, args=(probes,),
                              name="load-probe", daemon=True)
    prober.start()
    try:
        _run_threads(host, port, sender)
    finally:
        gate.finish()
        prober.join()
    return [o for o in outcomes if o is not None], probes


def closed_loop(host: str, port: int, seconds: float,
                pool: List[Request], bodies: List[bytes],
                keep: Callable[[int], bool]
                ) -> Tuple[List[Outcome], float]:
    """Back-to-back requests for *seconds*, the *k*-th one
    ``pool[k % len(pool)]``; returns the outcomes and the elapsed time
    up to the last response."""
    outcomes: List[Outcome] = []
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds
    last = [start]

    def sender(conn: Connection) -> None:
        while time.perf_counter() < deadline:
            with lock:
                k = cursor[0]
                cursor[0] += 1
            sent = time.perf_counter()
            status, raw = send(conn, bodies[k % len(pool)])
            done = time.perf_counter()
            with lock:
                outcomes.append(Outcome(
                    pool[k % len(pool)], status, raw if keep(k) else None,
                    latency_ms=(done - sent) * 1e3, end=done))
                last[0] = max(last[0], done)

    _run_threads(host, port, sender)
    return outcomes, last[0] - start


def _run_threads(host: str, port: int,
                 target: Callable[[Connection], None]) -> None:
    """Run *target* in one thread per connection, each with its own."""
    def run(conn: Connection) -> None:
        try:
            target(conn)
        finally:
            conn.close()

    threads = [threading.Thread(target=run, args=(Connection(host, port),),
                                name=f"load-{i}", daemon=True)
               for i in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
