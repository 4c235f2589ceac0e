"""Run one workload once: set up, measure, check, report.

:func:`run_workload` is the harness API the CLI and the tests share.
The system under test runs in a fresh child process -- ``repro serve``
for the serve workloads, :mod:`.worker` for the library workloads --
and is set up ``setups`` times (each from a cold start) so ``setup_s``
is a median.  A library workload's last child runs the timed phase; on
a serve workload each server runs its share of the open loop.
End-to-end metrics come from those untraced children, every timing at
reference host
speed: each operation and set-up divided by the host factor of the
:mod:`.pace` probes around it; the raw values go to ``info``.  The
serve tail that gates a run stays raw, as the user sees it.  With
``trace=True`` an
untraced phase runs first for the service counters and frame medians
(a serve workload's open loop over the whole run length; half of it
for a library workload), and then :mod:`.replay` runs in this process
for half the run length to produce the per-layer metrics.

Every operation is counted in ``attempted``; failed, refused, timed-out
and wrong ones in ``failed``, and a failed operation's latency is
``inf``.  A run is *invalid* (``problems`` is non-empty) when the
serve tail misses its limit, the generator ran late, a set-up failed,
or a replay guard tripped.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import functools
import http.client
import json
import math
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import load, pace, reference, replay, workloads
from .sandbox import ROOT, WORK_ROOT, Workdir, child_env
from .workloads import percentile

#: how long a child may take to become ready
STARTUP_TIMEOUT_S = 120.0


@dataclasses.dataclass
class RunResult:
    """One run of one workload."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: the contract's metric set for the mode (end-to-end or per-layer)
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: every checked output matched its reference
    correct: bool
    #: why the run is invalid; empty for a valid run
    problems: List[str]
    #: further measurements, printed but not gated
    info: Dict[str, float]

    @property
    def valid(self) -> bool:
        return not self.problems

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


class Child:
    """A system-under-test process with a line-oriented stdout."""

    def __init__(self, argv: List[str], work: Workdir, tag: str):
        self.tag = tag
        self.stderr_path = os.path.join(work.fresh(tag + "-"), "stderr")
        self._stderr = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=child_env(work),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, bufsize=1)

    def readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"{self.tag}: no answer within {timeout:.0f} s "
                f"(exit {self.proc.poll()}): {self._stderr_tail()}")
        return line

    def send(self, doc: Dict[str, Any]) -> None:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()

    def stop(self, timeout: float = 30.0, drain: bool = True) -> None:
        """SIGTERM, then SIGKILL after *timeout*; without *drain*,
        SIGKILL at once.  Always reaps the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM if drain
                                  else signal.SIGKILL)
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()

    def _stderr_tail(self) -> str:
        self._stderr.flush()
        with open(self.stderr_path, encoding="utf-8",
                  errors="replace") as fh:
            return fh.read()[-2000:]


def reset_peak_rss(pid: int) -> None:
    """Restart *pid*'s VmHWM from its current RSS, so the next reading
    covers only the timed phase: a set-up's peak depends on how its
    concurrent warm-up requests happened to overlap."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass                # no /proc: peak_rss_mb reads NaN anyway


def peak_rss_mb(pid: int) -> float:
    """VmHWM of *pid* in MB (``/proc``; NaN where unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


class _Setups:
    """Set-up times, each also at reference host speed (:mod:`.pace`):
    divided by the median probe of the bursts just before and just
    after it.  A set-up lasts seconds, long next to the host's changes
    of speed, so the burst median stands for it better than the two
    probes nearest to it."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.scaled: List[float] = []
        #: the burst after the last set-up, right before the timed phase
        self.last_burst: List[pace.Sample] = []

    @contextlib.contextmanager
    def timed(self):
        before = pace.burst()
        t0 = time.perf_counter()
        yield
        t1 = time.perf_counter()
        self.last_burst = pace.burst()
        factor = pace.Timeline(before + self.last_burst).median_ms \
            / pace.PROBE_REF_MS
        self.raw.append(t1 - t0)
        self.scaled.append((t1 - t0) / factor)


def _timed_seconds(seconds: float, setups: _Setups, count: int) -> float:
    """A run measures for *seconds* in all: its *count* set-ups
    (``setup_s`` is one of its metrics; those not made yet taken at the
    mean of those made), then the timed phase for the rest -- at least
    half of *seconds*, for runs too short to hold their set-ups."""
    return max(seconds - count * statistics.fmean(setups.raw), seconds / 2)


def _per_class(classes: Dict[Any, List[Tuple[float, float]]],
               timeline: pace.Timeline,
               own: Optional[Dict[Any, pace.Timeline]] = None
               ) -> Tuple[Dict[Any, List[float]], Dict[Any, List[float]]]:
    """Operation times per class, as measured and at reference speed,
    from ``(ms, end)`` pairs on *timeline*'s clock (``inf`` for a
    failed operation stays ``inf``); a class in *own* is scaled by its
    own timeline instead."""
    own = own or {}
    raw = {c: [ms for ms, _ in ops] for c, ops in classes.items()}
    scaled = {c: [own.get(c, timeline).scaled(ms, end) for ms, end in ops]
              for c, ops in classes.items()}
    return raw, scaled


def _timing(classes: Dict[Any, List[Tuple[float, float]]],
            timeline: pace.Timeline, setups: _Setups,
            own: Optional[Dict[Any, pace.Timeline]] = None
            ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end timings at reference speed, ``latency_p50_ms``
    from *classes* (``(ms, end)`` pairs, scaled as in
    :func:`_per_class`) and the median set-up; and, for ``info``, their
    raw values and the probes'."""
    raw, scaled = _per_class(classes, timeline, own)
    metrics = {
        "latency_p50_ms": workloads.class_percentile(scaled, 0.50),
        "setup_s": statistics.median(setups.scaled),
    }
    info = {
        "raw.latency_p50_ms": workloads.class_percentile(raw, 0.50),
        "raw.setup_s": statistics.median(setups.raw),
        "probes": len(timeline),
        "probe_p50_ms": timeline.median_ms,
    }
    return metrics, info


# --------------------------------------------------------------------------
# Serve workloads
# --------------------------------------------------------------------------


def _decode(payload: Dict[str, Any]) -> np.ndarray:
    """Decode a response image without the library's own decoder."""
    raw = base64.b64decode(payload["data_b64"])
    return np.frombuffer(raw, dtype=np.dtype(payload["dtype"])).reshape(
        payload["shape"])


def _response_ok(seed: int, outcome: load.Outcome) -> bool:
    """200 and, for a kept response, pixels matching the reference."""
    if outcome.status != 200:
        return False
    if outcome.raw is None:
        return True
    try:
        doc = json.loads(outcome.raw)
        image = _decode(doc["image"])
    except (ValueError, KeyError, TypeError):
        return False
    req = outcome.request
    expected = reference.SERVE_REFERENCES[req.kind](req.pixels(seed))
    return doc.get("status") == "ok" and reference.matches(image, expected)


def _spawn_server(work: Workdir) -> Tuple[Child, str, int]:
    child = Child([sys.executable, "-m", "repro", "serve", "--port", "0"],
                  work, "serve")
    line = child.readline(STARTUP_TIMEOUT_S)
    match = re.search(r"http://([^:]+):(\d+)", line)
    if match is None:
        child.stop()
        raise RuntimeError(f"unexpected serve banner {line!r}")
    return child, match.group(1), int(match.group(2))


def _wait_healthy(host: str, port: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while True:
        conn = load.Connection(host, port)
        try:
            json.loads(conn.get("/healthz"))
            return
        except (OSError, ValueError, http.client.HTTPException):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
        finally:
            conn.close()


def _scrape(host: str, port: int) -> Tuple[Dict[str, Any], str]:
    conn = load.Connection(host, port)
    try:
        return (json.loads(conn.get("/metrics")),
                conn.get("/metrics?format=prometheus").decode())
    finally:
        conn.close()


def _buckets(prom: str, name: str) -> List[Tuple[float, int]]:
    pattern = re.compile(re.escape(name) + r'_bucket\{le="([^"]+)"\} (\d+)')
    return [(float(le), int(n)) for le, n in pattern.findall(prom)
            if le != "+Inf"]


def _delta_quantile(before: str, after: str, name: str,
                    q: float) -> Optional[float]:
    """The *q*-quantile of the observations recorded between two
    Prometheus scrapes of log-bucketed histogram *name*; ``None`` when
    nothing was recorded."""
    from repro.obs.hist import GROWTH

    old = _buckets(before, name)

    def cum_before(bound: float) -> int:
        return max((n for b, n in old if b <= bound), default=0)

    delta = [(b, n - cum_before(b)) for b, n in _buckets(after, name)]
    if not delta or delta[-1][1] == 0:
        return None
    target = q * delta[-1][1]
    prev = 0
    for bound, cum in delta:
        if cum >= target:
            lower = bound / GROWTH if bound > 0 else 0.0
            return lower + (bound - lower) * (target - prev) / (cum - prev)
        prev = cum
    return delta[-1][0]


def _counter_delta(before: Dict[str, Any], after: Dict[str, Any],
                   source: str, key: str) -> Optional[float]:
    """How much ``/metrics`` counter *key* grew; ``None`` when the
    server does not report it."""
    if key not in after.get(source, {}):
        return None
    return (float(after[source][key])
            - float(before.get(source, {}).get(key, 0.0)))


def _warm(host: str, port: int, spec: workloads.ServeWorkload,
          seed: int) -> int:
    """One request per shape, sent over the load's connections; returns
    how many failed or came back wrong."""
    reqs = workloads.warm_requests(spec)
    replies = load.send_each(host, port, [r.body(seed) for r in reqs])
    return sum(not _response_ok(seed, load.Outcome(r, status, raw, 0.0))
               for r, (status, raw) in zip(reqs, replies))


def run_serve(spec: workloads.ServeWorkload, seed: int, seconds: float,
              trace: bool, setups: int, work: Workdir,
              endpoint: Optional[Tuple[str, int]] = None) -> RunResult:
    """One serve run.  With *endpoint* the harness drives an already
    running server (tests use an in-process one) instead of spawning.

    Untraced, the timed phase (:func:`_timed_seconds`) is the open loop
    for :data:`~.workloads.OPEN_SHARE` of it, then the closed loop.
    Each set-up's server takes its share of the open loop, so the
    latencies and the memory peak are those of every server the run
    started, not of one.  Traced, the timed phase is the open loop alone
    (the service counters want as many concurrent pairs as the run can
    offer), then the replay for half of *seconds*."""
    setup_s = _Setups()
    warm_failed = 0
    server: Optional[Child] = None
    opened: List[load.Outcome] = []
    probes: List[pace.Sample] = []
    peaks: List[float] = []
    parts: List[List[workloads.Request]] = []

    def keep(i: int) -> bool:
        return i % spec.check_every == 0

    try:
        for k in range(setups):
            if server is not None:
                server.stop(drain=False)
            with setup_s.timed():
                if endpoint is None:
                    server, host, port = _spawn_server(work)
                else:
                    host, port = endpoint
                _wait_healthy(host, port, STARTUP_TIMEOUT_S)
                warm_failed += _warm(host, port, spec, seed)
            if not parts:
                timed_s = _timed_seconds(seconds, setup_s, setups)
                open_s = timed_s if trace else timed_s * workloads.OPEN_SHARE
                parts = workloads.split_schedule(
                    workloads.open_loop_schedule(spec, seed, open_s),
                    open_s, setups)

            sut = server.proc.pid if server is not None else os.getpid()
            before = _scrape(host, port)
            reset_peak_rss(sut)
            part = parts[k]
            outcomes, part_probes = load.open_loop(
                host, port, part, lambda i: part[i].body(seed), keep)
            opened += outcomes
            probes += setup_s.last_burst + part_probes
            # the peak at the open loop's stated rate: how many 1024^2
            # requests the closed loop happens to overlap would move it
            # by up to 15% from run to run
            peaks.append(peak_rss_mb(sut))
        closed: List[load.Outcome] = []
        closed_s = 0.0
        if not trace:
            pool = workloads.closed_loop_pool(spec, seed)
            closed, closed_s = load.closed_loop(
                host, port, timed_s - open_s, pool,
                [r.body(seed) for r in pool], keep)
        after = _scrape(host, port)
    finally:
        # nothing is measured after this point, and a drain would wait
        # out the accept loop's half-second poll
        if server is not None:
            server.stop(drain=False)

    timeline = pace.Timeline(probes)
    open_ok = [_response_ok(seed, o) for o in opened]
    closed_ok = [_response_ok(seed, o) for o in closed]
    classes: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}
    for o, ok in zip(opened, open_ok):
        classes.setdefault((o.request.kind, o.request.side), []).append(
            (o.latency_ms if ok else float("inf"), o.end))
    latencies = [ms for ops in classes.values() for ms, _ in ops]
    lateness = [o.lateness_ms for o in opened]
    attempted = len(opened) + len(closed)
    failed = open_ok.count(False) + closed_ok.count(False)
    tail_name = f"latency_p{round(spec.tail_q * 100)}_ms"
    tail = percentile(latencies, spec.tail_q)
    metrics, info = _timing(classes, timeline, setup_s)
    metrics["peak_rss_mb"] = statistics.fmean(peaks)
    if not trace:
        # as measured: the closed loop keeps both cores busy, and its
        # throughput does not follow the probe (see pace)
        info["throughput_per_s"] = closed_ok.count(True) / closed_s
    info.update({
        tail_name: tail,
        "error_rate": failed / attempted if attempted else 0.0,
        "lateness_p50_ms": percentile(lateness, 0.50),
        "lateness_p95_ms": percentile(lateness, 0.95),
        "open_requests": len(opened),
        "closed_requests": len(closed),
        "duplicates_sent": sum(r.duplicate for p in parts for r in p),
        "warm_failed": warm_failed,
    })
    problems = []
    if tail > spec.limit_ms:
        problems.append(f"open-loop {tail_name} {tail:.1f} ms exceeds the "
                        f"{spec.limit_ms:.0f} ms limit")
    if info["lateness_p95_ms"] > workloads.LATENESS_LIMIT_MS:
        problems.append(f"generator p95 lateness "
                        f"{info['lateness_p95_ms']:.2f} ms exceeds "
                        f"{workloads.LATENESS_LIMIT_MS} ms")
    if warm_failed:
        problems.append(f"{warm_failed} set-up request(s) failed")
    result = RunResult(spec.name, seed, seconds, trace, metrics, attempted,
                       failed, correct=failed == 0 and warm_failed == 0,
                       problems=problems, info=info)
    if trace:
        snap0, prom0 = before
        snap1, prom1 = after
        duplicates = info["duplicates_sent"]
        hits = _counter_delta(snap0, snap1, "serve", "serve.dedup_hits")
        layer = {
            "service.queue_wait_p50_ms": _delta_quantile(
                prom0, prom1, "repro_serve_hist_queue_wait_ms", 0.5),
            "service.dedup_ratio": (hits / duplicates
                                    if hits is not None and duplicates
                                    else None),
            "service.warm_cache_misses": _counter_delta(
                snap0, snap1, "cache", "cache.ir.misses"),
            "service.warm_pool_allocs": _counter_delta(
                snap0, snap1, "pool", "pool.allocs"),
        }
        layer = {k: v for k, v in layer.items() if v is not None}
        _with_replay(result, layer, work, functools.partial(
            replay.replay_serve, spec, seed, seconds / 2))
    return result


# --------------------------------------------------------------------------
# Library workloads
# --------------------------------------------------------------------------


def run_library(name: str, seed: int, seconds: float, trace: bool,
                setups: int, work: Workdir) -> RunResult:
    """One library run; traced, the timed phase (:func:`_timed_seconds`)
    is halved and the replay takes half of *seconds*."""
    setup_s = _Setups()
    ready: List[Dict[str, Any]] = []
    child: Optional[Child] = None
    try:
        for _ in range(setups):
            if child is not None:
                _quit(child)
            with setup_s.timed():
                scratch = work.fresh("outputs-")
                child = Child([sys.executable, "-m",
                               "benchmarks.suite.worker", name, str(seed),
                               scratch], work, name)
                ready.append(json.loads(child.readline(STARTUP_TIMEOUT_S)))
        phase = (_timed_seconds(seconds, setup_s, setups)
                 / (2 if trace else 1))
        reset_peak_rss(child.proc.pid)
        child.send({"op": "run", "seconds": phase})
        reply = json.loads(child.readline(phase + STARTUP_TIMEOUT_S))
        rss = peak_rss_mb(child.proc.pid)
    finally:
        if child is not None:
            _quit(child)

    # each operation is a [ms, end] pair; a failed operation's time is
    # inf, and a wrong output makes it inf too, so every operation is
    # counted as failed at most once
    ops: Dict[str, List[List[float]]] = reply["classes"]
    info: Dict[str, float] = {}
    layer: Dict[str, float] = {}
    problems: List[str] = []
    if name == "graph_paper":
        for index, bil_path, den_path in reply["kept"]:
            bil_in, den_in = workloads.graph_frames(seed, index)
            for tag, path, expected in (
                    ("bilateral", bil_path, reference.bilateral13(bil_in)),
                    ("denoise", den_path, reference.denoise(den_in))):
                if not reference.matches(np.load(path), expected):
                    ops[tag][index][0] = float("inf")
        info["checked_pairs"] = len(reply["kept"])
        tail_q = 0.90
    else:
        # every pass must emit the first set-up pass's device code; a
        # pass that does not is wrong as a whole
        expected = ready[0]["digest"]
        bad_setups = sum(r["failed"] > 0 or r["digest"] != expected
                         for r in ready)
        if bad_setups:
            problems.append(f"{bad_setups} set-up pass(es) failed or "
                            f"emitted other device code")
        for i, digest in enumerate(reply["digests"]):
            if digest != expected:
                for times in ops.values():
                    times[i][0] = float("inf")
        info["passes"] = len(reply["digests"])
        info["code_bytes_per_pass"] = ready[0]["code_bytes"]
        tail_q = 0.99
    timeline = pace.Timeline([tuple(p) for p in reply["probes"]])
    own: Dict[str, pace.Timeline] = {}
    classes = {c: [ms for ms, _ in v] for c, v in ops.items()}
    if name == "graph_paper":
        # denoise runs OpenMP on both cores: scaled by the pair probe
        own["denoise"] = pace.Timeline(
            [tuple(p) for p in reply["pair_probes"]], pace.PAIR_REF_MS)
        info["pair_probe_p50_ms"] = own["denoise"].median_ms
        layer = {"frame.bilateral13_512_ms":
                 statistics.median(classes["bilateral"]),
                 "frame.denoise_2048_ms":
                 statistics.median(classes["denoise"])}
    attempted = sum(len(v) for v in classes.values())
    failed = sum(math.isinf(t) for v in classes.values() for t in v)
    metrics, speed = _timing(ops, timeline, setup_s, own)
    metrics["peak_rss_mb"] = rss
    info.update(speed)
    info[f"latency_p{round(tail_q * 100)}_ms"] = (
        workloads.class_percentile(classes, tail_q))
    info["throughput_per_s"] = (attempted - failed) / reply["elapsed_s"]
    info["error_rate"] = failed / attempted if attempted else 0.0
    result = RunResult(name, seed, seconds, trace, metrics, attempted,
                       failed, correct=failed == 0 and not problems,
                       problems=problems, info=info)
    if trace:
        _with_replay(result, layer, work, functools.partial(
            replay.replay_graph, seed, seconds / 2)
            if name == "graph_paper"
            else functools.partial(replay.replay_compile, seed, seconds / 2,
                                   ready[0]["digest"]))
    return result


def _quit(child: Child) -> None:
    if child.proc.poll() is None:
        child.send({"op": "quit"})
    child.stop()


# --------------------------------------------------------------------------
# Trace mode
# --------------------------------------------------------------------------


def _with_replay(result: RunResult, layer: Dict[str, float],
                 work: Workdir, run) -> None:
    """Replace *result*'s end-to-end metrics (kept under ``info``) with
    the per-layer ones: *layer* plus those the replay measured, and
    write the trace."""
    from repro.obs import validate_chrome_trace
    from repro.obs.export import chrome_trace

    os.environ.update(work.native_env())     # the replay starts cold
    out = run()
    result.info.update({f"e2e.{k}": v for k, v in result.metrics.items()})
    result.info["replay_ops"] = out.ops
    result.metrics = dict(out.metrics)
    result.metrics.update(layer)
    result.problems.extend(out.problems)
    if out.mismatches:
        result.correct = False
    doc = chrome_trace(out.tracer, metrics={})
    trace_problems = validate_chrome_trace(doc)
    if trace_problems:
        result.problems.append("trace fails validation: "
                               + "; ".join(trace_problems[:3]))
    path = WORK_ROOT / f"trace-{result.workload}-seed{result.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    result.info["trace_spans"] = len(doc["traceEvents"])


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


_SERVE_ONLY = ("protocol.decode_ms", "protocol.encode_ms",
               "protocol.fingerprint_ms", "server.json_ms",
               "service.queue_wait_p50_ms", "service.dedup_ratio",
               "service.warm_cache_misses", "service.warm_pool_allocs")
_GRAPH_PAPER_ONLY = ("graph.lint_ms", "frame.bilateral13_512_ms",
                     "frame.denoise_2048_ms")
_EXECUTION = ("planner.plan_ms", "fusion.fuse_ms",
              "scheduler.compile_graph_ms", "native_graph.plan_ms",
              "native_graph.compile_ms", "native_graph.fresh_compiles",
              "native_graph.cc_ms", "native_graph.segment_ms",
              "native_graph.segment_gbps", "native_graph.native_node_share",
              "absint.footprint_ms", "sim.execute_ms", "sim.estimate_ms")

#: per-layer metrics of layers a workload never crosses.  They read 0
#: in its traced runs (the result line needs a number for every
#: metric); any other metric a traced run does not measure is an error,
#: so a renamed span or a replay step that stops reporting cannot pass
#: for a perfect 0.
NOT_CROSSED: Dict[str, Tuple[str, ...]] = {
    "serve_small": _GRAPH_PAPER_ONLY,
    # no concurrent pairs are sent, so there is no dedup ratio
    "serve_large": _GRAPH_PAPER_ONLY + ("service.dedup_ratio",),
    "graph_paper": _SERVE_ONLY,
    "compile_cold": _SERVE_ONLY + _GRAPH_PAPER_ONLY + _EXECUTION,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool = False,
                 setups: int = 2, work: Optional[Workdir] = None,
                 endpoint: Optional[Tuple[str, int]] = None) -> RunResult:
    """Run workload *name* for *seconds* and return its result, its
    metrics exactly the contract's set for the mode, in its order.

    A traced run has one set-up and reports the per-layer metrics; a
    layer the workload never crosses (:data:`NOT_CROSSED`) reads 0.
    """
    from .sandbox import load_spec

    setups = 1 if trace else setups
    own = work is None
    work = work or Workdir()
    try:
        if name in workloads.SERVE_WORKLOADS:
            result = run_serve(workloads.SERVE_WORKLOADS[name], seed,
                               seconds, trace, setups, work, endpoint)
        elif name in workloads.LIBRARY_WORKLOADS:
            result = run_library(name, seed, seconds, trace, setups, work)
        else:
            raise ValueError(f"unknown workload {name!r}")
    finally:
        if own:
            work.close()
    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if trace
                                      else "end_to_end"]]
    measured = result.metrics
    absent = set(NOT_CROSSED[name]) if trace else set()
    missing = [k for k in wanted if k not in measured and k not in absent]
    if missing:
        raise KeyError(f"{name} did not measure {missing}")
    result.metrics = {k: measured.get(k, 0.0) for k in wanted}
    result.info.update({k: v for k, v in measured.items()
                        if k not in result.metrics})
    return result
