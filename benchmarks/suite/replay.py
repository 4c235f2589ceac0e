"""The traced replay behind the per-layer metrics.

End-to-end numbers come from the untraced system under test; this
module explains them.  It replays a workload's seeded sequence in this
process and makes, itself, the public calls that
``ServeService._execute`` and ``execute_graph`` make for a request
(engine ``auto``, one worker), each wrapped in a ``bench.<layer>.<call>``
span.  Spans the program already emits (``native.compile``,
``absint.*``, ``compile.*``, ``exec.*``) nest under them and are
counted; ``plan_native_graph`` is wrapped for the replay's duration so
the planning share of ``compile_native_graph`` can be told apart.

Every operation runs three times: an untraced ``execute_graph``
reference, an untraced replay and a traced replay (``compile_cold``
has no decomposition: ``compile_kernel`` itself is timed, untraced and
traced).  Two guards keep the decomposition honest -- if either fails,
the replay no longer describes what the scheduler does:

* the replay's output is byte-identical to the reference's;
* the replay's graph time lands within :data:`DRIFT_LIMIT` of the
  reference's ``execute_graph`` time (a per-op geometric mean, flagged
  only when the excess is clear of the per-op jitter).

The step spans must also cover at least :data:`COVERAGE_FLOOR` of each
traced operation with their self time, so no blocking step goes
unattributed.  ``trace.overhead_pct`` compares the traced replay with
the untraced one.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import json
import math
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import span
from repro.obs.trace import Span, Tracer, tracing

from . import workloads

DRIFT_LIMIT = 0.10
COVERAGE_FLOOR = 0.90

#: idle time before each execution of a serve request.  Serve requests
#: arrive ~100 ms apart, long enough for OpenMP's worker threads to go
#: to sleep, and waking them costs a small native segment ~20 ms on two
#: threads; back to back, the replay would find them spinning and miss
#: that cost.
SERVE_IDLE_S = 0.05

#: root span name per workload kind; each op (request, frame pair,
#: compile) is one root
ROOT_SPAN = {"serve": "bench.request", "graph": "bench.frame_pair",
             "compile": "bench.compile.compile_kernel"}


class Replay:
    """Issues the decomposed calls; ``op`` tags every span it opens."""

    def __init__(self, cache):
        self.cache = cache
        self.op: Any = None
        #: set per op by :meth:`_Run.timed`: traced? set-up?
        self.traced = False
        self.setup = False
        # what the spans cannot carry, gathered on traced ops only:
        # launches on timed ops; stages and code of every fresh compile
        # (set-up included: on the warm workloads that is all of them)
        self.segment_bytes = 0
        self.native_nodes = 0
        self.launches = 0
        self.stage_timings: List[Dict[str, float]] = []
        self.code_bytes = 0

    @property
    def counting(self) -> bool:
        return self.traced and not self.setup

    def note_compile(self, compiled) -> None:
        if self.traced and not compiled.from_cache:
            self.stage_timings.append(dict(compiled.stage_timings))
            if self.setup:
                self.code_bytes += len(compiled.device_code)

    def span(self, name: str, **attrs):
        return span(name, op=self.op, **attrs)

    # -- execute_graph, call by call ----------------------------------------

    def run_graph(self, graph, lint: bool) -> None:
        """What ``execute_graph(engine="auto", workers=1)`` does."""
        from repro.errors import CodegenError
        from repro.graph.fusion import fuse_point_ops, node_ir
        from repro.graph.scheduler import compile_graph
        from repro.runtime.native_graph import compile_native_graph

        with self.span("bench.graph.validate"):
            graph.validate()
        with self.span("bench.fusion.fuse"):
            fuse_point_ops(graph)
            graph.validate()
        if lint:
            from repro.lint import lint_graph
            from repro.lint.collect import emit
            with self.span("bench.graph.lint"):
                emit(lint_graph(graph))
        with self.span("bench.scheduler.compile_graph"):
            compile_graph(graph, cache=self.cache, workers=1,
                          tuned_engine="native")
        order = graph.topological_order()
        for node in order:
            self.note_compile(node.compiled)
        module = None
        with self.span("bench.native_graph.compile"):
            try:
                module = compile_native_graph(graph, order,
                                              cache=self.cache)
            except CodegenError:
                module = None
        if self.counting:
            self.launches += len(order)
        if module is not None:
            self._run_native(module, order)
        else:
            self._run_sim(graph, order)
        with self.span("bench.absint.footprint"):
            for node in order:
                try:
                    node_ir(node).footprint().to_dict()
                except Exception:   # noqa: BLE001 - as execute_graph
                    pass

    def _run_native(self, module, order) -> None:
        plan = module.plan
        with self.span("bench.native_graph.executor"):
            executor = module.executor()
        for kind, idx in plan.schedule:
            if kind == "native":
                seg = plan.segments[idx]
                with self.span("bench.native_graph.segment",
                               segment=idx, nodes=len(seg)):
                    executor.run_segment(idx)
                if self.counting:
                    self.native_nodes += len(seg)
                    self.segment_bytes += sum(
                        _node_bytes(plan.lowerings[i]) for i in seg)
                for node_idx in seg:
                    with self.span("bench.sim.estimate"):
                        order[node_idx].compiled.estimate_time()
            else:
                with self.span("bench.sim.execute"):
                    order[idx].compiled.execute()

    def _run_sim(self, graph, order) -> None:
        from repro.graph.pool import BufferPool
        from repro.sim.launch import padding_alignment

        arena = BufferPool()
        intermediates = graph.intermediates()
        remaining = {id(img): len(graph.consumers_of(img))
                     for img in intermediates}
        try:
            for node in order:
                with self.span("bench.sim.execute"):
                    if any(node.output is img for img in intermediates):
                        arena.bind(node.output,
                                   padding_alignment(node.compiled.device))
                    node.compiled.execute()
                    for img in node.inputs:
                        left = remaining.get(id(img))
                        if left is None:
                            continue
                        remaining[id(img)] = left - 1
                        if left == 1:
                            arena.release(img)
        finally:
            arena.release_all()

    # -- one operation per workload kind -----------------------------------

    def serve_request(self, body: bytes) -> Tuple[np.ndarray, float]:
        """``ServeService`` intake + ``_execute`` + the HTTP framing:
        returns (output pixels, graph milliseconds)."""
        from repro.serve.planner import plan_request
        from repro.serve.protocol import (decode_image, encode_image,
                                          request_fingerprint)

        with self.span("bench.server.json_loads"):
            doc = json.loads(body)
        for _ in ("submit", "execute"):   # the service hashes twice
            with self.span("bench.protocol.fingerprint"):
                fingerprint, _ = request_fingerprint(
                    doc, default_engine="auto")
        with self.span("bench.protocol.decode"):
            data = decode_image(doc.get("image"))
        with self.span("bench.planner.plan"):
            plan = plan_request(doc, data)
        t0 = time.perf_counter()
        self.run_graph(plan.graph, lint=False)
        graph_ms = (time.perf_counter() - t0) * 1e3
        result = plan.output.get_data()
        with self.span("bench.protocol.encode"):
            encoded = encode_image(result)
        with self.span("bench.server.json_dumps"):
            json.dumps({"status": "ok", "image": encoded,
                        "meta": {"fingerprint": fingerprint}}).encode()
        return result, graph_ms

    def graph_frame(self, build: Callable, pixels: np.ndarray
                    ) -> Tuple[np.ndarray, float]:
        with self.span("bench.planner.plan"):
            graph, out = build(pixels)
        t0 = time.perf_counter()
        self.run_graph(graph, lint=True)
        graph_ms = (time.perf_counter() - t0) * 1e3
        return out.get_data(), graph_ms


def _node_bytes(lowering) -> int:
    """Computed bytes one native node moves: every input image read
    once, the output written once."""
    images = [lowering.node.output] + [a.image for a in
                                       lowering.acc_objs.values()]
    return sum(img.width * img.height * img.pixel_type.np_dtype.itemsize
               for img in images)


@contextlib.contextmanager
def _planning_span(rp: Replay):
    """Wrap ``plan_native_graph`` (looked up as a module global by
    ``compile_native_graph``) in a ``bench.native_graph.plan`` span."""
    from repro.runtime import native_graph

    original = native_graph.plan_native_graph

    def planned(*args, **kwargs):
        with rp.span("bench.native_graph.plan"):
            return original(*args, **kwargs)

    native_graph.plan_native_graph = planned
    try:
        yield
    finally:
        native_graph.plan_native_graph = original


# --------------------------------------------------------------------------
# References: the untraced public call the replay must agree with
# --------------------------------------------------------------------------


def _reference_serve(body: bytes, cache) -> Tuple[np.ndarray, float]:
    from repro.graph.pool import BufferPool
    from repro.graph.scheduler import execute_graph
    from repro.serve.planner import plan_request
    from repro.serve.protocol import decode_image

    doc = json.loads(body)
    plan = plan_request(doc, decode_image(doc["image"]))
    t0 = time.perf_counter()
    execute_graph(plan.graph, cache=cache, workers=1, pool=BufferPool(),
                  engine="auto", register_metrics=False, lint=False)
    graph_ms = (time.perf_counter() - t0) * 1e3
    return plan.output.get_data(), graph_ms


def _reference_frame(build: Callable, pixels: np.ndarray, cache
                     ) -> Tuple[np.ndarray, float]:
    from repro.graph.scheduler import execute_graph

    graph, out = build(pixels)
    t0 = time.perf_counter()
    execute_graph(graph, cache=cache, engine="auto", workers=1)
    graph_ms = (time.perf_counter() - t0) * 1e3
    return out.get_data(), graph_ms


# --------------------------------------------------------------------------
# Driving a replay
# --------------------------------------------------------------------------


class _Run:
    """Bookkeeping shared by the three workload kinds."""

    def __init__(self, kind: str, cache):
        self.kind = kind
        self.tracer = Tracer("bench")
        self.rp = Replay(cache)
        self.untraced_ms = 0.0
        self.traced_ms = 0.0
        #: per op: log(replay graph time / execute_graph time)
        self.drift_logs: List[float] = []
        self.ops = 0
        self.mismatches = 0
        #: IR-cache (hits, lookups) over the timed ops
        self.cache_hits = 0
        self.cache_lookups = 0

    def timed(self, op_id, fn: Callable, traced: bool):
        """Run ``fn()`` as op *op_id* under its root span; returns
        ``(result, wall ms)``."""
        rp = self.rp
        rp.op, rp.traced = op_id, traced
        rp.setup = isinstance(op_id, str) and op_id.startswith("setup")
        ctx = tracing(self.tracer) if traced else contextlib.nullcontext()
        before = _cache_counts(rp.cache)
        t0 = time.perf_counter()
        with ctx, _planning_span(rp), rp.span(ROOT_SPAN[self.kind]):
            result = fn()
        elapsed = (time.perf_counter() - t0) * 1e3
        if rp.counting:
            after = _cache_counts(rp.cache)
            self.cache_hits += after[0] - before[0]
            self.cache_lookups += after[1] - before[1]
        return result, elapsed

    def triple(self, op_id, reference: Callable, replay: Callable,
               idle: float = 0.0) -> None:
        """Reference, untraced replay and traced replay of one op, each
        after *idle* seconds of quiet.  Whichever runs first pays ~5%
        more (its memory is not yet paged in), so the order rotates
        from op to op and every kind takes every position equally."""
        runs = [("ref", reference),
                ("untraced", lambda: self.timed(op_id, replay, False)),
                ("traced", lambda: self.timed(op_id, replay, True))]
        shift = self.ops % len(runs)
        got = {}
        for kind, fn in runs[shift:] + runs[:shift]:
            time.sleep(idle)
            got[kind] = fn()
        ref_out, ref_graph = got["ref"]
        (out_u, graph_u), untraced = got["untraced"]
        (out_t, _), traced = got["traced"]
        if not (_same(ref_out, out_u) and _same(ref_out, out_t)):
            self.mismatches += 1
        self.drift_logs.append(math.log(graph_u / ref_graph))
        self.untraced_ms += untraced
        self.traced_ms += traced
        self.ops += 1


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _cache_counts(cache) -> Tuple[int, int]:
    if cache is None:
        return 0, 0
    stats = cache.stats
    return stats.hits + stats.disk_hits, stats.lookups


def replay_serve(spec: "workloads.ServeWorkload", seed: int,
                 seconds: float) -> "ReplayResult":
    """The open-loop sequence of a serve workload, request by request
    (the second member of a concurrent pair is skipped: the service
    answers it from the first one's execution)."""
    from repro.cache import CompilationCache

    run = _Run("serve", CompilationCache())
    for i, req in enumerate(workloads.warm_requests(spec)):
        body = req.body(seed)
        run.timed(f"setup{i}", lambda: run.rp.serve_request(body), True)
    deadline = time.monotonic() + seconds
    schedule = [r for r in workloads.open_loop_schedule(
        spec, seed, seconds * workloads.OPEN_SHARE) if not r.duplicate]
    for i, req in enumerate(schedule):
        if time.monotonic() > deadline and run.ops >= 2:
            break
        body = req.body(seed)
        run.triple(i, lambda: _reference_serve(body, run.rp.cache),
                   lambda: run.rp.serve_request(body), SERVE_IDLE_S)
    return _finish(run)


def replay_graph(seed: int, seconds: float) -> "ReplayResult":
    """graph_paper frame pairs, each program through the replay."""
    from repro.cache import CompilationCache

    run = _Run("graph", CompilationCache())
    programs = (workloads.bilateral_graph, workloads.denoise_graph)

    def pair(index: int, replay: bool):
        outs, graph_ms = [], 0.0
        for build, pixels in zip(programs,
                                 workloads.graph_frames(seed, index)):
            if replay:
                out, ms = run.rp.graph_frame(build, pixels)
            else:
                out, ms = _reference_frame(build, pixels, run.rp.cache)
            outs.append(out)
            graph_ms += ms
        return np.concatenate([o.ravel() for o in outs]), graph_ms

    run.timed("setup", lambda: pair(workloads.SETUP_PAIR, True), True)
    deadline = time.monotonic() + seconds
    index = 0
    while time.monotonic() < deadline or run.ops < 2:
        run.triple(index, lambda: pair(index, False),
                   lambda: pair(index, True))
        index += 1
    return _finish(run)


def replay_compile(seed: int, seconds: float,
                   expected_digest: str) -> "ReplayResult":
    """compile_cold: ``compile_kernel`` is itself the public call, so
    there is nothing to decompose and no drift to guard.  Each pass runs
    untraced, then traced; both must reproduce the end-to-end
    device-code digest."""
    run = _Run("compile", None)
    digests = []

    def one_pass(pass_index: int, traced: bool, tag: str) -> float:
        run.rp.cache, jobs = workloads.compile_pass(seed, pass_index)
        codes = {}
        total = 0.0
        for key, call in jobs:
            compiled, ms = run.timed(tag + key, call, traced)
            run.rp.note_compile(compiled)
            total += ms
            run.ops += run.rp.counting
            codes[key] = compiled.device_code
        digests.append(workloads.code_digest(codes))
        return total

    one_pass(0, True, "setup")
    deadline = time.monotonic() + seconds
    pass_index = 1
    while time.monotonic() < deadline or pass_index < 2:
        run.untraced_ms += one_pass(pass_index, False, "u")
        run.traced_ms += one_pass(pass_index, True, f"p{pass_index}-")
        pass_index += 1
    run.mismatches = sum(d != expected_digest for d in digests)
    return _finish(run)


# --------------------------------------------------------------------------
# Turning spans into layer metrics
# --------------------------------------------------------------------------


@dataclasses.dataclass
class ReplayResult:
    """Layer metrics plus the guards' verdicts."""

    metrics: Dict[str, float]
    problems: List[str]
    mismatches: int
    ops: int
    tracer: Tracer


def self_time_us(sp: Span, kids: List[Span]) -> float:
    """``sp``'s duration minus the part of it its children cover."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(k.start_us, sp.start_us),
                          min(k.end_us, sp.end_us)) for k in kids):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return sp.duration_us - covered


def _finish(run: _Run) -> ReplayResult:
    spans = run.tracer.spans()
    by_id = {s.span_id: s for s in spans}
    kids: Dict[int, List[Span]] = collections.defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            kids[s.parent_id].append(s)

    def op_of(s: Span):
        while s is not None:
            if "op" in s.attrs:
                return s.attrs["op"]
            s = by_id.get(s.parent_id)
        return None

    timed = collections.defaultdict(float)     # name -> total ms
    counts = collections.Counter()             # name -> spans, timed ops
    seen = collections.Counter()               # name -> spans, set-up too
    fresh_cc: List[float] = []
    fresh_timed = 0
    covered_ms = root_ms = 0.0
    root = ROOT_SPAN[run.kind]
    for s in spans:
        op = op_of(s)
        is_setup = isinstance(op, str) and op.startswith("setup")
        seen[s.name] += 1
        if s.name == "native.compile" and s.attrs.get("origin") == "fresh":
            fresh_cc.append(s.duration_ms)
            fresh_timed += not is_setup
        if is_setup:
            continue
        timed[s.name] += s.duration_ms
        counts[s.name] += 1
        if s.name == root:
            root_ms += s.duration_ms
            covered_ms += (s.duration_us
                           - self_time_us(s, kids[s.span_id])) / 1e3

    ops = max(run.ops, 1)

    # A metric is reported only when the step that produces it ran (or,
    # for a step that may legitimately be skipped -- a plan the program
    # caches, a node that leaves the simulator -- when its enclosing
    # call ran, so the skip reads 0).  Anything else is left out, and
    # the harness refuses a run that misses a metric its workload
    # crosses.
    def per_op(*names: str, within: Optional[str] = None
               ) -> Optional[float]:
        ran = counts[within] if within else sum(counts[n] for n in names)
        return sum(timed[n] for n in names) / ops if ran else None

    stages = run.rp.stage_timings

    def stage(*keys: str) -> Optional[float]:
        with_key = [st for st in stages if any(k in st for k in keys)]
        if not with_key:
            return None
        return sum(st.get(k, 0.0) for st in with_key
                   for k in keys) / len(with_key)

    def ratio(num: float, den: float, scale: float = 1.0
              ) -> Optional[float]:
        return num / den * scale if den else None

    graph = "bench.native_graph.compile"    # one per executed graph
    metrics = {
        "protocol.decode_ms": per_op("bench.protocol.decode"),
        "protocol.encode_ms": per_op("bench.protocol.encode"),
        "protocol.fingerprint_ms": per_op("bench.protocol.fingerprint"),
        "server.json_ms": per_op("bench.server.json_loads",
                                 "bench.server.json_dumps"),
        "planner.plan_ms": per_op("bench.planner.plan"),
        "graph.lint_ms": per_op("bench.graph.lint"),
        "fusion.fuse_ms": per_op("bench.fusion.fuse"),
        "scheduler.compile_graph_ms":
            per_op("bench.scheduler.compile_graph"),
        "cache.ir_hit_ratio": ratio(run.cache_hits, run.cache_lookups),
        "native_graph.plan_ms": per_op("bench.native_graph.plan",
                                       within=graph),
        "native_graph.compile_ms": per_op(graph),
        "native_graph.fresh_compiles": (
            fresh_timed if seen["native.compile"] else None),
        "native_graph.cc_ms": (statistics.fmean(fresh_cc)
                               if fresh_cc else None),
        "native_graph.segment_ms": per_op("bench.native_graph.segment",
                                          within=graph),
        "native_graph.segment_gbps": ratio(
            run.rp.segment_bytes,
            timed["bench.native_graph.segment"], 1e3 / 1e9),
        "native_graph.native_node_share": ratio(run.rp.native_nodes,
                                                run.rp.launches),
        "absint.fixpoints_per_op": (counts["absint.fixpoint"] / ops
                                    if seen["absint.fixpoint"] else None),
        "absint.footprint_ms": per_op("bench.absint.footprint"),
        "sim.execute_ms": per_op("bench.sim.execute", within=graph),
        "sim.estimate_ms": per_op("bench.sim.estimate", "exec.timing",
                                  within=graph),
        "compile.frontend_ms": stage("frontend_ms"),
        "compile.lint_ms": stage("lint_ms"),
        "compile.resources_ms": stage("resources_ms"),
        "compile.select_ms": stage("select_ms"),
        "compile.codegen_ms": stage("codegen_provisional_ms",
                                    "codegen_final_ms"),
        "backends.code_bytes": run.rp.code_bytes or None,
        "trace.overhead_pct": ratio(run.traced_ms - run.untraced_ms,
                                    run.untraced_ms, 100.0),
        "trace.coverage_pct": ratio(covered_ms, root_ms, 100.0),
    }
    metrics = {k: v for k, v in metrics.items() if v is not None}
    problems: List[str] = []
    if run.mismatches:
        problems.append(f"replay output differs from the reference on "
                        f"{run.mismatches} op(s)")
    if len(run.drift_logs) >= 2:
        mean = statistics.fmean(run.drift_logs)
        se = statistics.stdev(run.drift_logs) / math.sqrt(len(run.drift_logs))
        metrics["trace.drift_pct"] = math.expm1(mean) * 100.0
        # per-op times jitter by ~25% (OpenMP wake-up, page faults), so
        # only a drift beyond the limit at ~95% confidence counts
        if abs(mean) - 2 * se > math.log1p(DRIFT_LIMIT):
            problems.append(
                f"replay graph time is {math.expm1(mean):+.1%} off "
                f"execute_graph's (+-{2 * se:.1%}): beyond "
                f"{DRIFT_LIMIT:.0%}")
    coverage = metrics.get("trace.coverage_pct", 0.0)
    if coverage < COVERAGE_FLOOR * 100.0:
        problems.append(f"step spans cover {coverage:.1f}% of the traced "
                        f"ops (< {COVERAGE_FLOOR:.0%})")
    return ReplayResult(metrics, problems, run.mismatches, run.ops,
                        run.tracer)
