"""Compile and execute a :class:`~repro.graph.builder.PipelineGraph`.

The scheduler turns the declarative graph into launches:

* **fusion** (optional) — adjacent point operators collapse into single
  synthesized kernels first (:mod:`repro.graph.fusion`), so the chain
  ships fewer launches and fewer intermediates;
* **concurrent compilation** — every node compiles on a thread pool
  through one shared PR-1 :class:`~repro.cache.CompilationCache`, so
  identical kernels (Sobel-x vs Sobel-y share a frontend, repeated
  pyramid levels share everything) are paid for once;
* **parallel execution** — nodes dispatch in dependency order with
  independent branches (e.g. Sobel-x ∥ Sobel-y) running concurrently on
  a thread pool; outputs are deterministic because every node writes its
  own image and dependencies impose the only ordering that matters;
* **buffer lifetimes** — each intermediate image is backed by the arena
  pool (:mod:`repro.graph.pool`) when its producer launches and released
  after its last consumer finishes, so peak footprint follows the live
  set of the schedule instead of the edge count.

:func:`execute_graph` is :func:`prepare_graph` (fusion, compilation,
the native module, every per-run invariant) followed by one
:meth:`PreparedGraph.run` (buffers and launches); a host that runs one
structure over many frames keeps the :class:`PreparedGraph` and only
runs it again.

Every phase runs under a :mod:`repro.obs` span (``graph.validate`` →
``graph.fuse`` → ``graph.lint`` → ``graph.compile`` → ``graph.schedule``
with one ``graph.node`` per launch); work submitted to the thread pools
carries the submitting span's id so worker-thread spans stitch back
under the scheduler in the exported trace.  The returned
:class:`~repro.graph.report.GraphReport` aggregates the per-node timing
breakdowns, cache hits, launch counts and pool/fusion stats that the
``repro graph`` CLI prints.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Dict, List, Optional, Tuple, Union

from ..cache.store import CompilationCache
from ..errors import CodegenError, GraphError
from ..obs import child_of, current_id, get_registry, span
from ..obs.hist import observe
from ..runtime.compile import _resolve_cache, compile_ir, compile_kernel
from ..sim.launch import padding_alignment
from .builder import GraphNode, PipelineGraph
from .fusion import FusionStats, fuse_point_ops
from .pool import BufferPool, PoolStats
from .report import GraphReport, NodeReport

ENGINES = ("sim", "native", "auto")


def _resolve_pool(pool: Union[bool, BufferPool]) -> Optional[BufferPool]:
    """``True`` = fresh arena, ``False`` = unpooled, or bring your own
    (tests inspect a passed-in pool's stats after error paths)."""
    if pool is True:
        return BufferPool()
    if pool is False:
        return None
    return pool


def _compile_node(node: GraphNode,
                  store: Optional[CompilationCache],
                  tuned_engine: str = "sim") -> None:
    options = dict(node.options)
    # tuned-database winners are engine-specific (docs/TUNING.md): tell
    # the compile which tier this graph run targets unless the node
    # pinned its own
    options.setdefault("tuned_engine", tuned_engine)
    with span("graph.node_compile", node=node.name):
        if node.is_fused:
            node.compiled = compile_ir(
                node.ir, node.accessor_objs, node.iteration_space,
                cache=store, **options)
        else:
            node.compiled = compile_kernel(node.kernel, cache=store,
                                           **options)


def compile_graph(graph: PipelineGraph,
                  cache: Union[None, bool, CompilationCache] = None,
                  workers: Optional[int] = None,
                  tuned_engine: str = "sim") -> float:
    """Compile every node (concurrently for ``workers != 1``) through one
    shared compilation cache; returns wall-clock milliseconds."""
    store = _resolve_cache(cache)
    with span("graph.compile", graph=graph.name) as sp:
        pending = [n for n in graph.nodes if n.compiled is None]
        if workers == 1 or len(pending) <= 1:
            for node in pending:
                _compile_node(node, store, tuned_engine)
        else:
            token = current_id()
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_stitched, token,
                                       _compile_node, n, store,
                                       tuned_engine)
                           for n in pending]
                for f in futures:
                    f.result()       # surface the first compile error
    return sp.duration_ms


def _node_footprint(node: GraphNode) -> Optional[Dict]:
    """The node's analyzed access footprint for its
    :class:`~repro.graph.report.NodeReport` (``None`` when the kernel
    cannot be parsed/typechecked — the compile already reported why)."""
    try:
        from .fusion import node_ir
        return node_ir(node).footprint().to_dict()
    except Exception:
        return None


def _run_stitched(token, fn, *args):
    """Run *fn* in a worker thread with its spans parented to *token*."""
    with child_of(token):
        return fn(*args)


def execute_graph(graph: PipelineGraph,
                  cache: Union[None, bool, CompilationCache] = None,
                  workers: Optional[int] = None,
                  fuse: bool = True,
                  pool: Union[bool, BufferPool] = True,
                  engine: str = "sim",
                  register_metrics: bool = True,
                  lint: bool = True) -> GraphReport:
    """Validate, fuse, compile and run *graph*; returns the
    :class:`GraphReport`.  Exactly ``prepare_graph(...).run(...)``.

    *workers* sizes both the compile pool and the execution pool
    (``1`` forces fully serial operation — useful as the determinism
    baseline; single-node graphs always run serially, no executor is
    spun up for them); *fuse* toggles point-operator fusion; *pool*
    toggles the intermediate buffer arena (or accepts a
    :class:`~repro.graph.pool.BufferPool` to use).  *cache* is shared
    by every node compile (``True`` = process default).

    *engine* selects the execution tier: ``"sim"`` (Python simulator,
    the default and the oracle), ``"native"`` (compiled graph segments
    via :mod:`repro.runtime.native_graph`, simulator fallback per
    ineligible node), or ``"auto"`` (native when a C compiler is on
    PATH, simulator otherwise).  Native/auto fall back transparently to
    the simulator when native compilation is impossible; the report's
    ``engine_used``/``fallback_reason`` say what actually ran.

    *register_metrics* controls whether this run's pool/cache stats are
    installed as the process-wide registry's ``pool``/``cache`` sources.
    Long-running hosts that execute many graphs concurrently over
    per-worker arenas (``repro serve``) pass ``False`` and register one
    aggregate source of their own instead, so parallel requests do not
    race to overwrite the global slots.

    *lint* toggles the HIP3xx graph-lint pass.  It is advisory (it
    never changes what executes), so hosts that run the *same* graph
    structure over and over (``repro serve`` replaying a fingerprinted
    pipeline) can skip re-deriving identical diagnostics on the hot
    path; interactive and CI runs keep it on.
    """
    with span("graph.run", graph=graph.name, engine=engine) as run_span:
        report = prepare_graph(graph, cache=cache, workers=workers,
                               fuse=fuse, engine=engine,
                               lint=lint).run(
            pool=pool, register_metrics=register_metrics)
        run_span.attrs["launches"] = report.launches
        run_span.attrs["engine_used"] = report.engine_used
    return report


def prepare_graph(graph: PipelineGraph,
                  cache: Union[None, bool, CompilationCache] = None,
                  workers: Optional[int] = None,
                  fuse: bool = True,
                  engine: str = "sim",
                  lint: bool = True) -> "PreparedGraph":
    """Everything :func:`execute_graph` does before the first launch:
    validate → fuse → lint → compile every node → compile the native
    module, plus the static per-node report fields (footprints
    included) and the buffer accounting.  The returned
    :class:`PreparedGraph` runs any number of times; arguments mean
    what they mean for :func:`execute_graph`."""
    if engine not in ENGINES:
        raise GraphError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    with span("graph.validate", graph=graph.name):
        graph.validate()

    fusion_stats = FusionStats(nodes_before=len(graph.nodes),
                               nodes_after=len(graph.nodes))
    if fuse:
        with span("graph.fuse"):
            fusion_stats = fuse_point_ops(graph)
            graph.validate()     # a bad merge must fail loudly, not run

    # graph lint runs after fusion so HIP302 explains exactly the pairs
    # the fuser declined, not ones it was about to merge anyway
    graph_diags = []
    if lint:
        from ..lint import lint_graph
        from ..lint.collect import emit
        with span("graph.lint"):
            graph_diags = lint_graph(graph)
            emit(graph_diags)

    store = _resolve_cache(cache)
    compile_wall_ms = compile_graph(
        graph, cache=store, workers=workers,
        tuned_engine="native" if engine in ("native", "auto") else "sim")
    observe("graph.hist.compile_ms", compile_wall_ms)

    order = graph.topological_order()

    # -- engine selection ---------------------------------------------------
    native_module = None
    fallback_reason = None
    if engine in ("native", "auto"):
        from ..runtime.native_graph import compile_native_graph
        try:
            native_module = compile_native_graph(graph, order,
                                                 cache=store)
        except CodegenError as exc:
            # transparent fallback: no C compiler, or nothing eligible
            fallback_reason = str(exc)

    # -- buffer accounting --------------------------------------------------
    intermediates = graph.intermediates()

    def padded_bytes(img) -> int:
        # an intermediate individually allocated at its launch padding
        align = padding_alignment(graph.producer_of(img).compiled.device)
        stride = BufferPool.padded_stride(img.width, align)
        return img.height * stride * img.pixel_type.np_dtype.itemsize

    # naive baseline: every intermediate individually allocated, all
    # simultaneously live
    naive_bytes = sum(padded_bytes(img) for img in intermediates)
    slab = None
    native_nodes = set()
    # images a run writes in host memory; the native slab holds the rest
    host_written = [n.output for n in order]
    if native_module is not None:
        # slab high-water plus any intermediates left external (touched
        # by simulator-fallback nodes — individually materialised)
        plan = native_module.plan
        ext_inter = [img for img in intermediates
                     if plan.bindings.get(id(img)) is None
                     or plan.bindings[id(img)].kind == "ext"]
        slab = (plan.slab_bytes + sum(padded_bytes(img)
                                      for img in ext_inter),
                plan.slab_allocs + len(ext_inter), plan.slab_reuses)
        native_nodes = {lw.node.name for lw in plan.lowerings
                        if lw.native}
        host_written = [img for img in host_written
                        if plan.bindings.get(id(img)) is None
                        or plan.bindings[id(img)].kind == "ext"]

    # -- static report fields -----------------------------------------------
    static = {}
    for n in order:
        static[n.name] = dict(
            name=n.name,
            kernel=n.label(),
            device=n.compiled.device.name,
            backend=n.compiled.options.backend,
            block=tuple(n.compiled.options.block),
            compile_ms=n.compiled.compile_ms,
            from_cache=n.compiled.from_cache,
            fused_from=n.fused_from,
            stage_timings=dict(n.compiled.stage_timings),
            footprint=_node_footprint(n),
        )
    # native segments run for real; device time stays the *modelled*
    # estimate so reports are engine-comparable
    native_timing = {n.name: n.compiled.estimate_time()
                     for n in order if n.name in native_nodes}

    return PreparedGraph(
        graph=graph, order=order, store=store, workers=workers,
        engine=engine, fusion=fusion_stats, diagnostics=graph_diags,
        compile_wall_ms=compile_wall_ms, native_module=native_module,
        fallback_reason=fallback_reason, intermediates=intermediates,
        host_written=host_written, naive_bytes=naive_bytes, slab=slab,
        static=static, native_timing=native_timing)


@dataclasses.dataclass
class PreparedGraph:
    """A graph after :func:`prepare_graph`: compiled kernels, the loaded
    native module and every per-run invariant, ready to :meth:`run`.

    Between runs the caller may :meth:`~repro.dsl.image.Image.set_data`
    new pixels into the graph's input images; every image a run writes
    in host memory gets fresh zeroed storage at the start of each run
    after the first, so nothing one run wrote can leak into the next.  One instance runs
    on one thread at a time — the images are its own.
    """

    graph: PipelineGraph
    order: List[GraphNode]
    store: Optional[CompilationCache]
    workers: Optional[int]
    engine: str
    fusion: FusionStats
    diagnostics: List
    compile_wall_ms: float
    native_module: Optional[object]
    fallback_reason: Optional[str]
    intermediates: List
    host_written: List
    naive_bytes: int
    #: native tier only: (peak bytes, allocs, reuses) of the slab plus
    #: the intermediates left external
    slab: Optional[Tuple[int, int, int]]
    #: node name -> the NodeReport fields that do not change per run
    static: Dict[str, Dict]
    #: native node name -> modelled TimingBreakdown
    native_timing: Dict[str, object]
    runs: int = 0

    def release(self) -> None:
        """Drop every image's pixel storage and per-launch report, so an
        idle instance holds plans and compiled code but no frame-sized
        buffers.  The next run (after ``set_data`` on its inputs)
        materialises storage again."""
        for node in self.order:
            node.report = None
            node.output.release_data()
        for img in self.graph.inputs():
            img.release_data()

    def run(self, pool: Union[bool, BufferPool] = True,
            register_metrics: bool = True) -> GraphReport:
        """Execute the schedule once; *pool* and *register_metrics* as
        for :func:`execute_graph`."""
        graph, order = self.graph, self.order
        native_module = self.native_module
        intermediates = self.intermediates

        # -- buffer lifetimes -----------------------------------------------
        # the native tier replaces the runtime arena with its
        # compile-time slab; only the simulator engine pools buffers at
        # runtime
        arena = _resolve_pool(pool) if native_module is None else None
        if self.runs:
            # fresh-Image semantics: a node may cover only part of its
            # output, and the rest must read as zeros, not as the pixels
            # the previous run left there (the arena zero-fills what it
            # binds; slab-resident images are never touched here)
            pooled = ({id(img) for img in intermediates}
                      if arena is not None else set())
            for img in self.host_written:
                if id(img) not in pooled:
                    img.clear()
        compile_wall_ms = 0.0 if self.runs else self.compile_wall_ms
        self.runs += 1
        pool_stats = arena.stats if arena is not None else PoolStats()
        if register_metrics:
            registry = get_registry()
            registry.register_source("pool", pool_stats.metrics)
            if self.store is not None:
                registry.register_source("cache", self.store.stats.metrics)
        pool_stats.naive_bytes += self.naive_bytes
        if self.slab is not None:
            (pool_stats.peak_bytes, pool_stats.allocs,
             pool_stats.reuses) = self.slab
        elif arena is None:
            # unpooled execution allocates every intermediate for the
            # whole run — peak IS the naive footprint
            pool_stats.peak_bytes = pool_stats.naive_bytes
        remaining_consumers: Dict[int, int] = {
            id(img): len(graph.consumers_of(img)) for img in intermediates}
        # the decrement below is a read-modify-write racing across
        # branch workers; without the lock two consumers finishing at
        # once could both read the same count and either double-release
        # a buffer or leak it (current_bytes drift)
        consumers_lock = threading.Lock()

        node_wall_ms: Dict[str, float] = {}
        node_engine: Dict[str, str] = {}

        def run_node(node: GraphNode) -> None:
            with span("graph.node", node=node.name) as sp:
                if arena is not None and any(node.output is img
                                             for img in intermediates):
                    arena.bind(node.output,
                               padding_alignment(node.compiled.device))
                node.report = node.compiled.execute()
                if arena is not None:
                    for img in node.inputs:
                        key = id(img)
                        with consumers_lock:
                            left = remaining_consumers.get(key)
                            if left is None:
                                continue
                            left -= 1
                            remaining_consumers[key] = left
                        if left == 0:
                            arena.release(img)
            node_wall_ms[node.name] = sp.duration_ms

        def run_native_schedule() -> None:
            """Walk the interleaved plan serially: compiled segments
            via ctypes, ineligible nodes through the simulator."""
            plan = native_module.plan
            executor = native_module.executor()
            for kind, idx in plan.schedule:
                if kind == "native":
                    seg = plan.segments[idx]
                    with span("native.exec", segment=idx,
                              nodes=len(seg)) as seg_sp:
                        executor.run_segment(idx)
                    # the segment is one call; attribute its wall clock
                    # evenly across its nodes
                    per_node = seg_sp.duration_ms / len(seg)
                    for node_idx in seg:
                        node = order[node_idx]
                        node_wall_ms[node.name] = per_node
                        node_engine[node.name] = "native"
                else:
                    node = order[idx]
                    with span("graph.node", node=node.name) as nsp:
                        node.report = node.compiled.execute()
                    node_wall_ms[node.name] = nsp.duration_ms
                    node_engine[node.name] = "sim"

        with span("graph.schedule", workers=self.workers or 0) as sp:
            try:
                if native_module is not None:
                    sp.attrs["engine"] = "native"
                    run_native_schedule()
                # match compile_graph's short-circuit: a single-node
                # graph (or workers=1) runs serially — no executor for
                # one launch
                elif self.workers == 1 or len(order) <= 1:
                    for node in order:
                        run_node(node)
                else:
                    _run_parallel(graph, order, run_node, self.workers)
            finally:
                if arena is not None:
                    # normal completion has already released everything
                    # via consumer counting; after a mid-schedule fault
                    # this is what returns current_bytes to zero
                    arena.release_all()
        exec_wall_ms = sp.duration_ms
        observe("graph.hist.execute_ms", exec_wall_ms)
        for wall in node_wall_ms.values():
            observe("graph.hist.node_wall_ms", wall)

        node_reports = []
        for n in order:
            eng = node_engine.get(n.name, "sim")
            if eng == "native":
                timing = self.native_timing[n.name]
                time_ms = timing.total_ms
            else:
                timing = n.report.timing
                time_ms = n.report.time_ms
            node_reports.append(NodeReport(
                time_ms=time_ms, timing=timing,
                wall_ms=node_wall_ms.get(n.name, 0.0), engine=eng,
                **self.static[n.name]))
        store = self.store
        return GraphReport(
            graph_name=graph.name,
            nodes=node_reports,
            fusion=self.fusion,
            pool=pool_stats,
            compile_wall_ms=compile_wall_ms,
            execute_wall_ms=exec_wall_ms,
            cache_stats=(store.stats.as_dict() if store is not None
                         else None),
            diagnostics=self.diagnostics,
            engine=self.engine,
            engine_used="native" if native_module is not None else "sim",
            fallback_reason=self.fallback_reason,
        )


def _run_parallel(graph: PipelineGraph, order, run_node,
                  workers: Optional[int]) -> None:
    """Dependency-counting dispatch: a node is submitted the moment its
    producers finish, so independent branches overlap."""
    deps = {n.name: {d.name for d in graph.dependencies(n)} for n in order}
    dependents: Dict[str, list] = {n.name: [] for n in order}
    by_name = {n.name: n for n in order}
    for n in order:
        for d in deps[n.name]:
            dependents[d].append(n.name)
    token = current_id()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        running = {}

        def submit(node):
            fut = pool.submit(_run_stitched, token, run_node, node)
            running[fut] = node.name

        for n in order:
            if not deps[n.name]:
                submit(n)
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                finished = running.pop(fut)
                fut.result()     # propagate launch faults
                for dep_name in dependents[finished]:
                    deps[dep_name].discard(finished)
                    if not deps[dep_name]:
                        submit(by_name[dep_name])
