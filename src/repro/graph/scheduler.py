"""Compile and execute a :class:`~repro.graph.builder.PipelineGraph`.

The scheduler turns the declarative graph into launches:

* **fusion** (optional) — adjacent point operators collapse into single
  synthesized kernels first (:mod:`repro.graph.fusion`), so the chain
  ships fewer launches and fewer intermediates;
* **concurrent compilation** — every node compiles on a thread pool
  through one shared PR-1 :class:`~repro.cache.CompilationCache`, so
  identical kernels (Sobel-x vs Sobel-y share a frontend, repeated
  pyramid levels share everything) are paid for once;
* **buffer lifetimes** — the schedule runs serially, so its order is
  happens-before: at prepare time every intermediate gets a byte offset
  in one memory plan (:mod:`repro.graph.pool`), shared with the
  intermediates whose last reader runs before its writer.  A run takes
  one piece of the caller's arena for the plan, so peak footprint
  follows the live set of the schedule instead of the edge count.

:func:`execute_graph` is :func:`prepare_graph` (fusion, compilation,
the native module, the memory plan, every per-run invariant) followed
by one :meth:`PreparedGraph.run` (bindings and launches); a host that
runs one structure over many frames keeps the :class:`PreparedGraph`
and only runs it again.

Every phase runs under a :mod:`repro.obs` span (``graph.validate`` →
``graph.fuse`` → ``graph.lint`` → ``graph.compile`` → ``graph.schedule``
with one ``graph.node`` per launch); work submitted to the compile
thread pool carries the submitting span's id so worker-thread spans
stitch back under the scheduler in the exported trace.  The returned
:class:`~repro.graph.report.GraphReport` aggregates the per-node timing
breakdowns, cache hits, launch counts and pool/fusion stats that the
``repro graph`` CLI prints.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple, Union

from ..cache.store import CompilationCache
from ..errors import CodegenError, GraphError
from ..obs import child_of, current_id, get_registry, span
from ..obs.hist import observe
from ..runtime.compile import _resolve_cache, compile_ir, compile_kernel
from .builder import GraphNode, PipelineGraph
from .fusion import FusionStats, fuse_point_ops
from .pool import BufferPool, MemoryPlan, plan_memory
from .report import GraphReport, NodeReport

ENGINES = ("sim", "native", "auto")


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
                  pool: Optional[BufferPool] = None,
                  engine: str = "sim",
                  register_metrics: bool = True,
                  lint: bool = True) -> GraphReport:
    """Validate, fuse, compile and run *graph*; returns the
    :class:`GraphReport`.  Exactly ``prepare_graph(...).run(...)``.

    *workers* sizes the compile pool (``1`` compiles serially; the
    schedule itself always runs serially); *fuse* toggles point-operator
    fusion; *pool* is the :class:`~repro.graph.pool.BufferPool` arena
    the run's intermediates live in (``None`` = a fresh one).  *cache*
    is shared by every node compile (``True`` = process default).

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
    validate → fuse → lint → compile every node (on *workers* threads)
    → compile the native module → lay out the memory plan, plus the
    static per-node report fields (footprints included).  The returned
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

    # -- schedule and memory plan -------------------------------------------
    if native_module is not None:
        native_plan = native_module.plan
        schedule = native_plan.schedule
        native_nodes = {lw.node.name for lw in native_plan.lowerings
                        if lw.native}
    else:
        native_plan = None
        schedule = [("sim", i) for i in range(len(order))]
        native_nodes = set()
    memory = plan_memory(graph, order, schedule, native_plan)

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
        graph=graph, order=order, store=store, engine=engine,
        fusion=fusion_stats, diagnostics=graph_diags,
        compile_wall_ms=compile_wall_ms, native_module=native_module,
        fallback_reason=fallback_reason, schedule=schedule,
        memory=memory, static=static, native_timing=native_timing)


@dataclasses.dataclass
class PreparedGraph:
    """A graph after :func:`prepare_graph`: compiled kernels, the loaded
    native module, the memory plan and every per-run invariant, ready
    to :meth:`run`.

    Between runs the caller may :meth:`~repro.dsl.image.Image.set_data`
    new pixels into the graph's input images.  A run never sees pixels
    an earlier run wrote: an image whose writer covers only part of it
    is zeroed just before the writer runs.  Intermediates live in the
    arena the run is given; graph outputs keep their own storage from
    run to run.  One instance runs on one thread at a time — the images
    are its own.
    """

    graph: PipelineGraph
    order: List[GraphNode]
    store: Optional[CompilationCache]
    engine: str
    fusion: FusionStats
    diagnostics: List
    compile_wall_ms: float
    native_module: Optional[object]
    fallback_reason: Optional[str]
    #: the serial run: ("native", segment) | ("sim", node index)
    schedule: List[Tuple[str, int]]
    memory: MemoryPlan
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

    def run(self, pool: Optional[BufferPool] = None,
            register_metrics: bool = True) -> GraphReport:
        """Execute the schedule once in *pool* (``None`` = a fresh
        arena); *register_metrics* as for :func:`execute_graph`."""
        graph, order = self.graph, self.order
        native_module = self.native_module
        memory = self.memory
        compile_wall_ms = 0.0 if self.runs else self.compile_wall_ms
        self.runs += 1
        if register_metrics:
            registry = get_registry()
            registry.register_source("pool", memory.stats.metrics)
            if self.store is not None:
                registry.register_source("cache", self.store.stats.metrics)

        node_wall_ms: Dict[str, float] = {}
        node_engine: Dict[str, str] = {}
        with span("graph.schedule") as sp:
            memory.bind(pool if pool is not None else BufferPool())
            if native_module is not None:
                sp.attrs["engine"] = "native"
                executor = native_module.executor()
            for step, (kind, idx) in enumerate(self.schedule):
                for write in memory.writes[step]:
                    write.prepare()
                if kind == "native":
                    seg = native_module.plan.segments[idx]
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
            pool=memory.stats,
            compile_wall_ms=compile_wall_ms,
            execute_wall_ms=exec_wall_ms,
            cache_stats=(store.stats.as_dict() if store is not None
                         else None),
            diagnostics=self.diagnostics,
            engine=self.engine,
            engine_used="native" if native_module is not None else "sim",
            fallback_reason=self.fallback_reason,
        )
