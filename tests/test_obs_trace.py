"""The tracing/metrics subsystem (:mod:`repro.obs`).

Three families of guarantees:

* **span mechanics** — nesting via per-thread stacks, parent-id
  stitching across thread-pool boundaries, measured-but-unrecorded
  behavior when no tracer is installed;
* **deterministic export** — the golden Chrome-trace test pins the span
  names and creation order a fixed compile workload produces, and the
  concurrency tests check parallel workers' spans keep correct parent
  ids (never interleave corruptly) under ``validate_chrome_trace``;
* **the stage-timings contract** — fresh-compile and cache-hit paths
  emit the identical key schema, with skipped stages present as 0.0.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import CompilationCache, compile_kernel
from repro.obs import (
    MetricsRegistry,
    STAGE_KEYS,
    TIMING_KEYS,
    Tracer,
    child_of,
    chrome_trace,
    current_id,
    enabled,
    get_tracer,
    json_trace,
    normalize_stage_timings,
    render,
    span,
    stage_sum_ms,
    stage_totals,
    text_summary,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
)

from .helpers import build_convolution

DEVICE = "Tesla C2050"


def _warm_optdb():
    """The per-device optimization database microbenchmarks lazily on
    first compile; run one untraced compile so golden traces don't
    depend on whether an earlier test already paid that cost."""
    compile_kernel(build_convolution(), device=DEVICE)


# --------------------------------------------------------------------------
# Span mechanics
# --------------------------------------------------------------------------


class TestSpanMechanics:
    def test_nesting_assigns_parent_ids(self):
        with tracing() as tracer:
            with span("outer") as outer:
                with span("inner.a") as a:
                    pass
                with span("inner.b") as b:
                    pass
        assert outer.parent_id is None
        assert a.parent_id == outer.span_id == b.parent_id
        names = [sp.name for sp in tracer.spans()]
        assert names == ["outer", "inner.a", "inner.b"]

    def test_span_ids_unique_and_creation_ordered(self):
        with tracing() as tracer:
            with span("a"):
                with span("b"):
                    pass
            with span("c"):
                pass
        ids = [sp.span_id for sp in tracer.spans()]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)

    def test_attrs_travel_with_the_span(self):
        with tracing() as tracer:
            with span("work", kernel="gauss", pixels=42) as sp:
                sp.attrs["late"] = True
        recorded = tracer.spans()[0]
        assert recorded.attrs == {"kernel": "gauss", "pixels": 42,
                                  "late": True}

    def test_disabled_still_measures_but_records_nothing(self):
        assert not enabled()
        with span("unrecorded") as sp:
            x = sum(range(1000))
        assert x == 499500
        assert sp.duration_ms >= 0.0
        assert sp.end_us is not None
        assert get_tracer() is None

    def test_tracing_restores_previous_tracer(self):
        outer_tracer = Tracer("outer")
        with tracing(outer_tracer):
            with tracing() as inner:
                assert get_tracer() is inner
            assert get_tracer() is outer_tracer
        assert get_tracer() is None

    def test_exception_in_span_still_records(self):
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with span("failing"):
                    raise ValueError("boom")
        assert [sp.name for sp in tracer.spans()] == ["failing"]
        assert tracer.spans()[0].end_us is not None


class TestThreadStitching:
    def test_child_of_adopts_parent_across_threads(self):
        with tracing() as tracer:
            with span("submit") as parent:
                token = current_id()
                assert token == parent.span_id

                def work():
                    with child_of(token):
                        with span("worker.task"):
                            pass

                t = threading.Thread(target=work)
                t.start()
                t.join()
        by_name = {sp.name: sp for sp in tracer.spans()}
        worker = by_name["worker.task"]
        assert worker.parent_id == by_name["submit"].span_id
        assert worker.thread_id != by_name["submit"].thread_id

    def test_child_of_none_is_a_noop(self):
        with tracing() as tracer:
            with child_of(None):
                with span("orphan"):
                    pass
        assert tracer.spans()[0].parent_id is None

    def test_pool_workers_keep_correct_parents(self):
        """Parallel workers' spans parent to the submitting span, get
        unique ids, and the export passes stack-discipline validation
        — the corruption mode would be interleaved per-thread stacks."""
        with tracing() as tracer:
            with span("fanout") as root:
                token = current_id()

                def work(i):
                    with child_of(token):
                        with span("chunk", index=i):
                            with span("chunk.step", index=i):
                                pass

                with ThreadPoolExecutor(max_workers=4) as pool:
                    list(pool.map(work, range(8)))
        spans = tracer.spans()
        chunks = [sp for sp in spans if sp.name == "chunk"]
        steps = [sp for sp in spans if sp.name == "chunk.step"]
        assert len(chunks) == len(steps) == 8
        assert all(c.parent_id == root.span_id for c in chunks)
        chunk_by_index = {c.attrs["index"]: c.span_id for c in chunks}
        for step in steps:
            assert step.parent_id == chunk_by_index[step.attrs["index"]]
        ids = [sp.span_id for sp in spans]
        assert len(ids) == len(set(ids))
        assert validate_chrome_trace(chrome_trace(tracer)) == []


# --------------------------------------------------------------------------
# Export + validation
# --------------------------------------------------------------------------


class TestExport:
    def _small_trace(self):
        tracer = Tracer()
        with tracing(tracer):
            with span("top", label="t"):
                with span("top.child"):
                    pass
        return tracer

    def test_chrome_trace_shape(self):
        doc = chrome_trace(self._small_trace())
        assert validate_chrome_trace(doc) == []
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["top", "top.child"]
        assert xs[1]["args"]["parent_id"] == xs[0]["args"]["span_id"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert metas and metas[0]["args"]["name"] == "main"

    def test_render_formats(self):
        tracer = self._small_trace()
        assert json.loads(render(tracer, "chrome"))["traceEvents"]
        assert json.loads(render(tracer, "json"))["spans"]
        assert "top.child" in render(tracer, "text")
        with pytest.raises(ValueError):
            render(tracer, "xml")

    def test_write_chrome_trace_is_loadable(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(self._small_trace(), path)
        with open(path, "r", encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) == []

    def test_text_summary_indents_children(self):
        text = text_summary(self._small_trace())
        top = next(ln for ln in text.splitlines() if "top " in ln)
        child = next(ln for ln in text.splitlines() if "top.child" in ln)
        assert len(child) - len(child.lstrip()) > \
            len(top) - len(top.lstrip())

    def test_stage_totals_aggregates_by_name(self):
        tracer = Tracer()
        with tracing(tracer):
            for _ in range(3):
                with span("stage.x"):
                    pass
        agg = stage_totals(tracer)
        assert agg["stage.x"]["count"] == 3
        assert agg["stage.x"]["total_ms"] >= 0.0
        assert "mean_ms" in agg["stage.x"]

    def test_validator_rejects_missing_parent(self):
        doc = chrome_trace(self._small_trace())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        xs[1]["args"]["parent_id"] = 9999
        problems = validate_chrome_trace(doc)
        assert any("missing parent" in p for p in problems)

    def test_validator_rejects_interleaved_spans(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 1000, "pid": 1,
             "tid": 0, "args": {"span_id": 1}},
            {"name": "b", "ph": "X", "ts": 500, "dur": 1000, "pid": 1,
             "tid": 0, "args": {"span_id": 2}},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("interleaves" in p for p in problems)

    def test_validator_rejects_duplicate_ids(self):
        doc = chrome_trace(self._small_trace())
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                ev["args"]["span_id"] = 7
        assert any("duplicate" in p for p in validate_chrome_trace(doc))


# --------------------------------------------------------------------------
# Metrics registry
# --------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_snapshot_reads_live_sources(self):
        reg = MetricsRegistry()
        state = {"cache.ir.hits": 0}
        reg.register_source("cache", lambda: state)
        assert reg.snapshot()["cache"]["cache.ir.hits"] == 0
        state["cache.ir.hits"] = 3
        assert reg.snapshot()["cache"]["cache.ir.hits"] == 3

    def test_dead_source_does_not_poison_snapshot(self):
        reg = MetricsRegistry()
        reg.register_source("bad", lambda: 1 / 0)
        reg.register_source("good", lambda: {"k": 1})
        assert reg.snapshot() == {"good": {"k": 1}}

    def test_counters_and_unregister(self):
        reg = MetricsRegistry()
        reg.count("events", 2)
        reg.count("events")
        reg.register_source("s", lambda: {"k": 1})
        reg.unregister_source("s")
        assert reg.snapshot() == {"counters": {"events": 3}}


# --------------------------------------------------------------------------
# Stage-timings schema
# --------------------------------------------------------------------------


class TestStageSchema:
    def test_normalize_fills_missing_stages(self):
        out = normalize_stage_timings({"lint_ms": 1.5, "total_ms": 2.0})
        assert set(out) == set(TIMING_KEYS)
        assert out["lint_ms"] == 1.5
        assert out["frontend_ms"] == 0.0
        assert out["total_ms"] == 2.0

    def test_stage_sum_excludes_total(self):
        timings = {key: 1.0 for key in TIMING_KEYS}
        assert stage_sum_ms(timings) == pytest.approx(len(STAGE_KEYS))


# --------------------------------------------------------------------------
# Golden traces over the real pipeline
# --------------------------------------------------------------------------

#: ``compile.*`` span sequence of one fresh compile followed by one
#: cache hit of the same kernel — creation order, pinned.  The cache-hit
#: path re-runs only frontend (memoised), lookup and lint.
GOLDEN_COMPILE_SPANS = [
    "compile",
    "compile.frontend",
    "compile.cache_lookup",
    "compile.codegen_provisional",
    "compile.resources",
    "compile.select",
    "compile.codegen_final",
    "compile.store",
    "compile.lint",
    "compile",
    "compile.frontend",
    "compile.cache_lookup",
    "compile.lint",
]


def _traced_compile_pair():
    cache = CompilationCache()
    with tracing() as tracer:
        k1 = compile_kernel(build_convolution(), device=DEVICE,
                            cache=cache)
        k2 = compile_kernel(build_convolution(), device=DEVICE,
                            cache=cache)
    return tracer, k1, k2


class TestGoldenTraces:
    def test_compile_span_sequence_is_golden(self, repro_seed):
        _warm_optdb()
        tracer, k1, k2 = _traced_compile_pair()
        assert not k1.from_cache and k2.from_cache
        names = [sp.name for sp in tracer.spans()
                 if sp.name.startswith("compile")]
        assert names == GOLDEN_COMPILE_SPANS

    def test_compile_trace_is_stable_across_runs(self, repro_seed):
        _warm_optdb()

        def shape():
            tracer, _, _ = _traced_compile_pair()
            return [(sp.name,
                     sp.parent_id is None,
                     sp.attrs.get("kernel"),
                     sp.attrs.get("from_cache"))
                    for sp in tracer.spans()]

        assert shape() == shape()

    def test_compile_trace_validates(self):
        _warm_optdb()
        tracer, _, _ = _traced_compile_pair()
        assert validate_chrome_trace(chrome_trace(tracer)) == []
        doc = json_trace(tracer)
        assert doc["spans"][0]["name"] == "compile"

    def test_compile_spans_nest_under_compile_root(self):
        _warm_optdb()
        tracer, _, _ = _traced_compile_pair()
        spans = tracer.spans()
        roots = [sp for sp in spans if sp.name == "compile"]
        assert len(roots) == 2
        root_ids = {sp.span_id for sp in roots}
        for sp in spans:
            if sp.name.startswith("compile."):
                assert sp.parent_id in root_ids


class TestParallelWorkloadTraces:
    def test_parallel_exploration_spans_stitch(self):
        """Exploration chunks fan out over a thread pool; each chunk
        span must parent back to the submitting ``explore`` span."""
        from repro.hwmodel import get_device
        from repro.ir.analysis import InstructionMix
        from repro.mapping.explore import explore_configurations

        mix = InstructionMix(alu=20, sfu=2, global_reads=9,
                             mask_reads=9)
        with tracing() as tracer:
            serial = explore_configurations(
                get_device(DEVICE), mix, 512, 512, (3, 3))
            parallel = explore_configurations(
                get_device(DEVICE), mix, 512, 512, (3, 3), workers=4)
        assert parallel == serial
        spans = tracer.spans()
        explores = [sp for sp in spans if sp.name == "explore"]
        assert len(explores) == 2
        chunks = [sp for sp in spans if sp.name == "explore.chunk"]
        assert len(chunks) == 4
        assert {c.parent_id for c in chunks} == {explores[1].span_id}
        assert validate_chrome_trace(chrome_trace(tracer)) == []

    def test_parallel_graph_trace_validates(self, repro_seed):
        """One execute_graph with a compile thread pool exports a valid
        Chrome trace whose spans cover compile, cache and execution
        stages."""
        from repro.obs import get_registry, set_registry

        from .test_graph_execution import W, _graph_run, random_image

        _warm_optdb()
        previous = get_registry()
        set_registry(MetricsRegistry())   # isolate this test's snapshot
        try:
            with tracing() as tracer:
                _, report = _graph_run(random_image(W, 96),
                                       cache=CompilationCache(),
                                       workers=4)
            doc = chrome_trace(tracer)
            assert validate_chrome_trace(doc) == []
            names = {e["name"] for e in doc["traceEvents"]
                     if e["ph"] == "X"}
            for expected in ("graph.run", "graph.compile",
                             "graph.node_compile", "graph.schedule",
                             "graph.node", "compile",
                             "compile.cache_lookup", "exec.launch",
                             "sim.evaluate"):
                assert expected in names, expected
            # worker threads appeared and were remapped to stable tids
            tids = {e["tid"] for e in doc["traceEvents"]
                    if e["ph"] == "X"}
            assert 0 in tids and len(tids) > 1
            # the registry snapshot rode along with the export
            metrics = doc["otherData"]["metrics"]
            assert metrics["pool"]["pool.peak_bytes"] \
                == report.pool.peak_bytes > 0
            assert metrics["cache"]["cache.ir.misses"] > 0
            # graph.node spans parent under graph.schedule
            by_id = {sp.span_id: sp for sp in tracer.spans()}
            schedule = next(sp for sp in tracer.spans()
                            if sp.name == "graph.schedule")
            for sp in tracer.spans():
                if sp.name == "graph.node":
                    assert by_id[sp.parent_id] is schedule
            assert report.launches == 3
        finally:
            set_registry(previous)


class TestEnvToggle:
    def test_repro_trace_env_writes_chrome_trace(self, tmp_path):
        """REPRO_TRACE=1 + REPRO_TRACE_OUT dump a valid Chrome trace at
        interpreter exit, with no code changes in the workload."""
        import os
        import subprocess
        import sys

        out = tmp_path / "env-trace.json"
        repo = os.path.dirname(os.path.dirname(os.path.abspath(
            __file__)))
        env = dict(os.environ,
                   REPRO_TRACE="1",
                   REPRO_TRACE_OUT=str(out),
                   PYTHONPATH=os.path.join(repo, "src"))
        script = ("from repro import compile_kernel\n"
                  "from repro.filters.gaussian import make_gaussian\n"
                  "compile_kernel(make_gaussian(32, 32, size=3)[0])\n")
        subprocess.run([sys.executable, "-c", script], env=env,
                       cwd=repo, check=True, timeout=120)
        with open(out, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert "compile" in names and "compile.codegen_final" in names
