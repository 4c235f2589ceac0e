"""Prepared graphs and the serve warm path.

``execute_graph`` is ``prepare_graph(...).run(...)``; ``repro serve``
keeps idle prepared graphs in a bounded LRU keyed by request structure
and re-runs them with new frames.  The contract under test:

* a warm request re-runs kernels only — no planning span of the
  fuse/compile/prove stages appears in its trace;
* every warm response is byte-identical to a fresh ``execute_graph`` of
  the same request, including hybrid graphs whose simulator-fallback
  node interleaves with native segments;
* a re-run never sees pixels a previous run wrote (partial iteration
  spaces leave the rest of their output at zero, as a fresh image has);
* native segments read and write external images in their own
  storage: a simulator node that re-pads an image between two segments,
  and an input left released, both read correctly, and the executor
  allocates no frame-sized staging array;
* concurrent same-structure requests never share an instance;
* the LRU is bounded and counts its hits, misses and evictions;
* the CPU lowering's OpenMP gate keeps native output bit-exact on both
  sides of :data:`~repro.backends.cpu.PARALLEL_MIN_PIXELS`.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    Image,
    IterationSpace,
    Mask,
    PipelineGraph,
)
from repro.backends.cpu import PARALLEL_MIN_PIXELS
from repro.filters.point_ops import GammaCorrection, Scale
from repro.filters.sobel import SOBEL_X, SobelX
from repro.graph import compile_graph, execute_graph
from repro.graph.pool import BufferPool
from repro.graph.scheduler import prepare_graph
from repro.obs.trace import Tracer, tracing
from repro.runtime.native_graph import emit_graph_source, plan_native_graph
from repro.serve import ServeConfig, ServeService
from repro.serve import service as service_mod
from repro.serve.planner import PIPELINES, plan_request
from repro.serve.protocol import decode_image, encode_image

from .helpers import assert_native_matches_sim, random_image

requires_cc = pytest.mark.requires_cc

CHAIN = [{"op": "gaussian", "size": 3}, {"op": "scale", "factor": 2.0}]

#: every named pipeline plus an inline chain
KINDS = [{"pipeline": name} for name in sorted(PIPELINES)] \
    + [{"chain": CHAIN}]


@pytest.fixture
def service():
    svc = ServeService(ServeConfig(workers=2, engine="auto")).start()
    try:
        yield svc
    finally:
        svc.drain(timeout=10.0)


def _body(kind, side, seed):
    body = dict(kind)
    body["image"] = encode_image(random_image(side, side, seed=seed))
    return body


def _fresh(body):
    """What a request computes without any reuse."""
    plan = plan_request(body, decode_image(body["image"]))
    report = execute_graph(plan.graph, engine="auto", workers=1,
                           pool=BufferPool(), register_metrics=False,
                           lint=False)
    return plan.output.get_data(), report


def _served(svc, body):
    status, doc = svc.handle(body)
    assert status == 200, doc
    return decode_image(doc["image"]), doc["meta"]


# --------------------------------------------------------------------------
# The serve warm path
# --------------------------------------------------------------------------


@requires_cc
def test_warm_request_skips_every_preparation_span(native_env, service):
    kind = {"pipeline": "denoise"}
    _, meta = _served(service, _body(kind, 32, seed=1))
    assert meta["prepared"] is False
    tracer = Tracer("warm")
    with tracing(tracer):
        _, meta = _served(service, _body(kind, 32, seed=2))
    assert meta["prepared"] is True
    assert meta["engine"] == "native"
    names = {s.name for s in tracer.spans()}
    assert "native.exec" in names and "serve.exec" in names
    forbidden = {n for n in names
                 if n in ("native.compile", "graph.fuse", "graph.compile")
                 or n.startswith("absint.")}
    assert forbidden == set()


@requires_cc
@pytest.mark.parametrize("side", [32, 64, 128])
def test_warm_responses_match_fresh_execution(native_env, service, side):
    for i, kind in enumerate(KINDS):
        for seed in range(3):
            body = _body(kind, side, seed=100 * i + seed)
            got, meta = _served(service, body)
            want, report = _fresh(body)
            assert meta["prepared"] is (seed > 0)
            assert got.tobytes() == want.tobytes(), (kind, side, seed)
            if kind == {"pipeline": "edge"}:
                # the fused pow(x, 0.8) tail stays on the simulator
                # between native segments
                engines = {n.engine for n in report.nodes}
                assert engines == {"native", "sim"}


def test_concurrent_same_structure_requests_get_their_own_answers():
    svc = ServeService(ServeConfig(workers=2, engine="sim")).start()
    try:
        kind = {"pipeline": "edge"}
        _served(svc, _body(kind, 40, seed=0))        # prepare one
        bodies = [_body(kind, 40, seed=s) for s in range(1, 9)]
        results = [None] * len(bodies)
        barrier = threading.Barrier(len(bodies))

        def go(i):
            barrier.wait()
            results[i] = _served(svc, bodies[i])[0]

        threads = [threading.Thread(target=go, args=(i,))
                   for i in range(len(bodies))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for body, got in zip(bodies, results):
            assert got.tobytes() == _fresh(body)[0].tobytes()
        metrics = svc.metrics()
        assert metrics["serve.executions"] == 1 + len(bodies)
        assert (metrics["serve.prepared_hits"]
                + metrics["serve.prepared_misses"]
                == metrics["serve.executions"])
    finally:
        svc.drain(timeout=10.0)


def test_lru_bound_and_counters(monkeypatch):
    monkeypatch.setattr(service_mod, "PREPARED_CACHE_SIZE", 2)
    svc = ServeService(ServeConfig(workers=1, engine="sim")).start()
    try:
        assert svc._prepared.capacity == 2
        chain = [{"chain": [{"op": "scale", "factor": f}]}
                 for f in (2.0, 3.0, 4.0)]
        for seed, kind in enumerate(chain):
            _served(svc, _body(kind, 16, seed=seed))
        metrics = svc.metrics()
        assert metrics["serve.prepared_misses"] == 3
        assert metrics["serve.prepared_evictions"] == 1
        assert len(svc._prepared) == 2
        # the two most recent structures stay warm; the first was evicted
        _, meta = _served(svc, _body(chain[2], 16, seed=10))
        assert meta["prepared"] is True
        _, meta = _served(svc, _body(chain[0], 16, seed=11))
        assert meta["prepared"] is False
        metrics = svc.metrics()
        assert metrics["serve.prepared_hits"] == 1
        assert metrics["serve.prepared_misses"] == 4
        assert metrics["serve.prepared_evictions"] == 2
        # a different shape of a cached structure is its own key
        _, meta = _served(svc, _body(chain[2], 24, seed=12))
        assert meta["prepared"] is False
    finally:
        svc.drain(timeout=10.0)


def test_prepared_cache_never_hands_one_instance_to_two_holders():
    cache = service_mod._PreparedCache(4)
    held, lock, errors = set(), threading.Lock(), []

    def worker(k):
        for i in range(300):
            key = f"k{(k + i) % 3}"
            entry = cache.checkout(key) or (object(), object())
            with lock:
                if id(entry) in held:
                    errors.append(key)
                held.add(id(entry))
            with lock:
                held.discard(id(entry))
            cache.checkin(key, entry)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert len(cache) == sum(map(len, cache._idle.values())) <= 4


def test_idle_instances_hold_no_frame_buffers():
    svc = ServeService(ServeConfig(workers=1, engine="sim")).start()
    try:
        _served(svc, _body({"pipeline": "edge"}, 64, seed=0))
        (plan, prepared), = [e for idle in svc._prepared._idle.values()
                             for e in idle]
        images = {id(n.output): n.output for n in prepared.order}
        images.update((id(i), i) for i in prepared.graph.inputs())
        for img in images.values():
            assert not img._data.flags.writeable
            assert img._data.base.nbytes <= 8
        assert all(n.report is None for n in prepared.order)
    finally:
        svc.drain(timeout=10.0)


# --------------------------------------------------------------------------
# PreparedGraph.run on its own
# --------------------------------------------------------------------------


def _partial_graph(frame):
    """Sobel over the inner part of its output only, then a full-image
    scale: the unwritten border of ``mid`` must read as zeros."""
    h, w = frame.shape
    src = Image(w, h, float, name="src").set_data(frame)
    mid, out = Image(w, h, float, name="mid"), Image(w, h, float,
                                                      name="out")
    g = PipelineGraph("partial")
    g.add_kernel(SobelX(IterationSpace(mid, w - 6, h - 4, offset_x=3,
                                       offset_y=2),
                        Accessor(BoundaryCondition(src, 3, 3,
                                                   Boundary.CLAMP)),
                        Mask(3, 3).set(SOBEL_X)), name="sobel")
    g.add_kernel(Scale(IterationSpace(out), Accessor(mid), 2.0),
                 name="scale")
    g.mark_output(out)
    return g, src, mid, out


@pytest.mark.parametrize("engine", [
    "sim", pytest.param("native", marks=requires_cc)])
@pytest.mark.parametrize("release", [False, True])
def test_rerun_with_new_frame_equals_fresh_run(native_env, engine,
                                               release):
    frames = [random_image(20, 14, seed=s) * (s + 1) for s in range(3)]
    g, src, mid, out = _partial_graph(frames[0])
    prepared = prepare_graph(g, engine=engine, workers=1)
    for frame in frames:
        src.set_data(frame)
        report = prepared.run(pool=BufferPool())
        assert report.engine_used == engine
        fresh_g, _, _, fresh_out = _partial_graph(frame)
        execute_graph(fresh_g, engine=engine, workers=1)
        assert out.get_data().tobytes() == fresh_out.get_data().tobytes()
        assert not np.any(out.get_data()[:2])     # unwritten rows
        if release:
            prepared.release()
            assert not np.any(mid.get_data())


def test_rerun_reports_no_compile_time():
    g, _, _, _ = _partial_graph(random_image(20, 14))
    prepared = prepare_graph(g, engine="sim", workers=1)
    first = prepared.run()
    second = prepared.run()
    assert first.compile_wall_ms == prepared.compile_wall_ms > 0
    assert second.compile_wall_ms == 0.0
    assert [n.footprint for n in first.nodes] \
        == [n.footprint for n in second.nodes]


# --------------------------------------------------------------------------
# External images bound in place
# --------------------------------------------------------------------------


def _repad_graph(frame):
    """Sobel (native) -> gamma 0.8 (simulator: inexact ``pow``) ->
    Sobel (native).  The simulator launch pads ``a`` and ``b`` to the
    device's row alignment, so the second segment reads ``b`` at a
    stride the first segment never saw."""
    h, w = frame.shape
    src = Image(w, h, float, name="src").set_data(frame)
    a, b, out = (Image(w, h, float, name=n) for n in ("a", "b", "out"))
    g = PipelineGraph("repad")
    g.add_kernel(SobelX(IterationSpace(a),
                        Accessor(BoundaryCondition(src, 3, 3,
                                                   Boundary.CLAMP)),
                        Mask(3, 3).set(SOBEL_X)), name="sobel_a")
    g.add_kernel(GammaCorrection(IterationSpace(b), Accessor(a), 0.8),
                 name="gamma")
    g.add_kernel(SobelX(IterationSpace(out),
                        Accessor(BoundaryCondition(b, 3, 3,
                                                   Boundary.CLAMP)),
                        Mask(3, 3).set(SOBEL_X)), name="sobel_b")
    g.mark_output(out)
    return g, src, b, out


def _sim_output(frame):
    g, _, _, out = _repad_graph(frame)
    execute_graph(g, engine="sim", workers=1)
    return out.get_data()


@requires_cc
@pytest.mark.parametrize("release", [False, True])
def test_simulator_repad_between_segments(native_env, release):
    frames = [random_image(100, 37, seed=s) for s in range(3)]
    g, src, b, out = _repad_graph(frames[0])
    prepared = prepare_graph(g, engine="native", workers=1)
    assert [kind for kind, _ in prepared.native_module.plan.schedule] \
        == ["native", "sim", "native"]
    for frame in frames:
        src.set_data(frame)
        report = prepared.run()
        assert [n.engine for n in report.nodes] == ["native", "sim",
                                                    "native"]
        assert b.stride == 128 != b.width
        assert out.get_data().tobytes() == _sim_output(frame).tobytes()
        if release:
            prepared.release()


@requires_cc
def test_released_input_is_read_in_place(native_env):
    g, _, _, out = _repad_graph(random_image(100, 37, seed=7))
    prepared = prepare_graph(g, engine="native", workers=1)
    prepared.run()
    prepared.release()
    prepared.run()          # no set_data: the input reads as zeros
    zeros = np.zeros((37, 100), dtype=np.float32)
    assert out.get_data().tobytes() == _sim_output(zeros).tobytes()


@requires_cc
def test_executor_stages_nothing(native_env):
    side = 256
    frame = random_image(side, side, seed=1)
    plan = plan_request({"pipeline": "enhance"}, frame)
    prepared = prepare_graph(plan.graph, engine="native", workers=1)
    module = prepared.native_module
    assert module.plan.slab_bytes == 0
    prepared.run()
    tracemalloc.start()
    try:
        executor = module.executor()
        for k in range(len(module.plan.segments)):
            executor.run_segment(k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < side * side * 4, peak


# --------------------------------------------------------------------------
# The OpenMP size gate
# --------------------------------------------------------------------------


def _sobel_graph(side):
    frame = random_image(side, side, seed=side)
    src = Image(side, side, float, name="src").set_data(frame)
    out = Image(side, side, float, name="out")
    g = PipelineGraph(f"sobel{side}")
    g.add_kernel(SobelX(IterationSpace(out),
                        Accessor(BoundaryCondition(src, 3, 3,
                                                   Boundary.MIRROR)),
                        Mask(3, 3).set(SOBEL_X)), name="sobel")
    g.mark_output(out)
    return g, out


@requires_cc
@pytest.mark.parametrize("side,parallel", [(257, False), (258, True)])
def test_native_matches_sim_on_both_sides_of_the_gate(native_env, side,
                                                      parallel):
    # a 3x3 window leaves a (side - 2)^2 interior; 256^2 is the gate
    assert ((side - 2) ** 2 >= PARALLEL_MIN_PIXELS) is parallel
    g, _ = _sobel_graph(side)
    compile_graph(g, workers=1)
    source = emit_graph_source(plan_native_graph(g))
    assert ("#pragma omp parallel for" in source) is parallel
    report = assert_native_matches_sim(lambda: _sobel_graph(side),
                                       workers=1)
    assert report.engine_used == "native"
