"""Differential tests for the graph scheduler.

The bar is *byte-identical*: a pipeline graph run — any combination of
fusion, concurrent compilation and arena reuse — must produce exactly
the pixels of the manual ``compile_kernel(...).execute()`` chain,
because every transformation (fusion's intermediate cast, the memory
plan's pre-padded views of one arena) is designed to be
value-preserving.
"""

import numpy as np
import pytest

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    CompilationCache,
    Image,
    IterationSpace,
    Mask,
    PipelineGraph,
    compile_kernel,
)
from repro.filters.point_ops import AddConstant, GammaCorrection, Scale
from repro.filters.sobel import (SOBEL_X, SOBEL_Y, GradientMagnitude,
                                 SobelX, SobelY)
from repro.graph import BufferPool, execute_graph

from .helpers import random_image

# rows are already aligned (stride 128 floats), so peak-vs-naive
# comparisons count whole frames
W, H = 128, 96


def _edge_kernels(frame):
    """median-free edge chain: sobel-x/y -> magnitude -> scale -> gamma."""
    src = Image(W, H, float, name="src")
    src.set_data(frame)
    gx = Image(W, H, float, name="gx")
    gy = Image(W, H, float, name="gy")
    mag = Image(W, H, float, name="mag")
    scaled = Image(W, H, float, name="scaled")
    out = Image(W, H, float, name="out")
    bc = BoundaryCondition(src, 3, 3, Boundary.CLAMP)
    kernels = [
        SobelX(IterationSpace(gx), Accessor(bc), Mask(3, 3).set(SOBEL_X)),
        SobelY(IterationSpace(gy), Accessor(bc), Mask(3, 3).set(SOBEL_Y)),
        GradientMagnitude(IterationSpace(mag), Accessor(gx), Accessor(gy)),
        Scale(IterationSpace(scaled), Accessor(mag), 0.25),
        GammaCorrection(IterationSpace(out), Accessor(scaled), 0.8),
    ]
    return kernels, out


def _manual_reference(frame):
    kernels, out = _edge_kernels(frame)
    for k in kernels:
        compile_kernel(k, device="Tesla C2050").execute()
    return out.get_data().copy()


def _graph_run(frame, **kwargs):
    kernels, out = _edge_kernels(frame)
    g = PipelineGraph("edge")
    for k in kernels:
        g.add_kernel(k, device="Tesla C2050")
    g.mark_output(out)
    report = execute_graph(g, **kwargs)
    return out.get_data().copy(), report


@pytest.fixture(scope="module")
def frame():
    return random_image(W, H)


@pytest.fixture(scope="module")
def reference(frame):
    return _manual_reference(frame)


@pytest.fixture(scope="module")
def shared_arena():
    """One arena every parametrisation runs in, dirty from the last."""
    return BufferPool()


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("fuse", [False, True])
@pytest.mark.parametrize("pool", ["fresh", "shared"])
def test_graph_matches_manual_chain(frame, reference, shared_arena,
                                    workers, fuse, pool):
    arena = shared_arena if pool == "shared" else None
    result, report = _graph_run(frame, workers=workers, fuse=fuse,
                                pool=arena)
    assert np.array_equal(result, reference)
    assert report.launches == (3 if fuse else 5)


def test_threaded_execution_deterministic(frame):
    serial, _ = _graph_run(frame, workers=1)
    for _ in range(5):
        threaded, _ = _graph_run(frame, workers=4)
        assert np.array_equal(serial, threaded)


def test_pool_reuses_buffers_and_reduces_peak(frame):
    # unfused: both sobel outputs are dead once the magnitude has read
    # them, so the scale's output reuses their bytes
    _, report = _graph_run(frame, workers=1, fuse=False)
    stats = report.pool
    assert stats.reuses > 0
    assert 0 < stats.peak_bytes < stats.naive_bytes
    assert stats.saved_bytes == stats.naive_bytes - stats.peak_bytes
    assert "KiB saved" in stats.summary()


def test_shared_cache_across_nodes(frame):
    # two Scale launches with identical IR + geometry: the second compile
    # must be served from the shared cache (serial compile order)
    src = Image(W, H, float).set_data(frame)
    a = Image(W, H, float)
    b = Image(W, H, float)
    g = PipelineGraph()
    g.add_kernel(Scale(IterationSpace(a), Accessor(src), 2.0), name="s1")
    g.add_kernel(Scale(IterationSpace(b), Accessor(a), 2.0), name="s2")
    cache = CompilationCache()
    report = execute_graph(g, cache=cache, workers=1, fuse=False)
    assert not report.node("s1").from_cache
    assert report.node("s2").from_cache
    assert report.cache_hits == 1
    assert cache.stats.hits == 1
    expected = (frame * np.float32(2.0)) * np.float32(2.0)
    assert np.array_equal(b.get_data(), expected)


def test_graph_report_contents(frame):
    _, report = _graph_run(frame, workers=1, fuse=True,
                           cache=CompilationCache())
    assert report.launches == len(report.nodes)
    assert report.total_device_ms == pytest.approx(
        sum(n.time_ms for n in report.nodes))
    text = report.summary()
    assert "launches" in text and "fusion:" in text and "pool:" in text
    assert "cache:" in text
    with pytest.raises(KeyError):
        report.node("nonexistent")


def test_rerun_same_graph_hits_cache(frame):
    cache = CompilationCache()
    _, first = _graph_run(frame, workers=1, cache=cache)
    assert first.cache_hits == 0
    result, second = _graph_run(frame, workers=1, cache=cache)
    assert second.cache_hits == second.launches
    assert np.array_equal(result, _graph_run(frame, workers=1)[0])


def test_single_node_graph_runs_serially(frame, monkeypatch):
    """compile_graph and the schedule short-circuit identically: no
    executor may be spun up for a single-node graph, whatever the
    worker count (the execute side used to check only workers == 1)."""
    import repro.graph.scheduler as sched

    def forbidden(*args, **kwargs):
        raise AssertionError(
            "ThreadPoolExecutor constructed for a single-node graph")

    monkeypatch.setattr(sched, "ThreadPoolExecutor", forbidden)
    src = Image(W, H, float).set_data(frame)
    out = Image(W, H, float)
    g = PipelineGraph("single")
    g.add_kernel(Scale(IterationSpace(out), Accessor(src), 2.0),
                 name="only")
    g.mark_output(out)
    report = execute_graph(g, workers=8)
    assert report.launches == 1
    assert np.array_equal(out.get_data(), frame * np.float32(2.0))
