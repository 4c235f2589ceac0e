"""The benchmark's NumPy references agree with the simulator.

The references referee the program, so they are checked here once
against the simulator (the program's own oracle) on 16x16 and 64x64
inputs: every serve pipeline, each hand-written operator on its own,
and the graph_paper bilateral.  The 3x3 median's sorting network is
also held to ``np.median``, exactly.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_reference.py
"""

import numpy as np
import pytest

from repro.dsl import Accessor, Image, IterationSpace
from repro.filters.sobel import GradientMagnitude
from repro.graph import PipelineGraph
from repro.graph.scheduler import execute_graph
from repro.serve.planner import plan_request

from . import reference, workloads

SIDES = (16, 64)


def _pixels(side: int, salt: int = 0) -> np.ndarray:
    return workloads.frame(20120521, 9, salt, side)


def _simulate(graph, output) -> np.ndarray:
    execute_graph(graph, engine="sim", workers=1)
    return output.get_data()


def _plan(work, pixels):
    plan = plan_request(dict(work, engine="sim"), pixels)
    return _simulate(plan.graph, plan.output)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("kind", sorted(workloads.SERVE_KINDS))
def test_serve_pipeline(kind, side):
    pixels = _pixels(side)
    got = _plan(workloads.SERVE_KINDS[kind], pixels)
    expected = reference.SERVE_REFERENCES[kind](pixels)
    assert reference.max_error(got, expected) <= reference.TOLERANCE


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("op, ref", [
    ({"op": "median", "boundary": "clamp"},
     lambda d: reference.median3x3(d, "clamp")),
    ({"op": "median", "boundary": "mirror"},
     lambda d: reference.median3x3(d, "mirror")),
    ({"op": "scale", "factor": 2.0}, lambda d: reference.scale(d, 2.0)),
    ({"op": "gamma", "gamma": 0.8}, lambda d: reference.gamma(d, 0.8)),
    ({"op": "gamma", "gamma": 2.0}, lambda d: reference.gamma(d, 2.0)),
], ids=["median-clamp", "median-mirror", "scale", "gamma-0.8",
        "gamma-2.0"])
def test_single_operator(op, ref, side):
    pixels = _pixels(side)
    got = _plan({"chain": [op]}, pixels)
    assert reference.max_error(got, ref(pixels)) <= reference.TOLERANCE


@pytest.mark.parametrize("side", SIDES)
def test_magnitude(side):
    gx, gy = _pixels(side, 1) - 0.5, _pixels(side, 2) - 0.5
    images = []
    for data in (gx, gy):
        img = Image(side, side, float)
        img.set_data(data)
        images.append(img)
    out = Image(side, side, float)
    graph = PipelineGraph("magnitude")
    graph.add_kernel(GradientMagnitude(IterationSpace(out),
                                       Accessor(images[0]),
                                       Accessor(images[1])))
    graph.mark_output(out)
    got = _simulate(graph, out)
    assert reference.max_error(got, reference.magnitude(gx, gy)) \
        <= reference.TOLERANCE


@pytest.mark.parametrize("side", SIDES)
def test_bilateral13(side):
    pixels = _pixels(side)
    graph, out = workloads.bilateral_graph(pixels)
    got = _simulate(graph, out)
    assert reference.max_error(got, reference.bilateral13(pixels)) \
        <= reference.TOLERANCE


@pytest.mark.parametrize("boundary", ["clamp", "mirror"])
def test_median_network_selects_exactly_np_median(boundary):
    rng = np.random.default_rng(3)
    for data in (_pixels(64),
                 rng.integers(0, 3, (31, 17)).astype(np.float32)):  # ties
        h, w = data.shape
        padded = np.pad(data, 1, mode=reference._PAD[boundary])
        taps = np.stack([padded[dy:dy + h, dx:dx + w]
                         for dy in range(3) for dx in range(3)])
        got = reference.median3x3(data, boundary)
        assert got.dtype == np.float32
        assert np.array_equal(got, np.median(taps, axis=0))


def test_a_wrong_pixel_fails_the_check():
    pixels = _pixels(16)
    expected = reference.edge(pixels)
    wrong = expected.copy()
    wrong[5, 7] += 10 * reference.TOLERANCE
    assert reference.matches(expected, expected)
    assert not reference.matches(wrong, expected)
    assert not reference.matches(expected[:8], expected)
