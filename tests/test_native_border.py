"""The CPU lowering's border frame and slab zeroing, differentially.

A stencil's C lowering runs its interior as one unguarded loop nest and
every pixel outside it through one out-of-line border function with
two-sided index adjustments.  These tests drive that split through
every boundary mode, window sizes from 1 to 13, degenerate layouts
(the window wider than half the image) and offset or partial iteration
spaces, each byte-identical to the simulator.  The slab tests pin when
``emit_graph_source`` may skip zeroing a node's output: only when its
iteration space writes every pixel.
"""

import numpy as np
import pytest

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    Image,
    IterationSpace,
    Kernel,
    Mask,
    PipelineGraph,
)
from repro.filters.point_ops import Scale
from repro.graph import compile_graph
from repro.runtime.native_graph import emit_graph_source, plan_native_graph

from .helpers import MaskConvolution, assert_native_matches_sim, random_image

requires_cc = pytest.mark.requires_cc

#: modes with index adjustments, each one node of the border graph
MODES = (Boundary.CLAMP, Boundary.REPEAT, Boundary.MIRROR,
         Boundary.CONSTANT)

#: (image width, image height, iteration space (w, h, x, y) or None)
LAYOUTS = {
    "regular": (41, 23, None),
    # every window here but 1 makes the 5-pixel axis degenerate
    "degenerate": (5, 40, None),
    "offset": (41, 23, (30, 17, 3, 4)),
    "partial": (41, 23, (29, 23, 0, 0)),
}


class ConvPlusCentre(Kernel):
    """Mask convolution of one accessor plus the centre pixel of a
    second one — under undefined boundary handling the centre is the
    only read the native gate admits."""

    def __init__(self, iteration_space, inp, centre, mask, r):
        super().__init__(iteration_space)
        self.inp = inp
        self.centre = centre
        self.cmask = mask
        self.r = int(r)
        self.add_accessor(inp)
        self.add_accessor(centre)

    def kernel(self):
        s = 0.0
        for dy in range(-self.r, self.r + 1):
            for dx in range(-self.r, self.r + 1):
                s += self.cmask(dx, dy) * self.inp(dx, dy)
        self.output(s + self.centre(0, 0))


def _mask(window, seed):
    rng = np.random.default_rng(seed)
    return Mask(window, window).set(
        rng.uniform(-1.0, 1.0, (window, window)).astype(np.float32))


def _space(img, spec):
    if spec is None:
        return IterationSpace(img)
    w, h, x, y = spec
    return IterationSpace(img, w, h, x, y)


@requires_cc
@pytest.mark.parametrize("window", [1, 3, 5, 13])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_border_frame_matches_simulator(native_env, layout, window):
    width, height, spec = LAYOUTS[layout]
    frame = random_image(width, height, seed=window)
    centre = random_image(width, height, seed=100 + window)

    def build():
        src = Image(width, height, float, name="src").set_data(frame)
        aux = Image(width, height, float, name="aux").set_data(centre)
        g = PipelineGraph(f"border-{layout}-{window}")
        outs = []
        for mode in MODES:
            out = Image(width, height, float, name=f"out_{mode.value}")
            acc = Accessor(BoundaryCondition(src, window, window, mode,
                                             constant=0.25))
            g.add_kernel(MaskConvolution(_space(out, spec), acc,
                                         _mask(window, 7), window // 2,
                                         window // 2),
                         name=f"conv_{mode.value}")
            outs.append(out)
        out = Image(width, height, float, name="out_undefined")
        g.add_kernel(ConvPlusCentre(
            _space(out, spec),
            Accessor(BoundaryCondition(src, window, window,
                                       Boundary.MIRROR)),
            Accessor(aux),                     # undefined, 1x1
            _mask(window, 9), window // 2), name="conv_undefined")
        outs.append(out)
        for o in outs:
            g.mark_output(o)
        return g, outs

    report = assert_native_matches_sim(build, workers=1)
    # every node really ran compiled: no sim-vs-sim comparison
    assert report.native_nodes == report.launches == len(MODES) + 1


def _chain(frame, last_space=None):
    """scale -> 3x3 conv -> 3x3 conv -> scale over 4 images sharing the
    slab: ``t3`` (made by the third node) reuses ``t1``'s bytes."""
    w, h = frame.shape[1], frame.shape[0]
    src = Image(w, h, float, name="src").set_data(frame)
    t1, t2, t3, out = (Image(w, h, float, name=n)
                       for n in ("t1", "t2", "t3", "out"))
    g = PipelineGraph("slab-chain")
    g.add_kernel(Scale(IterationSpace(t1), Accessor(src), 3.0),
                 name="scale")

    def conv(out_img, in_img, space):
        acc = Accessor(BoundaryCondition(in_img, 3, 3, Boundary.CLAMP))
        return MaskConvolution(space, acc, _mask(3, 1), 1, 1)

    g.add_kernel(conv(t2, t1, IterationSpace(t2)), name="conv_a")
    g.add_kernel(conv(t3, t2, last_space(t3) if last_space
                      else IterationSpace(t3)), name="conv_b")
    g.add_kernel(Scale(IterationSpace(out), Accessor(t3), 0.5),
                 name="unscale")
    g.mark_output(out)
    return g, out


def _source(g):
    compile_graph(g, cache=False, workers=1)
    plan = plan_native_graph(g)
    assert plan.native_count == 4
    return plan, emit_graph_source(plan)


def test_full_cover_nodes_emit_no_memset():
    plan, source = _source(_chain(random_image(32, 24))[0])
    assert plan.slab_reuses >= 1
    assert "memset" not in source


def test_partial_producer_keeps_memset():
    def partial(img):
        return IterationSpace(img, 20, 14, 5, 6)

    plan, source = _source(_chain(random_image(32, 24), partial)[0])
    assert plan.slab_reuses >= 1
    assert source.count("memset(") == 1


@requires_cc
def test_partial_producer_over_reused_slab_matches_simulator(native_env):
    # t3 inherits t1's bytes: without its memset, the pixels conv_b
    # leaves unwritten would carry t1's values instead of zeros
    frame = random_image(32, 24, seed=3) + 1.0

    def build():
        return _chain(frame, lambda img: IterationSpace(img, 20, 14, 5, 6))

    report = assert_native_matches_sim(build, workers=1, fuse=False)
    assert report.native_nodes == report.launches == 4
