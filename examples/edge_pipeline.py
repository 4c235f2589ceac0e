"""Multi-kernel edge-detection pipeline on a noisy angiography frame.

The clinical pre-processing chain composed from DSL operators:

1. 3x3 median (min/max network) removes impulse noise,
2. Sobel-x and Sobel-y derivative convolutions (the y-derivative uses
   the ``convolve()`` lambda syntax from the paper's Section VIII),
3. gradient magnitude (a two-input point operator).

The chain is expressed twice: once as manual per-kernel
``compile_kernel(...).execute()`` calls, and once declaratively as a
:class:`repro.PipelineGraph`, which compiles every node through one
shared compilation cache and keeps the intermediates in one arena at
offsets planned before the first launch.  The example asserts both
spellings produce *identical* pixels.

Run:  python examples/edge_pipeline.py
"""

import numpy as np

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    CompilationCache,
    Image,
    IterationSpace,
    Kernel,
    Mask,
    PipelineGraph,
    Reduce,
    compile_kernel,
)
from repro.data import impulse_noise_image
from repro.filters.median import Median3x3
from repro.filters.sobel import SOBEL_X, SOBEL_Y, GradientMagnitude, SobelX


class SobelConvolve(Kernel):
    """Sobel via the Section-VIII convolve() syntax."""

    def __init__(self, iteration_space, inp, smask):
        super().__init__(iteration_space)
        self.inp = inp
        self.smask = smask
        self.add_accessor(inp)

    def kernel(self):
        self.output(self.convolve(self.smask, Reduce.SUM,
                                  lambda: self.smask() * self.inp(self.smask)))


def build_chain(frame, size):
    """The four pipeline kernels over freshly allocated images."""
    img0 = Image(size, size, float, name="frame").set_data(frame)
    img1 = Image(size, size, float, name="denoised")
    img_gx = Image(size, size, float, name="grad_x")
    img_gy = Image(size, size, float, name="grad_y")
    img_mag = Image(size, size, float, name="edges")
    median = Median3x3(IterationSpace(img1),
                       Accessor(BoundaryCondition(img0, 3, 3,
                                                  Boundary.MIRROR)))
    sx = SobelX(IterationSpace(img_gx),
                Accessor(BoundaryCondition(img1, 3, 3, Boundary.CLAMP)),
                Mask(3, 3).set(SOBEL_X))
    sy = SobelConvolve(IterationSpace(img_gy),
                       Accessor(BoundaryCondition(img1, 3, 3,
                                                  Boundary.CLAMP)),
                       Mask(3, 3).set(SOBEL_Y))
    mag = GradientMagnitude(IterationSpace(img_mag), Accessor(img_gx),
                            Accessor(img_gy))
    return [median, sx, sy, mag], img_mag


def run_manual(frame, size, device="Tesla C2050"):
    """Baseline: compile + execute each kernel by hand, in order."""
    kernels, img_mag = build_chain(frame, size)
    times = [compile_kernel(k, backend="cuda", device=device)
             .execute().time_ms for k in kernels]
    return img_mag.get_data().copy(), times


def run_graph(frame, size, device="Tesla C2050"):
    """The same chain as a declarative pipeline graph."""
    kernels, img_mag = build_chain(frame, size)
    graph = PipelineGraph("edge-detection")
    for k, name in zip(kernels, ["median", "sobel_x", "sobel_y",
                                 "magnitude"]):
        graph.add_kernel(k, name=name, backend="cuda", device=device)
    graph.mark_output(img_mag)
    report = graph.run(cache=CompilationCache(), workers=2)
    return img_mag.get_data().copy(), report


def main():
    size = 256
    frame = impulse_noise_image(size, size, seed=11, density=0.03)

    edges_manual, times = run_manual(frame, size)
    edges_graph, report = run_graph(frame, size)

    t1, t2, t3, t4 = times
    print(f"pipeline on {size}x{size} frame (simulated Tesla C2050):")
    print(f"  median 3x3      {t1:8.3f} ms")
    print(f"  sobel-x (loops) {t2:8.3f} ms")
    print(f"  sobel-y (convolve syntax) {t3:5.3f} ms")
    print(f"  magnitude       {t4:8.3f} ms")
    print(f"  edge response: mean {edges_manual.mean():.4f}, "
          f"p99 {np.percentile(edges_manual, 99):.4f}")
    print()
    print("as a pipeline graph:")
    print(report.summary())

    # the graph execution is *identical* to the manual chain, bit for bit
    assert np.array_equal(edges_manual, edges_graph), \
        "graph execution diverged from manual chaining"
    print("\ngraph output identical to manual chaining: OK")

    # sanity: convolve() syntax produces the same numbers as the loops
    img1 = Image(size, size, float)
    med_in = Image(size, size, float).set_data(frame)
    compile_kernel(Median3x3(
        IterationSpace(img1),
        Accessor(BoundaryCondition(med_in, 3, 3,
                                   Boundary.MIRROR)))).execute()
    img_gy = Image(size, size, float)
    img_gy2 = Image(size, size, float)
    sy_conv = SobelConvolve(IterationSpace(img_gy),
                            Accessor(BoundaryCondition(img1, 3, 3,
                                                       Boundary.CLAMP)),
                            Mask(3, 3).set(SOBEL_Y))
    sy_loops = SobelX(IterationSpace(img_gy2),
                      Accessor(BoundaryCondition(img1, 3, 3,
                                                 Boundary.CLAMP)),
                      Mask(3, 3).set(SOBEL_Y))
    compile_kernel(sy_conv).execute()
    compile_kernel(sy_loops).execute()
    err = np.abs(img_gy.get_data() - img_gy2.get_data()).max()
    print(f"convolve() vs explicit loops: max abs diff {err:.2e}")
    assert err < 1e-5


if __name__ == "__main__":
    main()
