"""Pipeline-graph scheduling vs naive per-kernel chaining.

The edge-detection chain (median -> sobel-x || sobel-y -> magnitude ->
scale -> gamma -> threshold) runs two ways over the same frame:

* **naive** — serial compiles, unfused: one launch per DSL kernel.  Its
  footprint is the report's ``naive_bytes``: every intermediate image
  its own allocation held to the end (exactly what the hand-written
  example chains did);
* **scheduled** — point-op fusion + the prepare-time memory plan,
  compiles on a thread pool through one shared compilation cache.

Headline numbers (asserted under pytest, printed when run directly):

* fewer kernel launches (the point-op tail collapses into one kernel);
* lower peak intermediate bytes (fusion removes buffers outright, the
  memory plan lets dead intermediates' bytes be reused);
* byte-identical output — the optimisations must be invisible.

Run directly::

    PYTHONPATH=src python benchmarks/bench_pipeline_graph.py [--quick]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    CompilationCache,
    Image,
    IterationSpace,
    Mask,
    PipelineGraph,
)
from repro.data import impulse_noise_image
from repro.filters.median import Median3x3
from repro.filters.point_ops import GammaCorrection, Scale, Threshold
from repro.filters.sobel import (SOBEL_X, SOBEL_Y, GradientMagnitude,
                                 SobelX, SobelY)
from repro.graph import execute_graph

DEVICE = "Tesla C2050"


def build_graph(frame, size):
    """The 7-kernel edge chain over fresh images."""
    src = Image(size, size, float, name="src").set_data(frame)
    den = Image(size, size, float, name="denoised")
    gx = Image(size, size, float, name="grad_x")
    gy = Image(size, size, float, name="grad_y")
    mag = Image(size, size, float, name="magnitude")
    scaled = Image(size, size, float, name="scaled")
    gamma = Image(size, size, float, name="gamma")
    out = Image(size, size, float, name="edges")

    g = PipelineGraph("edge-detection")
    g.add_kernel(Median3x3(IterationSpace(den), Accessor(
        BoundaryCondition(src, 3, 3, Boundary.MIRROR))), name="median",
        device=DEVICE)
    bc = BoundaryCondition(den, 3, 3, Boundary.CLAMP)
    g.add_kernel(SobelX(IterationSpace(gx), Accessor(bc),
                        Mask(3, 3).set(SOBEL_X)), name="sobel_x",
                 device=DEVICE)
    g.add_kernel(SobelY(IterationSpace(gy), Accessor(bc),
                        Mask(3, 3).set(SOBEL_Y)), name="sobel_y",
                 device=DEVICE)
    g.add_kernel(GradientMagnitude(IterationSpace(mag), Accessor(gx),
                                   Accessor(gy)), name="magnitude",
                 device=DEVICE)
    g.add_kernel(Scale(IterationSpace(scaled), Accessor(mag), 0.25),
                 name="scale", device=DEVICE)
    g.add_kernel(GammaCorrection(IterationSpace(gamma), Accessor(scaled),
                                 0.8), name="gamma", device=DEVICE)
    g.add_kernel(Threshold(IterationSpace(out), Accessor(gamma), 0.2),
                 name="threshold", device=DEVICE)
    g.mark_output(out)
    return g, out


def run_naive(frame, size):
    g, out = build_graph(frame, size)
    t0 = time.perf_counter()
    report = execute_graph(g, cache=None, workers=1, fuse=False)
    wall = (time.perf_counter() - t0) * 1e3
    return out.get_data().copy(), report, wall


def run_scheduled(frame, size, workers=4):
    g, out = build_graph(frame, size)
    t0 = time.perf_counter()
    report = execute_graph(g, cache=CompilationCache(), workers=workers,
                           fuse=True)
    wall = (time.perf_counter() - t0) * 1e3
    return out.get_data().copy(), report, wall


def measure(size=512, workers=4):
    frame = impulse_noise_image(size, size, seed=7, density=0.02)
    naive_out, naive, naive_wall = run_naive(frame, size)
    sched_out, sched, sched_wall = run_scheduled(frame, size, workers)
    assert np.array_equal(naive_out, sched_out), \
        "scheduled pipeline diverged from the naive chain"
    return naive, naive_wall, sched, sched_wall


def report(quick: bool = False, workers: int = 4):
    size = 256 if quick else 512
    naive, naive_wall, sched, sched_wall = measure(size, workers)
    naive_peak = naive.pool.naive_bytes
    sched_peak = sched.pool.peak_bytes
    print(f"edge pipeline, {size}x{size} frame, {workers} workers:")
    print(f"  launches:            {naive.launches} -> {sched.launches} "
          f"({sched.fusion.launches_saved} saved by fusion)")
    print(f"  peak intermediates:  {naive_peak / 1024:.1f} KiB -> "
          f"{sched_peak / 1024:.1f} KiB "
          f"({(naive_peak - sched_peak) / 1024:.1f} KiB saved: "
          f"{sched.fusion.intermediate_bytes_eliminated / 1024:.1f} KiB "
          f"fused away, {sched.pool.reuses} intermediates in reused "
          f"bytes)")
    print(f"  modelled device time {naive.total_device_ms:.4f} ms -> "
          f"{sched.total_device_ms:.4f} ms")
    print(f"  wall (compile+run):  {naive_wall:.1f} ms -> "
          f"{sched_wall:.1f} ms")
    print("  output: byte-identical")
    return naive, sched


def test_scheduled_pipeline_beats_naive():
    naive, _, sched, _ = measure(size=256)
    assert sched.launches < naive.launches
    assert sched.fusion.launches_saved >= 2
    assert sched.pool.peak_bytes < naive.pool.naive_bytes
    # fusion eliminated at least the three point-op intermediates' worth
    assert sched.fusion.intermediate_bytes_eliminated > 0


def test_naive_pipeline_reports_full_footprint():
    naive, _, _, _ = measure(size=256)
    assert naive.launches == 7
    # six intermediates, each a whole 256x256 float32 frame
    assert naive.pool.naive_bytes == 6 * 256 * 256 * 4
    assert naive.fusion.pairs_fused == 0


def main():
    try:
        from .common import run_traced, write_bench_json
    except ImportError:        # run directly: benchmarks/ is sys.path[0]
        from common import run_traced, write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small frame (CI smoke)")
    parser.add_argument("--workers", type=int, default=4,
                        help="compile thread count for the scheduled "
                             "run")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_pipeline_graph.json with "
                             "per-stage span breakdowns")
    args = parser.parse_args()
    if not args.json:
        report(quick=args.quick, workers=args.workers)
        return
    (naive, sched), stages = run_traced(
        report, quick=args.quick, workers=args.workers)
    path = write_bench_json(
        "pipeline_graph",
        {"naive_launches": naive.launches,
         "scheduled_launches": sched.launches,
         "launches_saved": sched.fusion.launches_saved,
         "naive_peak_bytes": naive.pool.naive_bytes,
         "scheduled_peak_bytes": sched.pool.peak_bytes,
         "naive_device_ms": naive.total_device_ms,
         "scheduled_device_ms": sched.total_device_ms},
        stages)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
