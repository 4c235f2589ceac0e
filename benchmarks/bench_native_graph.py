"""Native graph tier: cold vs warm compile, warm kernel wall clock.

The fully native edge chain (median -> sobel-x -> sobel-y -> magnitude)
runs over the same frame as:

* **sim** — the Python simulator, the correctness oracle;
* **native cold** — first `compile_native_graph` in an empty workdir and
  artifact store: plans, emits one C translation unit and invokes the C
  compiler;
* **native warm** — the same graph again: the ``.so`` resolves from the
  materialised workdir (and, after deleting it, from the artifact
  store), so no compiler runs at all;
* **native runs** — the median of warm ``PreparedGraph.run`` calls with
  OpenMP limited to 1 and to 2 threads: what a repeated request pays
  for its kernels, without the first call's one-off costs.

Headline numbers (asserted under pytest, printed when run directly):

* warm-start artifact resolution is orders of magnitude cheaper than
  the cold C compile;
* native execution output is byte-identical to the simulator.

Run directly::

    PYTHONPATH=src python benchmarks/bench_native_graph.py [--quick] [--json]
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import os
import shutil
import statistics
import tempfile
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
from repro.filters.sobel import (SOBEL_X, SOBEL_Y, GradientMagnitude,
                                 SobelX, SobelY)
from repro.graph import compile_graph, execute_graph
from repro.graph.scheduler import prepare_graph
from repro.runtime.native import find_c_compiler
from repro.runtime.native_graph import compile_native_graph

DEVICE = "Tesla C2050"

#: warm ``PreparedGraph.run`` calls timed per thread count (after two
#: untimed ones)
WARM_RUNS = 20


def build_graph(frame, size):
    """The bit-exact edge chain: every node is native-eligible."""
    src = Image(size, size, float, name="src").set_data(frame)
    den = Image(size, size, float, name="denoised")
    gx = Image(size, size, float, name="grad_x")
    gy = Image(size, size, float, name="grad_y")
    out = Image(size, size, float, name="edges")

    g = PipelineGraph("edge-native")
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
    g.add_kernel(GradientMagnitude(IterationSpace(out), Accessor(gx),
                                   Accessor(gy)), name="magnitude",
                 device=DEVICE)
    g.mark_output(out)
    return g, out


def _openmp_runtime():
    """The OpenMP runtime native modules link (GCC's libgomp or LLVM's
    libomp): loading it by soname yields the instance they use."""
    for name in ("gomp", "omp"):
        path = ctypes.util.find_library(name)
        if path:
            return ctypes.CDLL(path)
    raise RuntimeError("no OpenMP runtime found")


def warm_run_ms(prepared, threads):
    """Median wall clock of :data:`WARM_RUNS` warm ``prepared.run()``
    calls with OpenMP limited to *threads* threads.

    ``omp_set_num_threads`` sets the calling thread's team size — the
    thread that issues every segment call."""
    lib = _openmp_runtime()
    previous = lib.omp_get_max_threads()
    lib.omp_set_num_threads(threads)
    times = []
    try:
        for i in range(WARM_RUNS + 2):
            t0 = time.perf_counter()
            prepared.run(register_metrics=False)
            if i >= 2:
                times.append((time.perf_counter() - t0) * 1e3)
    finally:
        lib.omp_set_num_threads(previous)
    return statistics.median(times)


def measure(size=512):
    if find_c_compiler() is None:
        raise RuntimeError("no C compiler on PATH — the native tier "
                           "cannot run on this machine")
    frame = impulse_noise_image(size, size, seed=7, density=0.02)

    g, out = build_graph(frame, size)
    sim = execute_graph(g, cache=CompilationCache(), workers=1)
    sim_out = out.get_data().copy()

    workdir = tempfile.mkdtemp(prefix="bench_native_graph_")
    saved_env = os.environ.get("REPRO_NATIVE_DIR")
    os.environ["REPRO_NATIVE_DIR"] = workdir
    try:
        cache = CompilationCache(directory=os.path.join(workdir, "store"))
        g2, out2 = build_graph(frame, size)
        compile_graph(g2, cache=cache, workers=1)

        t0 = time.perf_counter()
        cold = compile_native_graph(g2, cache=cache)
        cold_ms = (time.perf_counter() - t0) * 1e3
        assert cold.origin == "fresh", cold.origin

        t0 = time.perf_counter()
        warm = compile_native_graph(g2, cache=cache)
        warm_ms = (time.perf_counter() - t0) * 1e3
        assert warm.origin == "workdir", warm.origin

        os.unlink(cold.library_path)     # force the store tier
        t0 = time.perf_counter()
        store = compile_native_graph(g2, cache=cache)
        store_ms = (time.perf_counter() - t0) * 1e3
        assert store.origin == "store", store.origin

        prepared = prepare_graph(g2, cache=cache, workers=1,
                                 engine="native")
        native = prepared.run()
        assert native.engine_used == "native"
        assert np.array_equal(sim_out, out2.get_data()), \
            "native execution diverged from the simulator"
        warm = {t: warm_run_ms(prepared, t) for t in (1, 2)}
        assert np.array_equal(sim_out, out2.get_data()), \
            "a warm native run diverged from the simulator"
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_NATIVE_DIR", None)
        else:
            os.environ["REPRO_NATIVE_DIR"] = saved_env
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "size": size,
        "cold_compile_ms": cold_ms,
        "warm_workdir_ms": warm_ms,
        "warm_store_ms": store_ms,
        "sim_execute_ms": sim.execute_wall_ms,
        "native_run_1t_p50_ms": warm[1],
        "native_run_2t_p50_ms": warm[2],
        "native_nodes": native.native_nodes,
        "launches": native.launches,
        "segments": len(cold.plan.segments),
        "arena_peak_bytes": native.pool.peak_bytes,
    }


def report(quick: bool = False):
    size = 256 if quick else 512
    m = measure(size)
    print(f"native graph tier, {size}x{size} frame:")
    print(f"  nodes:               {m['native_nodes']}/{m['launches']} "
          f"native in {m['segments']} segment(s), "
          f"{m['arena_peak_bytes'] / 1024:.1f} KiB arena piece")
    print(f"  cold compile:        {m['cold_compile_ms']:8.1f} ms "
          "(plan + emit + cc)")
    print(f"  warm (workdir .so):  {m['warm_workdir_ms']:8.1f} ms "
          f"({m['cold_compile_ms'] / max(m['warm_workdir_ms'], 1e-3):.0f}x"
          " faster, zero compiler invocations)")
    print(f"  warm (artifact store): {m['warm_store_ms']:6.1f} ms")
    print(f"  execute wall:        sim {m['sim_execute_ms']:.1f} ms -> "
          f"native {m['native_run_1t_p50_ms']:.2f} ms (1 thread), "
          f"{m['native_run_2t_p50_ms']:.2f} ms (2 threads); median of "
          f"{WARM_RUNS} warm runs")
    print("  output: byte-identical to the simulator")
    return m


def test_warm_start_much_cheaper_than_cold():
    m = measure(size=96)
    assert m["warm_workdir_ms"] < m["cold_compile_ms"] / 2
    assert m["warm_store_ms"] < m["cold_compile_ms"]


def test_whole_chain_is_native():
    m = measure(size=96)
    assert m["native_nodes"] == m["launches"]
    assert m["segments"] == 1


def main():
    try:
        from .common import run_traced, write_bench_json
    except ImportError:        # run directly: benchmarks/ is sys.path[0]
        from common import run_traced, write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small frame (CI smoke)")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_native_graph.json with "
                             "per-stage span breakdowns")
    args = parser.parse_args()
    if not args.json:
        report(quick=args.quick)
        return
    m, stages = run_traced(report, quick=args.quick)
    path = write_bench_json("native_graph", m, stages)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
