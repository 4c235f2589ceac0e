"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``devices``  — the modelled GPU database (the abstract hardware model);
* ``codegen``  — emit CUDA/OpenCL/CPU source for a built-in filter;
* ``table``    — regenerate one of the paper's tables (II-IX) with the
  published numbers side by side;
* ``figure4``  — the configuration-space exploration;
* ``explore``  — Algorithm 2 vs exhaustive exploration on any device;
* ``tune``     — measurement-driven auto-tuning: search block
  configurations by measured signal and persist winners in the tuned
  database consulted by later compiles (see docs/TUNING.md);
* ``demo``     — compile + simulate a filter on a synthetic angiography
  frame and report timing/configuration;
* ``graph``    — run the edge-detection pipeline as a declarative
  multi-kernel graph (fusion, memory plan, concurrent compiles) and print
  the graph report, or export the DAG with ``--dot``;
* ``lint``     — static-analyse kernels: run example files under the
  diagnostic collector and/or lint the built-in filters, reporting
  ``HIPxxx`` findings as text, JSON or SARIF (see docs/DIAGNOSTICS.md);
* ``cache``    — inspect or clear the on-disk compilation cache;
* ``trace``    — run a builtin filter (or the graph pipeline with
  ``--graph``) under the :mod:`repro.obs` tracer and export the spans
  as Chrome-trace/Perfetto JSON, structured JSON or a text tree (see
  docs/OBSERVABILITY.md).

``codegen`` and ``demo`` accept ``--cache`` (content-addressed compile
cache, optionally persisted with ``--cache-dir``) and ``--cache-stats``
(hit/miss/eviction counters and per-stage timings on stderr);
``figure4`` and ``explore`` accept ``--workers`` to parallelise the
configuration walk.  See docs/CACHING.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _build_filter(name: str, size: int, boundary: str, data):
    from .dsl.boundary import Boundary
    from .filters.bilateral import make_bilateral
    from .filters.gaussian import make_gaussian
    from .filters.laplacian import make_laplacian
    from .filters.median import make_median
    from .filters.sobel import make_sobel

    mode = Boundary.coerce(boundary)
    h, w = data.shape
    if name == "bilateral":
        return make_bilateral(w, h, sigma_d=2, sigma_r=0.1,
                              boundary=mode, data=data)
    if name == "gaussian":
        return make_gaussian(w, h, size=5, boundary=mode, data=data)
    if name == "sobel":
        return make_sobel(w, h, axis="x", boundary=mode, data=data)
    if name == "laplacian":
        return make_laplacian(w, h, boundary=mode, data=data)
    if name == "median":
        return make_median(w, h, boundary=mode, data=data)
    raise SystemExit(f"unknown filter {name!r}")


FILTERS = ["bilateral", "gaussian", "sobel", "laplacian", "median"]


def _cache_from_args(args):
    """Build the CompilationCache requested by --cache/--cache-dir."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        from .cache import CompilationCache

        return CompilationCache(directory=cache_dir)
    if getattr(args, "cache", False):
        # the process-wide default honors REPRO_CACHE_DIR / _CAPACITY,
        # so `--cache` can persist across one-shot CLI invocations
        from .cache import get_default_cache

        return get_default_cache()
    return None


def _print_cache_stats(cache, compiled=None) -> None:
    if cache is None:
        print("cache: disabled (pass --cache or --cache-dir)",
              file=sys.stderr)
        return
    print(f"cache: {cache.stats.summary()}", file=sys.stderr)
    if compiled is not None and compiled.stage_timings:
        stages = ", ".join(f"{name[:-3]} {ms:.3f}ms"
                           for name, ms in
                           compiled.stage_timings.items())
        origin = "cache hit" if compiled.from_cache else "full pipeline"
        print(f"compile ({origin}): {stages}", file=sys.stderr)
        if compiled.cache_key:
            print(f"key: {compiled.cache_key}", file=sys.stderr)


def cmd_devices(args) -> int:
    from .hwmodel import DEVICES

    print(f"{'device':<18}{'vendor':<8}{'arch':<7}{'SIMDs':>6}"
          f"{'ALUs':>6}{'clock':>7}{'BW GB/s':>9}{'max blk':>9}")
    for dev in DEVICES.values():
        print(f"{dev.name:<18}{dev.vendor:<8}{dev.architecture:<7}"
              f"{dev.num_simd_units:>6}{dev.total_alus:>6}"
              f"{dev.clock_ghz:>6.2f}G"
              f"{dev.memory.bandwidth_gbps:>9.1f}"
              f"{dev.max_threads_per_block:>9}")
    return 0


def cmd_codegen(args) -> int:
    rng = np.random.default_rng(0)
    data = rng.random((args.size, args.size)).astype(np.float32)
    kernel, _, _ = _build_filter(args.filter, args.size, args.boundary,
                                 data)
    if args.backend == "cpu":
        # the CPU target has no device model; generate directly
        from .backends.base import CodegenOptions, generate
        from .frontend.parser import parse_kernel
        from .ir.typecheck import typecheck_kernel

        ir = typecheck_kernel(parse_kernel(kernel))
        source = generate(ir, CodegenOptions(backend="cpu"),
                          launch_geometry=(args.size, args.size))
        print(source.host_code if args.host else source.device_code)
        print(f"// {source.num_variants} loop nests, "
              f"{source.device_lines} lines", file=sys.stderr)
        return 0
    from .runtime.compile import compile_kernel

    cache = _cache_from_args(args)
    compiled = compile_kernel(kernel, backend=args.backend,
                              device=args.device,
                              vectorize=args.vectorize,
                              pixels_per_thread=args.ppt,
                              cache=cache)
    if args.host:
        print(compiled.host_code)
    else:
        print(compiled.device_code)
    print(f"// block {compiled.options.block}, "
          f"{compiled.resources.registers_per_thread} regs/thread, "
          f"{compiled.source.num_variants} border variants, "
          f"{compiled.source.device_lines} lines", file=sys.stderr)
    if args.cache_stats:
        _print_cache_stats(cache, compiled)
    return 0


def cmd_demo(args) -> int:
    from .data.synthetic import angiography_image
    from .runtime.compile import compile_kernel

    frame = angiography_image(args.size, args.size, seed=0)
    kernel, _, out_img = _build_filter(args.filter, args.size,
                                       args.boundary, frame)
    cache = _cache_from_args(args)
    compiled = compile_kernel(kernel, backend=args.backend,
                              device=args.device, cache=cache)
    report = compiled.execute()
    out = out_img.get_data()
    print(f"{args.filter} on {args.size}x{args.size} angiography frame")
    print(f"  device:    {compiled.device.name} ({args.backend})")
    print(f"  config:    {compiled.options.block[0]}x"
          f"{compiled.options.block[1]} "
          f"(occupancy {report.timing.occupancy:.0%})")
    print(f"  generated: {compiled.source.device_lines} lines, "
          f"{compiled.source.num_variants} border variants")
    print(f"  modelled:  {report.time_ms:.3f} ms "
          f"(compute {report.timing.compute_ms:.3f}, "
          f"memory {report.timing.memory_ms:.3f})")
    print(f"  output:    mean {out.mean():.4f}, std {out.std():.4f}")
    if args.cache_stats:
        _print_cache_stats(cache, compiled)
    return 0


def build_edge_pipeline(size: int, device: str, backend: str):
    """The edge-detection demo pipeline (median → sobel ×2 → magnitude
    → scale → gamma) over a synthetic angiography frame.

    Shared by ``repro graph`` and ``repro trace --graph``; returns the
    graph and its output image.
    """
    from .data.synthetic import angiography_image
    from .dsl import (Accessor, Boundary, BoundaryCondition, Image,
                      IterationSpace, Mask)
    from .filters.median import Median3x3
    from .filters.point_ops import GammaCorrection, Scale
    from .filters.sobel import (SOBEL_X, SOBEL_Y, GradientMagnitude,
                                SobelX, SobelY)
    from .graph import PipelineGraph

    n = size
    frame = angiography_image(n, n, seed=0)
    src = Image(n, n, name="src")
    src.set_data(frame)
    den = Image(n, n, name="denoised")
    gx = Image(n, n, name="grad_x")
    gy = Image(n, n, name="grad_y")
    mag = Image(n, n, name="magnitude")
    scaled = Image(n, n, name="scaled")
    out = Image(n, n, name="edges")

    opts = dict(device=device, backend=backend)
    g = PipelineGraph("edge-detection")
    g.add_kernel(Median3x3(IterationSpace(den), Accessor(
        BoundaryCondition(src, 3, 3, Boundary.CLAMP))), name="median",
        **opts)
    den_bc = BoundaryCondition(den, 3, 3, Boundary.CLAMP)
    g.add_kernel(SobelX(IterationSpace(gx), Accessor(den_bc),
                        Mask(3, 3).set(SOBEL_X)), name="sobel_x", **opts)
    g.add_kernel(SobelY(IterationSpace(gy), Accessor(den_bc),
                        Mask(3, 3).set(SOBEL_Y)), name="sobel_y", **opts)
    g.add_kernel(GradientMagnitude(IterationSpace(mag), Accessor(gx),
                                   Accessor(gy)), name="magnitude", **opts)
    g.add_kernel(Scale(IterationSpace(scaled), Accessor(mag), factor=0.25),
                 name="scale", **opts)
    g.add_kernel(GammaCorrection(IterationSpace(out), Accessor(scaled),
                                 gamma=0.8), name="gamma", **opts)
    g.mark_output(out)
    return g, out


def cmd_graph(args) -> int:
    from .graph import execute_graph

    g, out = build_edge_pipeline(args.size, args.device, args.backend)

    if args.dot:
        print(g.to_dot())
        return 0

    cache = _cache_from_args(args)
    report = execute_graph(g, cache=cache, workers=args.workers,
                           fuse=not args.no_fuse, engine=args.engine)
    print(report.summary())
    edges = out.get_data()
    print(f"  output:  mean {edges.mean():.4f}, max {edges.max():.4f}")
    if args.cache_stats:
        _print_cache_stats(cache)
    return 0


def cmd_trace(args) -> int:
    from .cache import CompilationCache
    from .obs import get_tracer, render, tracing

    cache = _cache_from_args(args) or CompilationCache()
    with tracing() as tracer:
        if args.graph:
            from .graph import execute_graph

            g, _ = build_edge_pipeline(args.size, args.device,
                                       args.backend)
            report = execute_graph(g, cache=cache, workers=args.workers)
            print(report.summary(), file=sys.stderr)
        else:
            from .data.synthetic import angiography_image
            from .runtime.compile import compile_kernel

            frame = angiography_image(args.size, args.size, seed=0)
            kernel, _, _ = _build_filter(args.filter, args.size, "clamp",
                                         frame)
            # compile twice so the trace shows both the fresh pipeline
            # and the cache-hit path, then one simulated launch
            compile_kernel(kernel, backend=args.backend,
                           device=args.device, cache=cache)
            compiled = compile_kernel(kernel, backend=args.backend,
                                      device=args.device, cache=cache)
            compiled.execute()
        assert tracer is get_tracer()
        text = render(tracer, args.format)
    if args.out:
        from .atomic import write_atomic
        write_atomic(args.out, text if text.endswith("\n")
                     else text + "\n")
        print(f"trace ({args.format}, {len(tracer)} spans) written to "
              f"{args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_cache(args) -> int:
    import json as _json
    import os

    from .cache import CompilationCache

    directory = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not directory:
        print("no cache directory (pass --cache-dir or set "
              "REPRO_CACHE_DIR)", file=sys.stderr)
        return 1
    if args.clear:
        CompilationCache(directory=directory).clear(disk=True)
        print(f"cleared on-disk cache at {directory}")
        return 0
    entries = 0
    total_bytes = 0
    kinds = {}
    if os.path.isdir(directory):
        for shard in sorted(os.listdir(directory)):
            shard_dir = os.path.join(directory, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                entries += 1
                total_bytes += os.path.getsize(path)
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        kind = _json.load(fh).get("kind", "?")
                except (OSError, ValueError):
                    kind = "corrupt"
                kinds[kind] = kinds.get(kind, 0) + 1
    print(f"cache dir: {directory}")
    print(f"entries:   {entries} ({total_bytes / 1024:.1f} KiB)")
    for kind in sorted(kinds):
        print(f"  {kind}: {kinds[kind]}")
    return 0


def cmd_lint(args) -> int:
    import contextlib
    import os
    import runpy

    from .lint import LintReport, collecting, lint_graph, lint_kernel

    if not args.targets and not args.builtin:
        print("nothing to lint: pass file targets and/or --builtin",
              file=sys.stderr)
        return 2

    report = LintReport()
    if args.builtin:
        from .lint.builtin import builtin_kernels

        for kernel in builtin_kernels():
            report.extend(lint_kernel(kernel))
        # Graph-level passes over the builtin demo pipeline: HIP3xx
        # findings count toward --fail-on, HIP5xx footprint facts are
        # notes and never trip the threshold.
        g, _ = build_edge_pipeline(64, "Tesla C2050", "cuda")
        report.extend(lint_graph(g, notes=True))

    for target in args.targets:
        # Kernels are built dynamically, so "lint this file" means "run
        # it and collect everything the compile/graph verify emits".
        # The target's own stdout is silenced — it would corrupt the
        # json/sarif output streams.
        with collecting() as sink:
            try:
                with open(os.devnull, "w") as devnull, \
                        contextlib.redirect_stdout(devnull):
                    runpy.run_path(target, run_name="__main__")
            except Exception as exc:   # noqa: BLE001 - arbitrary user code
                print(f"lint: executing {target} failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                return 2
        # one kernel often compiles many times (explorations, both cache
        # paths); identical findings collapse to one
        seen = set()
        for d in sink:
            key = (d.code, d.kernel, d.lineno, d.message)
            if key not in seen:
                seen.add(key)
                report.diagnostics.append(d)

    if args.format == "json":
        print(report.to_json())
    elif args.format == "sarif":
        print(report.to_sarif())
    else:
        print(report.to_text())
    return 1 if report.exceeds(args.fail_on) else 0


def cmd_table(args) -> int:
    from .evaluation import paper_data
    from .evaluation.opencv_cmp import gaussian_table
    from .evaluation.variants import bilateral_table
    from .reporting.tables import format_comparison_table

    mapping = {
        "2": ("Tesla C2050", "cuda"), "3": ("Tesla C2050", "opencl"),
        "4": ("Quadro FX 5800", "cuda"),
        "5": ("Quadro FX 5800", "opencl"),
        "6": ("Radeon HD 5870", "opencl"),
        "7": ("Radeon HD 6970", "opencl"),
    }
    key = args.number
    if key in mapping:
        device, backend = mapping[key]
        model = bilateral_table(device, backend)
        paper = paper_data.ALL_BILATERAL_TABLES[(device, backend)]
        print(format_comparison_table(
            model, paper, paper_data.MODE_ORDER,
            title=f"Table {key}: bilateral 13x13, {device}, {backend}"))
        return 0
    if key in ("8", "9"):
        device = "Tesla C2050" if key == "8" else "Quadro FX 5800"
        for size in (3, 5):
            model = gaussian_table(device, size)
            paper = paper_data.ALL_GAUSSIAN_TABLES[device][size]
            aligned = dict(model)
            if "OpenCL(+Tex)" in paper:
                aligned["OpenCL(+Tex)"] = aligned["OpenCL(+Img)"]
            print(format_comparison_table(
                aligned, paper, paper_data.GAUSSIAN_MODE_ORDER,
                title=f"Table {key}: Gaussian {size}x{size}, {device}"))
            print()
        return 0
    raise SystemExit(f"unknown table {key!r} (expected 2-9)")


def cmd_figure4(args) -> int:
    from .evaluation.figure4 import figure4_exploration

    result = figure4_exploration(workers=args.workers)
    worst = max(p.time_ms for p in result.points)
    print(f"Figure 4: {len(result.points)} configurations explored")
    print(f"  optimum   {result.best.block[0]}x{result.best.block[1]} "
          f"at {result.best.time_ms:.2f} ms")
    print(f"  heuristic {result.heuristic_block[0]}x"
          f"{result.heuristic_block[1]} at {result.heuristic_ms:.2f} ms "
          f"({result.heuristic_within:.3f}x of optimum)")
    print(f"  spread    {worst / result.best.time_ms:.2f}x")
    return 0


def cmd_serve(args) -> int:
    from .serve.server import run_server
    from .serve.service import ServeConfig

    config = ServeConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_timeout_ms=args.timeout_ms,
        engine=args.engine,
    )
    cache = _cache_from_args(args)
    code = run_server(host=args.host, port=args.port, config=config,
                      cache=cache, drain_timeout=args.drain_timeout,
                      trace_out=args.trace_out)
    return code


def cmd_perf(args) -> int:
    from .obs.compare import DEFAULT_BENCHMARKS, run_compare

    return run_compare(
        baseline_dir=args.baseline_dir,
        current_dir=args.current_dir,
        names=tuple(args.benches) if args.benches else DEFAULT_BENCHMARKS,
        threshold=args.threshold,
        noise_floor_ms=args.noise_floor_ms,
        stage_threshold=args.stage_threshold,
        json_out=args.json_out,
        allow_missing=args.allow_missing,
    )


def cmd_tune(args) -> int:
    """Run the measurement-driven auto-tuner over builtin filters and
    persist the winners (docs/TUNING.md)."""
    import json as _json
    import os

    from .data.synthetic import angiography_image
    from .mapping.optdb import TunedDatabase, default_tuned_database
    from .mapping.tuner import tune_kernel

    names = FILTERS if args.all else [args.filter]
    if args.db:
        db = TunedDatabase(path=args.db)
    else:
        db = default_tuned_database()
        if db.path is None and not args.dry_run:
            print("note: no on-disk store (--db or REPRO_OPTDB_PATH); "
                  "winners live only in this process", file=sys.stderr)
    cache = _cache_from_args(args)
    frame = angiography_image(args.size, args.size, seed=0)

    rows = []
    for name in names:
        kernel, _, _ = _build_filter(name, args.size, args.boundary,
                                     frame)
        result = tune_kernel(
            kernel, backend=args.backend, device=args.device,
            engine=args.engine, signal=args.signal, budget=args.budget,
            seed_top=args.seed_top, repeats=args.repeats,
            db=False if args.dry_run else db, cache=cache)
        rows.append((name, result))

    if args.json:
        doc = [{
            "filter": name,
            "kernel": r.kernel,
            "fingerprint": r.fingerprint,
            "device": r.device,
            "backend": r.backend,
            "engine": r.engine,
            "signal": r.signal,
            "best_block": list(r.best_block),
            "best_ms": r.best_ms,
            "heuristic_block": list(r.heuristic_block),
            "heuristic_ms": r.heuristic_ms,
            "speedup_over_heuristic": r.speedup_over_heuristic,
            "trials": r.trials,
            "pruned": r.pruned,
            "candidates": r.candidates,
            "wall_ms": r.wall_ms,
        } for name, r in rows]
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"auto-tune on {args.device} ({args.backend}), "
              f"engine={args.engine}, budget={args.budget}")
        print(f"{'filter':<11}{'heuristic':>11}{'tuned':>9}"
              f"{'gain':>8}{'trials':>8}{'pruned':>8}")
        for name, r in rows:
            print(f"{name:<11}"
                  f"{r.heuristic_block[0]:>6}x{r.heuristic_block[1]:<4}"
                  f"{r.best_block[0]:>4}x{r.best_block[1]:<4}"
                  f"{(r.speedup_over_heuristic - 1) * 100:>+7.1f}%"
                  f"{r.trials:>8}{r.pruned:>8}")
        if not args.dry_run:
            where = db.path or "in-memory store"
            print(f"{len(rows)} winner(s) recorded in {where}")
    return 0


def cmd_explore(args) -> int:
    from .evaluation.figure4 import figure4_exploration
    from .hwmodel import get_device

    dev = get_device(args.device)
    backend = "cuda" if dev.vendor == "NVIDIA" else "opencl"
    result = figure4_exploration(device=dev, backend=backend,
                                 workers=args.workers)
    print(f"{'block':>10}{'time ms':>10}{'occupancy':>11}")
    for p in sorted(result.points, key=lambda p: p.time_ms)[:args.top]:
        print(f"{p.block[0]:>5}x{p.block[1]:<4}{p.time_ms:>10.2f}"
              f"{p.occupancy:>10.0%}")
    print(f"heuristic: {result.heuristic_block[0]}x"
          f"{result.heuristic_block[1]} "
          f"({result.heuristic_within:.3f}x of optimum)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="hipacc-py: device-specific GPU code generation for "
                    "local operators (IPDPS 2012 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the modelled GPUs")

    def add_cache_flags(p):
        p.add_argument("--cache", action="store_true",
                       help="use the content-addressed compilation cache")
        p.add_argument("--cache-dir", default=None,
                       help="persist cache entries under this directory "
                            "(implies --cache)")
        p.add_argument("--cache-stats", action="store_true",
                       help="print cache counters and per-stage compile "
                            "timings to stderr")

    p = sub.add_parser("codegen", help="emit source for a built-in filter")
    p.add_argument("--filter", choices=FILTERS, default="bilateral")
    p.add_argument("--backend", choices=["cuda", "opencl", "cpu"],
                   default="cuda")
    p.add_argument("--device", default="Tesla C2050")
    p.add_argument("--boundary", default="clamp")
    p.add_argument("--size", type=int, default=2048)
    p.add_argument("--vectorize", type=int, default=1)
    p.add_argument("--ppt", type=int, default=1)
    p.add_argument("--host", action="store_true",
                   help="print the host code instead of the kernel")
    add_cache_flags(p)

    p = sub.add_parser("demo", help="compile + simulate on synthetic data")
    p.add_argument("--filter", choices=FILTERS, default="bilateral")
    p.add_argument("--backend", choices=["cuda", "opencl"],
                   default="cuda")
    p.add_argument("--device", default="Tesla C2050")
    p.add_argument("--boundary", default="mirror")
    p.add_argument("--size", type=int, default=256)
    add_cache_flags(p)

    p = sub.add_parser("graph",
                       help="run the edge pipeline as a kernel graph")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--backend", choices=["cuda", "opencl"],
                   default="cuda")
    p.add_argument("--device", default="Tesla C2050")
    p.add_argument("--workers", type=int, default=None,
                   help="thread count for compilation (1 = serial)")
    p.add_argument("--no-fuse", action="store_true",
                   help="disable point-operator fusion")
    p.add_argument("--engine", choices=["sim", "native", "auto"],
                   default="sim",
                   help="execution tier: Python simulator (oracle), "
                        "compiled native graph segments, or native-"
                        "when-possible (see docs/NATIVE.md)")
    p.add_argument("--dot", action="store_true",
                   help="print the pipeline DAG as Graphviz and exit")
    add_cache_flags(p)

    p = sub.add_parser(
        "lint", help="static-analyse kernels (HIPxxx diagnostics)")
    p.add_argument("targets", nargs="*",
                   help="python files to execute under the diagnostic "
                        "collector (examples, applications)")
    p.add_argument("--builtin", action="store_true",
                   help="lint every built-in filter kernel")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text",
                   help="report rendering (sarif for CI code scanning)")
    p.add_argument("--fail-on", choices=["error", "warning", "never"],
                   default="error", dest="fail_on",
                   help="lowest severity that makes the exit status "
                        "non-zero")

    p = sub.add_parser("table", help="regenerate a paper table (2-9)")
    p.add_argument("number")

    p = sub.add_parser("figure4", help="the Figure 4 exploration")
    p.add_argument("--workers", type=int, default=None,
                   help="parallelise the configuration walk over N "
                        "workers")

    p = sub.add_parser(
        "tune",
        help="measure-and-persist winning block configurations "
             "(docs/TUNING.md)")
    p.add_argument("--filter", choices=FILTERS, default="bilateral")
    p.add_argument("--all", action="store_true",
                   help="tune every builtin filter")
    p.add_argument("--backend", choices=["cuda", "opencl"],
                   default="cuda")
    p.add_argument("--device", default="Tesla C2050")
    p.add_argument("--boundary", default="clamp")
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--engine", choices=["sim", "native"], default="sim",
                   help="execution tier the winner is tuned for (keys "
                        "the database record)")
    p.add_argument("--signal", choices=["model", "sim", "native"],
                   default=None,
                   help="measurement that scores trials (default: the "
                        "engine's natural signal; model = deterministic "
                        "timing model)")
    p.add_argument("--budget", type=int, default=16,
                   help="maximum configurations measured per kernel")
    p.add_argument("--seed-top", type=int, default=4, dest="seed_top",
                   help="best-modelled candidates measured besides the "
                        "heuristic's choice")
    p.add_argument("--repeats", type=int, default=3,
                   help="executions per trial (wall-clock signals take "
                        "the best)")
    p.add_argument("--db", default=None,
                   help="tuned-database JSON path (default: "
                        "$REPRO_OPTDB_PATH or in-memory)")
    p.add_argument("--dry-run", action="store_true", dest="dry_run",
                   help="search but record nothing")
    p.add_argument("--json", action="store_true",
                   help="print results as JSON instead of a table")
    add_cache_flags(p)

    p = sub.add_parser("explore",
                       help="configuration exploration on any device")
    p.add_argument("--device", default="Tesla C2050")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--workers", type=int, default=None,
                   help="parallelise the configuration walk over N "
                        "workers")

    p = sub.add_parser(
        "serve",
        help="run the persistent compile-and-execute HTTP service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8077,
                   help="TCP port (0 = ephemeral; the bound port is "
                        "printed on the first stdout line)")
    p.add_argument("--workers", type=int, default=2,
                   help="request-executing worker threads")
    p.add_argument("--queue-limit", type=int, default=64,
                   dest="queue_limit",
                   help="shed requests (HTTP 429) beyond this many "
                        "waiting")
    p.add_argument("--timeout-ms", type=float, default=30000.0,
                   dest="timeout_ms",
                   help="default per-request deadline")
    p.add_argument("--engine", choices=["sim", "native", "auto"],
                   default="auto",
                   help="execution tier for requests that do not name "
                        "one")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   dest="drain_timeout",
                   help="seconds to wait for in-flight requests on "
                        "SIGTERM before giving up (non-zero exit)")
    p.add_argument("--trace-out", default=None, dest="trace_out",
                   help="run under the tracer and write the Chrome-"
                        "trace export here after the drain")
    add_cache_flags(p)

    p = sub.add_parser(
        "perf",
        help="compare fresh BENCH_*.json against committed baselines "
             "(the perf-regression sentinel; docs/OBSERVABILITY.md)")
    p.add_argument("--baseline-dir", default=".", dest="baseline_dir",
                   help="directory with committed BENCH_*.json")
    p.add_argument("--current-dir", required=True, dest="current_dir",
                   help="directory with freshly generated BENCH_*.json")
    p.add_argument("--bench", action="append", dest="benches",
                   metavar="NAME",
                   help="benchmark name (repeatable; default: all "
                        "committed baselines)")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="relative regression gate (0.25 = 25%% worse)")
    p.add_argument("--stage-threshold", type=float, default=None,
                   dest="stage_threshold",
                   help="per-stage gate (default: same as --threshold)")
    p.add_argument("--noise-floor-ms", type=float, default=5.0,
                   dest="noise_floor_ms",
                   help="absolute delta below which *_ms changes are "
                        "noise")
    p.add_argument("--json-out", default=None, dest="json_out",
                   help="also write the machine-readable report here")
    p.add_argument("--allow-missing", action="store_true",
                   dest="allow_missing",
                   help="skip absent documents instead of failing")

    p = sub.add_parser("cache",
                       help="inspect or clear the on-disk compile cache")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_CACHE_DIR)")
    p.add_argument("--clear", action="store_true",
                   help="delete every stored entry")

    p = sub.add_parser(
        "trace",
        help="run a workload under the tracer and export the spans")
    p.add_argument("--filter", choices=FILTERS, default="gaussian",
                   help="builtin filter to compile (twice: fresh + "
                        "cache hit) and simulate")
    p.add_argument("--graph", action="store_true",
                   help="trace the edge-detection pipeline graph "
                        "instead of a single filter")
    p.add_argument("--backend", choices=["cuda", "opencl"],
                   default="cuda")
    p.add_argument("--device", default="Tesla C2050")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--workers", type=int, default=None,
                   help="graph compile/execute thread count "
                        "(with --graph)")
    p.add_argument("--format", choices=["chrome", "text", "json"],
                   default="chrome",
                   help="chrome = Chrome-trace/Perfetto JSON (default)")
    p.add_argument("--out", default=None,
                   help="write the rendering here instead of stdout")
    add_cache_flags(p)
    return parser


COMMANDS = {
    "devices": cmd_devices,
    "codegen": cmd_codegen,
    "demo": cmd_demo,
    "graph": cmd_graph,
    "lint": cmd_lint,
    "table": cmd_table,
    "figure4": cmd_figure4,
    "explore": cmd_explore,
    "tune": cmd_tune,
    "cache": cmd_cache,
    "serve": cmd_serve,
    "trace": cmd_trace,
    "perf": cmd_perf,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
