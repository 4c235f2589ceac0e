"""Shared machinery for the table-reproduction benchmarks.

Each ``bench_table*.py`` regenerates one published table through the full
pipeline (DSL parse -> IR -> resource estimation -> timing model), prints
the model-vs-paper comparison, and asserts the table's qualitative shape
claims.  ``pytest-benchmark`` times the regeneration itself (the real
compile+model pipeline executing on this machine).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.evaluation import paper_data
from repro.evaluation.opencv_cmp import gaussian_table
from repro.evaluation.variants import bilateral_table
from repro.reporting.tables import (
    format_comparison_table,
    marker_agreement,
    relative_errors,
    shape_check,
)

HANDLED = ["clamp", "repeat", "mirror", "constant"]


def run_traced(fn: Callable, *args, **kwargs) -> Tuple[object, Dict]:
    """Run *fn* under the :mod:`repro.obs` tracer.

    Returns ``(result, stages)`` where *stages* maps each span name to
    its ``{count, total_ms, mean_ms}`` aggregate — the per-stage
    breakdown the ``BENCH_*.json`` artifacts carry.
    """
    from repro.obs import stage_totals, tracing

    with tracing() as tracer:
        result = fn(*args, **kwargs)
        stages = stage_totals(tracer)
    return result, stages


def write_bench_json(name: str, headline: Dict[str, float],
                     stages: Dict[str, Dict[str, float]],
                     out_dir: str = None) -> str:
    """Write ``BENCH_<name>.json`` and return its path.

    *headline* holds the benchmark's own numbers (speedups, wall times);
    *stages* is :func:`run_traced`'s per-span breakdown, so the artifact
    answers "where did the time go" without rerunning under a profiler.
    Every document is stamped with
    :data:`repro.obs.compare.BENCH_SCHEMA_VERSION` — the perf sentinel
    (``repro perf``) refuses documents
    whose version does not match, so a stale committed baseline can
    never silently pass against a fresh run.
    Directory precedence: *out_dir* arg, ``$BENCH_JSON_DIR``, then the
    current working directory.
    """
    from repro.obs.compare import BENCH_SCHEMA_VERSION

    out_dir = out_dir or os.environ.get("BENCH_JSON_DIR") or os.getcwd()
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    doc = {
        "benchmark": name,
        "headline": headline,
        "stages": stages,
        "schema": "repro-bench-v1",
        "schema_version": BENCH_SCHEMA_VERSION,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def spread(row: Dict[str, object], modes=HANDLED) -> float:
    values = [row[m] for m in modes if isinstance(row[m], float)]
    return max(values) / min(values)


def run_bilateral_table(device: str, backend: str):
    return bilateral_table(device, backend)


def report_bilateral(model, device: str, backend: str,
                     title: str) -> List[str]:
    """Print comparison + shape checklist; return failed checks."""
    paper = paper_data.ALL_BILATERAL_TABLES[(device, backend)]
    print()
    print(format_comparison_table(model, paper, paper_data.MODE_ORDER,
                                  title=title))
    errs = relative_errors(model, paper, paper_data.MODE_ORDER)
    print(f"mean relative error vs paper: {np.mean(errs):.1%} "
          f"(max {np.max(errs):.1%}, n={len(errs)} cells)")

    checks = []

    def check(name, cond, detail=""):
        line = shape_check(name, cond, detail)
        print(line)
        if not cond:
            checks.append(name)

    gen_rows = [n for n in model if n.startswith("Generated")]
    check("generated near-constant across handled modes",
          all(spread(model[n]) < 1.12 for n in gen_rows),
          f"max spread {max(spread(model[n]) for n in gen_rows):.3f}")
    manual_spread = spread(model["Manual"])
    amd = device.startswith("Radeon")
    if not amd:
        check("manual varies strongly across modes", manual_spread > 1.4,
              f"spread {manual_spread:.2f}")
    else:
        check("AMD manual modes cluster (VLIW predication)",
              manual_spread < 1.35, f"spread {manual_spread:.2f}")
    mask_gain = (model["Generated"]["clamp"]
                 / model["Generated+Mask"]["clamp"])
    if not amd:
        check("constant-memory mask speedup > 1.25x", mask_gain > 1.25,
              f"{mask_gain:.2f}x")
    else:
        check("mask speedup muted on VLIW", 1.0 < mask_gain < 1.45,
              f"{mask_gain:.2f}x")
    markers = list(marker_agreement(model, paper, paper_data.MODE_ORDER))
    check("crash/n-a markers match the paper", not markers,
          "; ".join(markers))
    if backend == "cuda" and "RapidMind" in model:
        rm = model["RapidMind"]["clamp"] / model["Generated+Mask"]["clamp"]
        check("generated beats RapidMind >= 2x", rm >= 2.0, f"{rm:.2f}x")
    assert not checks, f"shape checks failed: {checks}"
    return checks


def run_gaussian_table(device: str, size: int):
    return gaussian_table(device, size)


def report_gaussian(model, device: str, size: int, title: str):
    paper = paper_data.ALL_GAUSSIAN_TABLES[device][size]
    aligned = dict(model)
    if "OpenCL(+Tex)" in paper and "OpenCL(+Img)" in aligned:
        aligned["OpenCL(+Tex)"] = aligned["OpenCL(+Img)"]
    print()
    print(format_comparison_table(aligned, paper,
                                  paper_data.GAUSSIAN_MODE_ORDER,
                                  title=title))
    errs = relative_errors(aligned, paper,
                           paper_data.GAUSSIAN_MODE_ORDER)
    print(f"mean relative error vs paper: {np.mean(errs):.1%} "
          f"(n={len(errs)} cells)")

    failures = []

    def check(name, cond, detail=""):
        print(shape_check(name, cond, detail))
        if not cond:
            failures.append(name)

    check("OpenCV PPT=8 beats PPT=1",
          all(model["OpenCV: PPT=8"][m] < model["OpenCV: PPT=1"][m]
              for m in HANDLED))
    check("OpenCV varies per mode, generated constant",
          spread(model["OpenCV: PPT=8"]) > 1.2
          and spread(model["CUDA(Gen)"]) < 1.08)
    check("generated ~ OpenCV PPT=1",
          all(model["CUDA(Gen)"][m] < model["OpenCV: PPT=1"][m] * 1.2
              for m in HANDLED))
    check("scratchpad staging slows small windows",
          all(model["CUDA(+Smem)"][m] > model["CUDA(Gen)"][m]
              for m in HANDLED))
    check("OpenCL slower than CUDA",
          all(model["OpenCL(Gen)"][m] > model["CUDA(Gen)"][m]
              for m in HANDLED))
    assert not failures, f"shape checks failed: {failures}"
