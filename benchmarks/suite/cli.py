"""Command line of the benchmark of record.

::

    PYTHONPATH=src python -m benchmarks.suite --seed 1
    python3 benchmarks/suite/run.py --workload serve_small --seed 3 \\
        --seconds 30 --trace 0

Runs the chosen workloads (all four by default), prints every metric
by name with its unit, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace`` (or
``--trace 1``) reports the per-layer metrics instead of the end-to-end
ones.  ``--repeat 2`` runs two full sets and prints, per workload and
end-to-end metric, both values and their relative gap against the
metric's bound.  ``--compare A.json B.json`` does the same for two
saved results, refusing when their stamps differ in anything but the
commit.

Exit status: 0 when every run is valid and correct (and every repeat
gap is within its bound), 1 otherwise, 2 when the library cannot be
found or results cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from typing import Any, Dict, List, Optional

from . import sandbox
from .workloads import WORKLOADS


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="benchmarks.suite",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed phase per run (default: BENCHMARK.json "
                        "run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="report per-layer metrics from a traced replay")
    p.add_argument("--repeat", type=int, default=1,
                   help="run this many full sets and compare them")
    p.add_argument("--json", dest="json_out", default=None,
                   help="also write the full results here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two --json result files and exit")
    return p.parse_args(argv)


def _fmt(value: float) -> str:
    return "nan" if value != value else f"{value:.6g}"


def _json_number(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def _strict(obj: Any) -> Any:
    """*obj* with every non-finite float as ``None``, so it dumps as
    strict JSON (``json.dump`` would write a bare ``NaN``)."""
    if isinstance(obj, float):
        return _json_number(obj)
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _print_run(run, units: Dict[str, str]) -> None:
    print(f"# {run.workload} seed={run.seed} trace={int(run.trace)} "
          f"attempted={run.attempted} failed={run.failed} "
          f"correct={str(run.correct).lower()} "
          f"valid={str(run.valid).lower()}")
    for name, value in run.metrics.items():
        print(f"{run.workload:<13} {name:<32} {_fmt(value):>14} "
              f"{units[name]}")
    for name, value in sorted(run.info.items()):
        print(f"{run.workload:<13} info {name:<27} {_fmt(value):>14}")
    for problem in run.problems:
        print(f"{run.workload:<13} INVALID {problem}", file=sys.stderr)


def gap_table(set_a: Dict[str, Dict[str, float]],
              set_b: Dict[str, Dict[str, float]],
              spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both sets:
    both values and their relative gap against the metric's bound."""
    rows = []
    for workload in set_a:
        if workload not in set_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = set_a[workload].get(name)
            b = set_b[workload].get(name)
            if a is None or b is None:
                continue
            gap = abs(b - a) / abs(a) if a else float("inf")
            rows.append({"workload": workload, "metric": name, "a": a,
                         "b": b, "gap": gap, "bound": metric["bound"],
                         "ok": gap <= metric["bound"]})
    return rows


def _print_gaps(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':<13} {'metric':<18} {'set A':>12} {'set B':>12} "
          f"{'gap':>8} {'bound':>6}")
    for r in rows:
        print(f"{r['workload']:<13} {r['metric']:<18} {_fmt(r['a']):>12} "
              f"{_fmt(r['b']):>12} {r['gap']:>7.1%} {r['bound']:>6.0%}"
              f"{'' if r['ok'] else '  EXCEEDS'}")


def _compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    if not sandbox.comparable(docs[0]["stamp"], docs[1]["stamp"]):
        print("refusing to compare: stamps differ in more than the "
              f"commit\n  A: {docs[0]['stamp']}\n  B: {docs[1]['stamp']}",
              file=sys.stderr)
        return 2
    sets = [{run["workload"]: run["metrics"] for run in doc["sets"][0]
             if not run["trace"]} for doc in docs]
    rows = gap_table(sets[0], sets[1], spec)
    _print_gaps(rows)
    return 0 if all(r["ok"] for r in rows) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (sandbox.SRC / "repro").is_dir():
        print(f"error: the library is not at {sandbox.SRC / 'repro'}",
              file=sys.stderr)
        return 2
    spec = sandbox.load_spec()
    if args.compare:
        return _compare(args.compare[0], args.compare[1], spec)
    seconds = args.seconds or float(spec["run_seconds"])
    names = args.workload or list(WORKLOADS)
    trace = bool(args.trace)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    # a terminated run still stops its children and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = sandbox.Workdir()
    try:
        sandbox.isolate(work)
        from . import harness

        stamp = sandbox.stamp(args.seed)
        sets = []
        for _ in range(max(1, args.repeat)):
            runs = []
            for name in names:
                run = harness.run_workload(name, args.seed, seconds,
                                           trace=trace, work=work)
                _print_run(run, units)
                runs.append(run)
            sets.append(runs)
    finally:
        work.close()

    ok = all(r.valid and r.correct for runs in sets for r in runs)
    rows: List[Dict[str, Any]] = []
    if len(sets) > 1 and not trace:
        as_maps = [{r.workload: r.metrics for r in runs} for runs in sets]
        rows = [row for later in as_maps[1:]
                for row in gap_table(as_maps[0], later, spec)]
        _print_gaps(rows)
        ok = ok and all(r["ok"] for r in rows)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(_strict({"stamp": stamp,
                               "sets": [[r.as_dict() for r in runs]
                                        for runs in sets],
                               "repeat": rows}),
                      fh, indent=1, allow_nan=False)

    last = sets[-1]
    if len(last) == 1:
        metrics = {k: {"value": _json_number(v), "unit": units[k]}
                   for k, v in last[0].metrics.items()}
    else:
        metrics = {f"{r.workload}.{k}": {"value": _json_number(v),
                                         "unit": units[k]}
                   for r in last for k, v in r.metrics.items()}
    print(json.dumps({
        "correct": all(r.correct for r in last),
        "attempted": sum(r.attempted for r in last),
        "failed": sum(r.failed for r in last),
        "metrics": metrics,
    }, allow_nan=False))
    return 0 if ok else 1
