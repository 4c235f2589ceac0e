"""The perf-regression sentinel: compare ``BENCH_*.json`` documents.

The committed baselines (``BENCH_native_graph.json``,
``BENCH_serve.json``, ``BENCH_pipeline_graph.json``) pin what the warm
paths cost when the PR that shipped them was merged.  This module
compares a freshly generated document against a committed one, field by
field, and reports **regressions** — the closing-the-loop step that
makes a silent warm-path slowdown impossible to merge: CI runs the
benchmarks, calls this comparison with generous noise thresholds, and
fails on any regression (``repro perf``).

What is compared:

* **headline fields** — every numeric key present in both documents.
  Direction is inferred from the key name (:func:`metric_direction`):
  ``*_ms``/``*_bytes``/``*_misses``/``*_allocs`` regress *upward*,
  ``*_rps``/``*_rate``/``*_hits``/``*over*`` regress *downward*;
  anything else is informational only (sizes, counts);
* **per-stage span totals** — ``stages.<span>.total_ms`` for spans in
  both documents, so "the headline survived but compile.lint doubled"
  is still caught.

A change only counts as a regression when it exceeds **both** gates:

* the *relative threshold* (``--threshold 0.25`` = 25 % worse), and
* the *noise floor* — an absolute delta (milliseconds for ``*_ms``
  keys) below which run-to-run jitter is indistinguishable from a real
  change, so a 0.3 ms → 0.5 ms stage never fails a build.

Documents must carry ``schema_version ==`` :data:`BENCH_SCHEMA_VERSION`
(benchmarks/common.py stamps it); a stale or missing version is a hard
failure, not a silent fuzzy match across incompatible formats.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Optional, Sequence

#: bumped when the BENCH_*.json document shape changes incompatibly;
#: stamped by benchmarks/common.write_bench_json and enforced here
BENCH_SCHEMA_VERSION = 2

#: the benchmarks with committed baselines, in comparison order
DEFAULT_BENCHMARKS = ("native_graph", "pipeline_graph", "serve",
                      "autotune")

LOWER_IS_BETTER = ("_ms", "_bytes", "_misses", "_allocs")
HIGHER_IS_BETTER = ("_rps", "_rate", "_hits", "_rps_warm")


class CompareError(ValueError):
    """A document that cannot be compared (unreadable, wrong schema)."""


def metric_direction(key: str) -> Optional[str]:
    """``"lower"``/``"higher"`` = which way is better, ``None`` =
    informational (never a regression)."""
    if key.endswith(LOWER_IS_BETTER):
        return "lower"
    if key.endswith(HIGHER_IS_BETTER) or "_over_" in key:
        return "higher"
    return None


@dataclasses.dataclass
class Entry:
    """One compared metric."""

    metric: str
    baseline: float
    current: float
    #: "ok" | "regressed" | "improved" | "info"
    status: str
    #: signed relative change, positive = current larger
    change: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "baseline": round(self.baseline, 6),
            "current": round(self.current, 6),
            "change_pct": round(self.change * 100.0, 2),
            "status": self.status,
        }


@dataclasses.dataclass
class BenchComparison:
    """The comparison of one benchmark document pair."""

    benchmark: str
    entries: List[Entry] = dataclasses.field(default_factory=list)
    #: schema/shape problems; any problem fails the comparison
    problems: List[str] = dataclasses.field(default_factory=list)

    @property
    def regressions(self) -> List[Entry]:
        return [e for e in self.entries if e.status == "regressed"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.problems

    def as_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "ok": self.ok,
            "problems": list(self.problems),
            "entries": [e.as_dict() for e in self.entries],
        }

    def to_text(self) -> str:
        lines = [f"== {self.benchmark}: "
                 f"{'ok' if self.ok else 'REGRESSED'} =="]
        for problem in self.problems:
            lines.append(f"  !! {problem}")
        marks = {"regressed": "!!", "improved": "++", "ok": "  ",
                 "info": "--"}
        for e in self.entries:
            if e.status == "info":
                continue
            lines.append(
                f"  {marks[e.status]} {e.metric:<44} "
                f"{e.baseline:>12.3f} -> {e.current:>12.3f}  "
                f"({e.change * 100.0:+7.1f}%)")
        return "\n".join(lines)


def _check_schema(doc: Any, label: str, problems: List[str]) -> bool:
    if not isinstance(doc, dict):
        problems.append(f"{label}: not a JSON object")
        return False
    version = doc.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        problems.append(
            f"{label}: schema_version {version!r} != "
            f"{BENCH_SCHEMA_VERSION} (regenerate with --json)")
        return False
    return True


def _compare_one(key: str, base: float, cur: float, direction: str,
                 threshold: float, noise_floor: float) -> Entry:
    if direction == "higher":
        # normalise: compare inverted so "regressed" always means the
        # current value moved the wrong way past both gates
        worse = cur < base
        rel = (cur - base) / base if base else 0.0
        delta = base - cur
        regressed = (worse and base > 0
                     and cur < base * (1.0 - threshold)
                     and delta > noise_floor)
        improved = base > 0 and cur > base * (1.0 + threshold) \
            and (cur - base) > noise_floor
    else:
        rel = (cur - base) / base if base else (1.0 if cur else 0.0)
        delta = cur - base
        regressed = cur > base * (1.0 + threshold) and delta > noise_floor
        improved = base > 0 and cur < base * (1.0 - threshold) \
            and (base - cur) > noise_floor
    status = ("regressed" if regressed
              else "improved" if improved else "ok")
    return Entry(metric=key, baseline=float(base), current=float(cur),
                 status=status, change=rel)


def compare_docs(baseline: Dict[str, Any], current: Dict[str, Any],
                 threshold: float = 0.25,
                 noise_floor_ms: float = 5.0,
                 stage_threshold: Optional[float] = None,
                 ) -> BenchComparison:
    """Compare two ``BENCH_*.json`` documents.

    *threshold* is the relative headline gate (0.25 = 25 % worse);
    *noise_floor_ms* the absolute-delta gate for ``*_ms`` metrics
    (non-ms metrics use a relative-only gate); *stage_threshold*
    defaults to the headline threshold.
    """
    name = (baseline.get("benchmark")
            if isinstance(baseline, dict) else None) or "?"
    cmp = BenchComparison(benchmark=str(name))
    if not _check_schema(baseline, "baseline", cmp.problems):
        return cmp
    if not _check_schema(current, "current", cmp.problems):
        return cmp
    if baseline.get("benchmark") != current.get("benchmark"):
        cmp.problems.append(
            f"benchmark mismatch: baseline "
            f"{baseline.get('benchmark')!r} vs current "
            f"{current.get('benchmark')!r}")
        return cmp
    if stage_threshold is None:
        stage_threshold = threshold

    base_head = baseline.get("headline") or {}
    cur_head = current.get("headline") or {}
    for key in sorted(base_head):
        base, cur = base_head[key], cur_head.get(key)
        if (isinstance(base, bool) or isinstance(cur, bool)
                or not isinstance(base, (int, float))
                or not isinstance(cur, (int, float))):
            continue
        direction = metric_direction(key)
        if direction is None:
            cmp.entries.append(Entry(key, float(base), float(cur),
                                     "info", 0.0))
            continue
        floor = noise_floor_ms if key.endswith("_ms") else 0.0
        cmp.entries.append(_compare_one(
            f"headline.{key}", base, cur, direction, threshold, floor))

    base_stages = baseline.get("stages") or {}
    cur_stages = current.get("stages") or {}
    for span in sorted(base_stages):
        if span not in cur_stages:
            continue
        base = base_stages[span].get("total_ms")
        cur = cur_stages[span].get("total_ms")
        if not isinstance(base, (int, float)) \
                or not isinstance(cur, (int, float)):
            continue
        cmp.entries.append(_compare_one(
            f"stages.{span}.total_ms", base, cur, "lower",
            stage_threshold, noise_floor_ms))
    return cmp


def load_bench(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CompareError(f"unreadable benchmark document "
                           f"{path}: {exc}") from None


def compare_files(baseline_path: str, current_path: str,
                  **kwargs: Any) -> BenchComparison:
    return compare_docs(load_bench(baseline_path),
                        load_bench(current_path), **kwargs)


def run_compare(baseline_dir: str, current_dir: str,
                names: Sequence[str] = DEFAULT_BENCHMARKS,
                threshold: float = 0.25,
                noise_floor_ms: float = 5.0,
                stage_threshold: Optional[float] = None,
                json_out: Optional[str] = None,
                allow_missing: bool = False) -> int:
    """Compare ``BENCH_<name>.json`` in *current_dir* against
    *baseline_dir* for every name; print a report; return the exit
    code (0 = no regressions).  With *json_out*, also write the full
    machine-readable report there."""
    comparisons: List[BenchComparison] = []
    failed = False
    for name in names:
        base_path = os.path.join(baseline_dir, f"BENCH_{name}.json")
        cur_path = os.path.join(current_dir, f"BENCH_{name}.json")
        missing = [p for p in (base_path, cur_path)
                   if not os.path.exists(p)]
        if missing:
            if allow_missing:
                print(f"== {name}: skipped (missing "
                      f"{', '.join(missing)}) ==")
                continue
            cmp = BenchComparison(benchmark=name, problems=[
                f"missing document(s): {', '.join(missing)}"])
            comparisons.append(cmp)
            print(cmp.to_text())
            failed = True
            continue
        try:
            cmp = compare_files(base_path, cur_path,
                                threshold=threshold,
                                noise_floor_ms=noise_floor_ms,
                                stage_threshold=stage_threshold)
        except CompareError as exc:
            cmp = BenchComparison(benchmark=name, problems=[str(exc)])
        comparisons.append(cmp)
        print(cmp.to_text())
        if not cmp.ok:
            failed = True
    if json_out:
        report = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "threshold": threshold,
            "noise_floor_ms": noise_floor_ms,
            "ok": not failed,
            "comparisons": [c.as_dict() for c in comparisons],
        }
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {json_out}")
    print("perf sentinel: " + ("ok" if not failed else "REGRESSED"))
    return 1 if failed else 0
