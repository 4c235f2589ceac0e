"""Schemas: the compile stage-timings contract and the trace-export shape.

Two contracts live here so every producer and consumer shares one
definition:

* **Stage timings** — ``CompiledKernel.stage_timings`` carries one key per
  pipeline stage (:data:`STAGE_KEYS`) plus ``total_ms``, on **every**
  compile.  Stages a path skipped (codegen on a cache hit, cache lookup
  without a cache) are present as ``0.0``.  Historically the cache-hit
  and fresh-compile paths emitted disjoint key sets, so consumers that
  summed stage keys against ``total_ms`` silently disagreed between the
  two paths — :func:`normalize_stage_timings` is what makes that
  impossible now, and a differential regression test pins it.

* **Chrome trace** — :func:`validate_chrome_trace` checks an exported
  document well-formedly references parents, nests child inside parent
  intervals and keeps per-thread spans strictly stack-like.  CI runs it
  over ``repro trace`` output for a builtin filter and a graph example.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

#: Every per-stage key of one compile, in pipeline order.  The mapping
#: value is the span name the stage is recorded under — stage timings
#: are views over those spans.
STAGE_SPANS: Dict[str, str] = {
    "frontend_ms": "compile.frontend",
    "cache_lookup_ms": "compile.cache_lookup",
    "codegen_provisional_ms": "compile.codegen_provisional",
    "resources_ms": "compile.resources",
    "select_ms": "compile.select",
    "codegen_final_ms": "compile.codegen_final",
    "store_ms": "compile.store",
    "lint_ms": "compile.lint",
}

STAGE_KEYS = tuple(STAGE_SPANS)

#: The complete key set of ``CompiledKernel.stage_timings``.
TIMING_KEYS = STAGE_KEYS + ("total_ms",)

#: Span names the native graph tier emits
#: (:mod:`repro.runtime.native_graph`): ``native.compile`` wraps artifact
#: resolution (workdir probe, artifact-store fetch or a fresh C compile
#: — its ``origin`` attr says which) and ``native.exec`` wraps one
#: compiled segment's execution (attrs: ``segment``, ``nodes``).
NATIVE_SPANS = ("native.compile", "native.exec")

#: Span names the serve tier emits (:mod:`repro.serve`):
#: ``serve.request`` wraps one HTTP request in its handler thread
#: (attrs: ``path``, ``http_status``, ``fingerprint``); ``serve.plan``
#: and ``serve.exec`` wrap planning and execution of one deduplicated
#: request group in a worker thread (attrs: ``fingerprint``,
#: ``group``).  The worker spans are deliberately top-level rather than
#: children of ``serve.request`` — a waiter may time out (closing its
#: request span) while the shared execution continues, and a child
#: outliving its parent would violate the containment rule
#: :func:`validate_chrome_trace` enforces.  Correlate by the
#: ``fingerprint`` attr instead.
SERVE_SPANS = ("serve.request", "serve.plan", "serve.exec")

#: The ``serve.*`` counters (a :class:`~repro.obs.metrics.CounterGroup`).
#: ``prepared_hits``/``prepared_misses`` count executions that reused an
#: idle prepared graph or had to prepare one; ``prepared_evictions``
#: counts idle instances dropped by the LRU bound.
SERVE_COUNTERS = ("requests", "batched", "dedup_hits", "shed",
                  "completed", "errors", "timeouts", "cancelled",
                  "executions", "drained", "prepared_hits",
                  "prepared_misses", "prepared_evictions")

#: The ``tuner.*`` counters (``repro.mapping.tuner.TUNER_STATS``):
#: ``lookups``/``hits``/``misses`` count tuned-database consultations by
#: the compile driver; ``trials`` counts configurations actually
#: measured, ``pruned`` candidates skipped on the occupancy model's
#: word, ``sessions`` completed ``tune_kernel`` runs and ``records``
#: winners written to a database.
TUNER_COUNTERS = ("lookups", "hits", "misses", "trials", "pruned",
                  "sessions", "records")

#: The serve tier's histograms, registered when a service starts: end to
#: end and queueing, then one per execution step of a request group —
#: decode → plan (structure lookup, planning on a miss) → prepare
#: (fuse/compile/prove on a miss, pixel load on a hit) → exec → encode.
SERVE_HISTOGRAMS = tuple(
    f"serve.hist.{name}" for name in (
        "request_ms", "queue_wait_ms", "batch_size", "decode_ms",
        "plan_ms", "prepare_ms", "exec_ms", "encode_ms"))

#: Span names the abstract interpreter emits (:mod:`repro.lint.absint`
#: and :mod:`repro.lint.footprint`): ``absint.fixpoint`` wraps one
#: fixpoint run over a kernel CFG (attrs: ``kernel``) and
#: ``absint.footprint`` wraps the derived access-footprint computation.
ABSINT_SPANS = ("absint.fixpoint", "absint.footprint")

#: Span names the auto-tuner emits (:mod:`repro.mapping.tuner` and the
#: compile driver's tuned-database consultation, docs/TUNING.md):
#: ``tune.search`` wraps one :func:`~repro.mapping.tuner.tune_kernel`
#: session (attrs: ``kernel``, ``engine``, ``signal``, ``budget``,
#: ``trials``, ``best``), ``tune.trial`` one measured configuration
#: (attrs: ``block``, ``signal``, ``score_ms``), and ``tune.lookup``
#: one tuned-database consultation inside a compile (attrs: ``kernel``,
#: ``engine``, ``hit``).
TUNE_SPANS = ("tune.search", "tune.trial", "tune.lookup")

#: Every metrics-registry key namespace a snapshot may carry
#: (docs/OBSERVABILITY.md).  Keys are ``<namespace>.<rest>``; histogram
#: keys additionally carry ``.hist.`` as their second dotted component
#: (``serve.hist.request_ms.p99``).  ``scripts/validate_trace.py``
#: rejects embedded metrics snapshots whose keys fall outside this
#: table — an undocumented metric cannot ship silently.
METRIC_NAMESPACES = ("cache", "pool", "graph", "serve", "native",
                     "lint", "tuner")


def validate_metric_keys(metrics: Mapping[str, Any]) -> List[str]:
    """Return a list of problems with a flat metrics mapping (empty =
    valid): every key must start with a documented namespace prefix,
    and ``*.hist.*`` keys must end in a known statistic suffix."""
    problems: List[str] = []
    hist_stats = ("count", "sum", "min", "max", "p50", "p90", "p99")
    for key in metrics:
        parts = key.split(".")
        if parts[0] not in METRIC_NAMESPACES:
            problems.append(
                f"metric {key!r} outside documented namespaces "
                f"{METRIC_NAMESPACES}")
            continue
        if len(parts) > 1 and parts[1] == "hist" \
                and parts[-1] not in hist_stats:
            problems.append(
                f"histogram metric {key!r} has unknown statistic "
                f"{parts[-1]!r} (expected one of {hist_stats})")
    return problems


def normalize_stage_timings(timings: Mapping[str, float]
                            ) -> Dict[str, float]:
    """Project *timings* onto the full schema: every stage key present,
    skipped stages as ``0.0``, key order fixed to pipeline order."""
    out = {key: float(timings.get(key, 0.0)) for key in STAGE_KEYS}
    out["total_ms"] = float(timings.get("total_ms", 0.0))
    return out


def stage_sum_ms(timings: Mapping[str, float]) -> float:
    """Sum of the per-stage keys (excludes ``total_ms``)."""
    return sum(float(timings.get(key, 0.0)) for key in STAGE_KEYS)


# --------------------------------------------------------------------------
# Chrome-trace document validation
# --------------------------------------------------------------------------

_REQUIRED_EVENT_FIELDS = ("name", "ph", "ts", "pid", "tid")

#: Interval containment tolerance in microseconds — parent and child end
#: timestamps are captured by separate perf_counter reads.
_EPSILON_US = 50.0


def validate_chrome_trace(doc: Any) -> List[str]:
    """Return a list of problems with *doc* (empty = valid).

    Checks structural shape (``traceEvents`` with the JSON-event-format
    required fields), span-id uniqueness, parent references, parent
    interval containment, and per-thread stack discipline (two spans on
    one thread either nest or are disjoint — an interleaved overlap
    means the per-thread stacks were corrupted).
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]

    spans: Dict[int, Dict[str, Any]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        missing = [f for f in _REQUIRED_EVENT_FIELDS if f not in ev]
        if missing:
            problems.append(f"event {i} missing fields {missing}")
            continue
        if ev["ph"] == "M":
            continue                      # metadata (thread names)
        if ev["ph"] != "X":
            problems.append(f"event {i} has unsupported ph {ev['ph']!r}")
            continue
        if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
            problems.append(f"event {i} ({ev['name']}) has bad dur")
            continue
        args = ev.get("args", {})
        sid = args.get("span_id")
        if not isinstance(sid, int):
            problems.append(f"event {i} ({ev['name']}) lacks args.span_id")
            continue
        if sid in spans:
            problems.append(f"duplicate span_id {sid}")
            continue
        spans[sid] = ev

    for sid, ev in spans.items():
        parent_id = ev.get("args", {}).get("parent_id")
        if parent_id is None:
            continue
        parent = spans.get(parent_id)
        if parent is None:
            problems.append(
                f"span {sid} ({ev['name']}) references missing parent "
                f"{parent_id}")
            continue
        if ev["ts"] < parent["ts"] - _EPSILON_US or \
                ev["ts"] + ev["dur"] > \
                parent["ts"] + parent["dur"] + _EPSILON_US:
            problems.append(
                f"span {sid} ({ev['name']}) escapes parent interval "
                f"{parent_id} ({parent['name']})")

    by_tid: Dict[Any, List[Dict[str, Any]]] = {}
    for ev in spans.values():
        by_tid.setdefault(ev["tid"], []).append(ev)
    for tid, evs in by_tid.items():
        evs.sort(key=lambda e: (e["ts"], e["args"]["span_id"]))
        open_stack: List[Dict[str, Any]] = []
        for ev in evs:
            while open_stack and \
                    open_stack[-1]["ts"] + open_stack[-1]["dur"] \
                    <= ev["ts"] + _EPSILON_US:
                open_stack.pop()
            if open_stack:
                top = open_stack[-1]
                if ev["ts"] + ev["dur"] > \
                        top["ts"] + top["dur"] + _EPSILON_US:
                    problems.append(
                        f"thread {tid}: span "
                        f"{ev['args']['span_id']} ({ev['name']}) "
                        f"interleaves with {top['args']['span_id']} "
                        f"({top['name']}) instead of nesting")
            open_stack.append(ev)
    return problems
