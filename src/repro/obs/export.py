"""Trace exporters: Chrome-trace JSON, structured JSON, text summary.

The Chrome format is the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
using complete (``"X"``) events, loadable directly in ``chrome://tracing``
or `Perfetto <https://ui.perfetto.dev>`_.  Span/parent ids travel in
``args`` so tooling (and :func:`repro.obs.schema.validate_chrome_trace`)
can reconstruct the hierarchy exactly; thread idents are remapped to
small stable tids in first-appearance order so two runs of the same
serial workload export byte-comparable structure.

Every exporter accepts the metrics snapshot alongside the spans: Chrome
documents carry it under ``otherData.metrics``, the JSON exporter under
``"metrics"``, and the text summary prints it after the span tree.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..atomic import write_atomic
from .metrics import get_registry
from .trace import Span, Tracer


def _metrics_snapshot(metrics: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    if metrics is not None:
        return metrics
    return get_registry().snapshot()


def _tid_mapping(spans: List[Span]) -> Dict[int, int]:
    mapping: Dict[int, int] = {}
    for sp in spans:
        if sp.thread_id not in mapping:
            mapping[sp.thread_id] = len(mapping)
    return mapping


def chrome_trace(tracer: Tracer,
                 metrics: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """Render *tracer*'s spans as a Chrome-trace document (a dict)."""
    spans = tracer.spans()
    tids = _tid_mapping(spans)
    events: List[Dict[str, Any]] = []
    for ident, tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "ts": 0,
            "args": {"name": "main" if tid == 0 else f"worker-{tid}"},
        })
    for sp in spans:
        args: Dict[str, Any] = {"span_id": sp.span_id}
        if sp.parent_id is not None:
            args["parent_id"] = sp.parent_id
        for key, value in sp.attrs.items():
            if isinstance(value, (str, int, float, bool)) or value is None:
                args[key] = value
            else:
                args[key] = str(value)
        events.append({
            "name": sp.name,
            "cat": sp.name.split(".", 1)[0],
            "ph": "X",
            "ts": round(sp.start_us, 3),
            "dur": round(sp.duration_us, 3),
            "pid": 1,
            "tid": tids[sp.thread_id],
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tracer": tracer.name,
            "metrics": _metrics_snapshot(metrics),
        },
    }


def json_trace(tracer: Tracer,
               metrics: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Structured dump: raw spans plus the metrics snapshot."""
    return {
        "tracer": tracer.name,
        "spans": [sp.as_dict() for sp in tracer.spans()],
        "metrics": _metrics_snapshot(metrics),
    }


def text_summary(tracer: Tracer,
                 metrics: Optional[Dict[str, Any]] = None) -> str:
    """Indented span tree with durations, then the metrics snapshot."""
    spans = tracer.spans()
    children: Dict[Optional[int], List[Span]] = {}
    by_id = {sp.span_id: sp for sp in spans}
    for sp in spans:
        parent = sp.parent_id if sp.parent_id in by_id else None
        children.setdefault(parent, []).append(sp)

    lines: List[str] = [f"trace {tracer.name!r}: {len(spans)} spans"]

    def walk(parent: Optional[int], depth: int) -> None:
        for sp in children.get(parent, ()):
            attrs = " ".join(f"{k}={v}" for k, v in sp.attrs.items())
            lines.append(f"{'  ' * (depth + 1)}{sp.name:<32} "
                         f"{sp.duration_ms:>9.3f} ms"
                         + (f"   [{attrs}]" if attrs else ""))
            walk(sp.span_id, depth + 1)

    walk(None, 0)
    snapshot = _metrics_snapshot(metrics)
    if snapshot:
        lines.append("metrics:")
        for source in sorted(snapshot):
            lines.append(f"  {source}:")
            for key in sorted(snapshot[source]):
                value = snapshot[source][key]
                shown = f"{value:.4f}" if isinstance(value, float) \
                    else str(value)
                lines.append(f"    {key:<28} {shown}")
    return "\n".join(lines)


def render(tracer: Tracer, fmt: str = "chrome",
           metrics: Optional[Dict[str, Any]] = None) -> str:
    """Render *tracer* in one of ``chrome`` / ``json`` / ``text``."""
    if fmt == "chrome":
        return json.dumps(chrome_trace(tracer, metrics), indent=1)
    if fmt == "json":
        return json.dumps(json_trace(tracer, metrics), indent=1)
    if fmt == "text":
        return text_summary(tracer, metrics)
    raise ValueError(f"unknown trace format {fmt!r} "
                     "(expected chrome, json or text)")


def write_chrome_trace(tracer: Tracer, path: str,
                       metrics: Optional[Dict[str, Any]] = None) -> str:
    """Atomically write the Chrome-trace document to *path*."""
    write_atomic(path, json.dumps(chrome_trace(tracer, metrics), indent=1))
    return path


def stage_totals(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Aggregate span durations by name: ``{name: {count, total_ms,
    mean_ms}}`` — the per-stage breakdown benchmark entries embed."""
    agg: Dict[str, Dict[str, float]] = {}
    for sp in tracer.spans():
        entry = agg.setdefault(sp.name, {"count": 0, "total_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += sp.duration_ms
    for entry in agg.values():
        entry["mean_ms"] = entry["total_ms"] / entry["count"]
        entry["total_ms"] = round(entry["total_ms"], 4)
        entry["mean_ms"] = round(entry["mean_ms"], 4)
    return agg
