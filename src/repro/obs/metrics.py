"""The unified metrics registry.

Before this module existed, each subsystem kept its own counter bag —
``CacheStats`` on the compilation cache, ``PoolStats`` on the buffer
arena, launch/fusion counts on ``GraphReport`` — with ad-hoc names and
no single place to read them.  Those dataclasses remain the live
counters (their memory layout and increment paths are unchanged), but
each now renders itself into the **one documented namespace** below via
a ``metrics()`` method, and a :class:`MetricsRegistry` aggregates any
number of live sources into a single snapshot that the trace exporters
embed next to the spans.

Canonical key schema (see docs/OBSERVABILITY.md for the full table):

=====================  ====================================================
prefix                 meaning
=====================  ====================================================
``cache.ir.*``         content-addressed artifact store (hits, misses,
                       disk_hits, stores, evictions, disk_writes,
                       hit_rate)
``cache.frontend.*``   pre-parse fingerprint memo (hits, misses, hit_rate)
``pool.*``             memory plan (naive_bytes, peak_bytes, allocs,
                       reuses); under serve, the worker arenas' allocs
``graph.*``            scheduler (launches, fused_away, cache_hits,
                       compile_wall_ms, execute_wall_ms, device_ms)
``serve.*``            request service (requests, batched, dedup_hits,
                       queue_depth, shed, completed, errors, timeouts,
                       cancelled, executions, drained, prepared_hits,
                       prepared_misses, prepared_evictions)
``tuner.*``            auto-tuner (lookups, hits, misses, trials, pruned,
                       sessions, records)
``native.*``           native JIT tier (compiles, artifact hits)
``*.hist.*``           flattened latency histograms
                       (:mod:`repro.obs.hist`): each histogram
                       ``<subsystem>.hist.<measurement>`` renders
                       ``.count/.sum/.min/.max/.p50/.p90/.p99`` keys —
                       e.g. ``serve.hist.request_ms.p99``.  Registered
                       as the ``"hist"`` source.
=====================  ====================================================

Counter *values* are plain ints/floats; rates are in ``[0, 1]``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Sequence

MetricSource = Callable[[], Dict[str, Any]]


class CounterGroup:
    """Thread-safe monotonic counters over names declared once in
    :mod:`repro.obs.schema`, rendered as ``<prefix>.<name>`` metrics."""

    def __init__(self, prefix: str, names: Sequence[str]) -> None:
        self.prefix = prefix
        self._lock = threading.Lock()
        self._values = dict.fromkeys(names, 0)

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._values[name] += by

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._values)

    def metrics(self) -> Dict[str, int]:
        return {f"{self.prefix}.{k}": v for k, v in self.snapshot().items()}


class MetricsRegistry:
    """Aggregates named metric sources into one snapshot.

    A *source* is any zero-argument callable returning a flat
    ``{key: number}`` dict in the canonical namespace — typically the
    bound ``metrics`` method of a live stats object, so a snapshot
    always reflects the current counter values without copying them on
    every increment.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: Dict[str, MetricSource] = {}
        self._counters: Dict[str, float] = {}

    # -- sources ------------------------------------------------------------

    def register_source(self, name: str, source: MetricSource) -> None:
        """Attach *source* under *name* (replacing any previous one)."""
        with self._lock:
            self._sources[name] = source

    def unregister_source(self, name: str) -> None:
        with self._lock:
            self._sources.pop(name, None)

    # -- ad-hoc counters ----------------------------------------------------

    def count(self, key: str, value: float = 1) -> None:
        """Increment a registry-owned counter (for call sites without a
        stats object of their own)."""
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    # -- snapshotting -------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """``{source_name: {key: value}}`` for every live source, plus
        registry-owned counters under ``"counters"`` (when any exist)."""
        with self._lock:
            sources = dict(self._sources)
            counters = dict(self._counters)
        out: Dict[str, Dict[str, Any]] = {}
        for name, source in sources.items():
            try:
                out[name] = dict(source())
            except Exception:    # noqa: BLE001 - a dead source must not
                continue         # poison the whole snapshot
        if counters:
            out["counters"] = counters
        return out

    def clear(self) -> None:
        with self._lock:
            self._sources.clear()
            self._counters.clear()


# --------------------------------------------------------------------------
# Process-wide default registry
# --------------------------------------------------------------------------

_registry: Optional[MetricsRegistry] = None
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry the exporters snapshot by default."""
    global _registry
    with _registry_lock:
        if _registry is None:
            _registry = MetricsRegistry()
        return _registry


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    """Replace (or with ``None``, reset) the process-wide registry."""
    global _registry
    with _registry_lock:
        _registry = registry
