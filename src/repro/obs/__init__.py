"""Structured tracing and metrics for the whole runtime
(docs/OBSERVABILITY.md).

* :mod:`repro.obs.trace` — hierarchical spans with per-thread stacks
  stitched across thread-pool boundaries by parent id;
* :mod:`repro.obs.metrics` — the unified counter registry the cache,
  buffer pool and scheduler export into;
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON, structured JSON
  and text renderings;
* :mod:`repro.obs.schema` — the stage-timings contract shared by the
  fresh-compile and cache-hit paths, and the trace-document validator;
* :mod:`repro.obs.hist` — thread-safe mergeable log-bucketed latency
  histograms (the ``*.hist.*`` metric namespace);
* :mod:`repro.obs.log` — structured JSON request logging keyed by
  ``request_id``;
* :mod:`repro.obs.prom` — Prometheus text exposition of the registry;
* :mod:`repro.obs.compare` — the BENCH_*.json perf-regression sentinel.
"""

from .compare import (                             # noqa: F401
    BENCH_SCHEMA_VERSION,
    BenchComparison,
    compare_docs,
    compare_files,
    run_compare,
)
from .export import (                              # noqa: F401
    chrome_trace,
    json_trace,
    render,
    stage_totals,
    text_summary,
    write_chrome_trace,
)
from .hist import (                                # noqa: F401
    Histogram,
    HistogramSet,
    get_histograms,
    observe,
    percentiles,
    set_histograms,
)
from .log import (                                 # noqa: F401
    EVENTS,
    EventLog,
    log_event,
    logging_to,
    new_request_id,
)
from .metrics import (                             # noqa: F401
    CounterGroup,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .prom import render_prometheus                # noqa: F401
from .schema import (                              # noqa: F401
    METRIC_NAMESPACES,
    STAGE_KEYS,
    STAGE_SPANS,
    TIMING_KEYS,
    TUNE_SPANS,
    normalize_stage_timings,
    stage_sum_ms,
    validate_chrome_trace,
    validate_metric_keys,
)
from .trace import (                               # noqa: F401
    Span,
    Tracer,
    child_of,
    current_id,
    disable,
    enable,
    enabled,
    get_tracer,
    span,
    tracing,
)
