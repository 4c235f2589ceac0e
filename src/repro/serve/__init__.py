"""``repro serve`` — the persistent compile-and-execute service.

Per-call initialization (process startup, cache resolution, buffer
allocation) dominates the latency of one-shot CLI invocations — exactly
the overhead OpenCLIPER identifies as the bottleneck in medical-imaging
deployments.  This package keeps everything hot in one long-running
process:

* :mod:`repro.serve.protocol` — the JSON request/response wire format,
  image payload encoding and the request fingerprint used for dedup;
* :mod:`repro.serve.planner` — turns a request (named pipeline or
  inline kernel chain) into a :class:`~repro.graph.PipelineGraph`;
* :mod:`repro.serve.service` — the request queue: fingerprint dedup
  at intake, bounded queue with load shedding, per-request
  timeouts, a worker pool sharing one process-wide
  :class:`~repro.cache.CompilationCache` and per-worker
  :class:`~repro.graph.pool.BufferPool` arenas;
* :mod:`repro.serve.server` — the stdlib-only threading HTTP front door
  (``POST /v1/execute``, ``GET /metrics``, ``GET /healthz``) with
  graceful SIGTERM drain;
* :mod:`repro.serve.client` — the stdlib HTTP client used by the
  benchmark, the tests and downstream applications.

See docs/SERVING.md for the protocol and the operational semantics.
"""

from .client import (                            # noqa: F401
    RequestTimeout,
    ServeClient,
    ServeError,
    ServerBusy,
    ServerDraining,
)
from .planner import PIPELINES, PlanError, plan_request  # noqa: F401
from .protocol import (                          # noqa: F401
    PROTOCOL_VERSION,
    ProtocolError,
    decode_image,
    encode_image,
    request_fingerprint,
)
from .server import create_server, run_server    # noqa: F401
from .service import ServeConfig, ServeService  # noqa: F401
