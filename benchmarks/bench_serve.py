"""Benchmark the ``repro serve`` service: cold vs warm latency, dedup.

The service's reason to exist is amortisation: the first request pays
frontend parsing, code generation and buffer-arena growth; every
subsequent request of the same pipeline shape rides the shared
:class:`~repro.cache.CompilationCache` and a warm per-worker
:class:`~repro.graph.pool.BufferPool`.  This benchmark measures exactly
that contract over the real HTTP path:

* **cold** — the first request against a fresh server (includes every
  compile);
* **warm** — N requests with *distinct* image payloads (distinct
  fingerprints, so each one executes — no dedup shortcut), reported as
  p50/p99 and requests/second, plus the server's median
  ``serve.hist.prepare_ms`` (~0 once a prepared graph is reused) and
  ``serve.hist.exec_ms``.  The ``/metrics`` deltas across the warm
  phase must show **zero cache misses** (no compiler invocations) and
  **zero arena allocations** — violations fail the run;
* **dedup** — a concurrent burst of identical requests; the dedup rate
  is ``serve.dedup_hits / burst`` (all but one answered without an
  execution of their own).

By default an in-process server on an ephemeral port is booted (fresh
cache, deterministic cold phase); ``--host``/``--port`` target an
already-running server instead (the CI serve job boots one with the
CLI and points this benchmark at it — there the cold number is only
meaningful if the server is freshly started).

``--json`` writes ``BENCH_serve.json`` via the shared
``repro-bench-v1`` schema helper.
"""

from __future__ import annotations

import argparse
import statistics
import threading
import time

import numpy as np


def _boot_inprocess(workers: int, engine: str):
    import os
    import tempfile

    from repro.cache import CompilationCache
    from repro.serve.server import create_server
    from repro.serve.service import ServeConfig

    # a fresh native workdir so the cold request really is cold — the
    # default tempdir location survives across benchmark invocations
    # and would hand the "first" compile a materialised .so
    os.environ["REPRO_NATIVE_DIR"] = tempfile.mkdtemp(
        prefix="bench_serve_native_")

    config = ServeConfig(workers=workers, engine=engine)
    server = create_server(port=0, config=config,
                           cache=CompilationCache())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]

    def shutdown():
        server.service.drain(timeout=10.0)
        server.shutdown()
        server.server_close()

    return host, port, shutdown


def _frames(count: int, size: int, seed: int = 11):
    """Distinct frames -> distinct fingerprints -> every request
    executes (the warm numbers measure execution, not dedup)."""
    rng = np.random.default_rng(seed)
    return [rng.random((size, size), dtype=np.float32)
            for _ in range(count)]


def _metric(snapshot, source: str, key: str) -> float:
    return float(snapshot.get(source, {}).get(key, 0))


def run(host=None, port=None, size=64, warm_requests=40, burst=8,
        workers=2, engine="sim", pipeline="edge"):
    from repro.serve.client import ServeClient

    shutdown = None
    if host is None:
        host, port, shutdown = _boot_inprocess(workers, engine)
    client = ServeClient(host, port, timeout=120.0)
    client.wait_ready(timeout=15.0)
    try:
        return _run(client, size, warm_requests, burst, pipeline)
    finally:
        if shutdown is not None:
            shutdown()


def _run(client, size, warm_requests, burst, pipeline):
    frames = _frames(warm_requests + 1, size)

    # -- cold: the first request pays every compile ---------------------
    t0 = time.perf_counter()
    cold_result = client.execute(frames[0], pipeline=pipeline)
    cold_ms = (time.perf_counter() - t0) * 1e3

    # -- warm-up sweep so every worker's arena has grown ----------------
    warmup = _frames(4, size, seed=977)
    threads = [threading.Thread(
        target=client.execute, args=(frame,),
        kwargs={"pipeline": pipeline}) for frame in warmup]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    before = client.metrics()

    # -- warm: distinct payloads, sequential, per-request latency -------
    latencies = []
    for frame in frames[1:]:
        t0 = time.perf_counter()
        client.execute(frame, pipeline=pipeline)
        latencies.append((time.perf_counter() - t0) * 1e3)

    after = client.metrics()
    # the serve step histograms cover every request so far; the warm
    # phase is most of them, so their medians are warm figures
    warm_prepare_p50 = _metric(after, "hist", "serve.hist.prepare_ms.p50")
    warm_exec_p50 = _metric(after, "hist", "serve.hist.exec_ms.p50")
    warm_misses = (_metric(after, "cache", "cache.ir.misses")
                   - _metric(before, "cache", "cache.ir.misses"))
    warm_allocs = (_metric(after, "pool", "pool.allocs")
                   - _metric(before, "pool", "pool.allocs"))

    # -- dedup: identical concurrent burst ------------------------------
    frame = _frames(1, size, seed=4242)[0]
    results = [None] * burst
    errors = []

    def fire(i):
        try:
            results[i] = client.execute(frame, pipeline=pipeline,
                                        timeout_ms=60000)
        except Exception as exc:    # noqa: BLE001 - report, don't hang
            errors.append(exc)

    threads = [threading.Thread(target=fire, args=(i,))
               for i in range(burst)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    burst_wall_ms = (time.perf_counter() - t0) * 1e3
    if errors:
        raise RuntimeError(f"dedup burst failed: {errors[0]}")
    final = client.metrics()
    dedup_hits = (_metric(final, "serve", "serve.dedup_hits")
                  - _metric(after, "serve", "serve.dedup_hits"))

    # quantiles through the shared histogram estimator, so the committed
    # baseline numbers and the live serve.hist.request_ms metrics are
    # computed by the same code (repro.obs.hist)
    from repro.obs.hist import percentiles

    pct = percentiles(latencies)
    warm_p50, warm_p99 = pct["p50"], pct["p99"]
    warm_mean_s = statistics.fmean(latencies) / 1e3
    headline = {
        "cold_ms": round(cold_ms, 3),
        "warm_p50_ms": round(warm_p50, 3),
        "warm_p99_ms": round(warm_p99, 3),
        "warm_rps": round(1.0 / warm_mean_s, 1),
        "warm_prepare_p50_ms": round(warm_prepare_p50, 3),
        "warm_exec_p50_ms": round(warm_exec_p50, 3),
        "cold_over_warm_p50": round(cold_ms / warm_p50, 2),
        "warm_cache_misses": warm_misses,
        "warm_pool_allocs": warm_allocs,
        "dedup_burst": burst,
        "dedup_hits": dedup_hits,
        "dedup_rate": round(dedup_hits / burst, 3),
        "dedup_burst_wall_ms": round(burst_wall_ms, 3),
        "warm_requests": len(latencies),
        "image_size": size,
        "engine": results[0].meta.get("engine", "?"),
    }
    return headline


def report(headline) -> None:
    print(f"cold first request   {headline['cold_ms']:>9.2f} ms")
    print(f"warm p50             {headline['warm_p50_ms']:>9.2f} ms"
          f"   ({headline['cold_over_warm_p50']:.1f}x faster than cold)")
    print(f"warm p99             {headline['warm_p99_ms']:>9.2f} ms")
    print(f"warm throughput      {headline['warm_rps']:>9.1f} req/s")
    print(f"warm prepare p50     {headline['warm_prepare_p50_ms']:>9.3f} ms")
    print(f"warm exec p50        {headline['warm_exec_p50_ms']:>9.3f} ms")
    print(f"warm cache misses    {headline['warm_cache_misses']:>9.0f}")
    print(f"warm arena allocs    {headline['warm_pool_allocs']:>9.0f}")
    print(f"dedup                {headline['dedup_hits']:.0f}/"
          f"{headline['dedup_burst']} requests answered by one "
          f"execution (rate {headline['dedup_rate']:.2f})")

    # the serving contract, enforced where it is measured: the warm
    # path must never invoke the compiler or grow an arena, and a
    # concurrent identical burst must coalesce (the *exactly one
    # execution* version of this claim is pinned in tests/test_serve.py
    # by holding the worker; over a real socket a copy that arrives
    # after the execution finished runs again, so only require that
    # dedup happened)
    assert headline["warm_cache_misses"] == 0, \
        f"warm path compiled: {headline['warm_cache_misses']} misses"
    assert headline["warm_pool_allocs"] == 0, \
        f"warm path allocated: {headline['warm_pool_allocs']} arenas"
    assert headline["dedup_hits"] > 0, \
        "identical concurrent burst produced no dedup at all"


def main():
    try:
        from .common import run_traced, write_bench_json
    except ImportError:        # run directly: benchmarks/ is sys.path[0]
        from common import run_traced, write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small frames + few requests (CI)")
    parser.add_argument("--host", default=None,
                        help="target an already-running server instead "
                             "of booting one in-process")
    parser.add_argument("--port", type=int, default=8077)
    parser.add_argument("--size", type=int, default=None,
                        help="square frame edge (default 64, smoke 32)")
    parser.add_argument("--requests", type=int, default=None,
                        help="warm-phase request count "
                             "(default 40, smoke 10)")
    parser.add_argument("--workers", type=int, default=2,
                        help="in-process server worker threads")
    parser.add_argument("--engine", choices=["sim", "native", "auto"],
                        default="auto",
                        help="in-process server engine (auto is the "
                             "serve default: native when a C compiler "
                             "is on PATH)")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_serve.json")
    args = parser.parse_args()

    size = args.size or (16 if args.smoke else 32)
    requests = args.requests or (10 if args.smoke else 40)
    # run_traced collects the server-side spans too when the server is
    # in-process (serve.plan / serve.exec / compile.* land in stages);
    # against a remote server only the client-side wall times remain
    headline, stages = run_traced(run,
                                  host=args.host,
                                  port=args.port,
                                  size=size,
                                  warm_requests=requests,
                                  burst=6 if args.smoke else 8,
                                  workers=args.workers,
                                  engine=args.engine)
    report(headline)
    if args.json:
        path = write_bench_json("serve", headline, stages)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
