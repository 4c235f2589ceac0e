"""End-to-end tests for ``repro serve`` (:mod:`repro.serve`).

The contract under test, per ISSUE acceptance:

* a served request's output is **byte-identical** to executing the same
  pipeline directly through the scheduler;
* N identical concurrent requests coalesce into **exactly one
  execution** (proven both by counting ``PreparedGraph.run`` calls through
  a monkeypatch and by the ``serve.dedup_hits`` metric);
* the timeout and load-shedding paths answer with their documented
  status codes and retriable markers;
* ``/metrics`` and ``/healthz`` have the documented shape;
* SIGTERM drains cleanly: in-flight requests complete, queued ones are
  rejected retriable, the process exits 0.

HTTP tests bind an ephemeral port; queue-mechanics tests drive
:class:`~repro.serve.ServeService` directly (no sockets) so windows and
worker counts are deterministic.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.graph.scheduler import PreparedGraph, execute_graph
from repro.serve import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeService,
    ServerBusy,
    decode_image,
    encode_image,
    plan_request,
    request_fingerprint,
)
from repro.serve.server import create_server


W, H = 40, 32


@pytest.fixture
def frame():
    rng = np.random.default_rng(20240807)
    return rng.random((H, W), dtype=np.float32)


@pytest.fixture
def http_serve():
    """A real server on an ephemeral port; yields (client, server)."""
    server = create_server(port=0, config=ServeConfig(
        workers=2, batch_window_ms=2.0, engine="sim"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServeClient(host, port, timeout=30.0)
    client.wait_ready(timeout=10.0)
    try:
        yield client, server
    finally:
        server.service.drain(timeout=10.0)
        server.shutdown()
        server.server_close()


# --------------------------------------------------------------------------
# Protocol round-trips
# --------------------------------------------------------------------------


class TestProtocol:
    def test_image_roundtrip_is_byte_identical(self, frame):
        assert np.array_equal(decode_image(encode_image(frame)), frame)

    def test_decode_rejects_wrong_byte_count(self, frame):
        payload = encode_image(frame)
        payload["shape"] = [H, W + 1]
        with pytest.raises(ProtocolError, match="bytes"):
            decode_image(payload)

    def test_decode_rejects_unknown_dtype(self, frame):
        payload = encode_image(frame)
        payload["dtype"] = "complex128"
        with pytest.raises(ProtocolError, match="dtype"):
            decode_image(payload)

    def test_fingerprint_covers_pixels_and_work(self, frame):
        body = {"pipeline": "edge", "image": encode_image(frame)}
        fp1, _ = request_fingerprint(body)
        assert fp1 == request_fingerprint(dict(body))[0]
        other = dict(body, image=encode_image(frame + 1.0))
        assert request_fingerprint(other)[0] != fp1
        assert request_fingerprint(
            dict(body, pipeline="denoise"))[0] != fp1

    def test_fingerprint_ignores_timeout(self, frame):
        body = {"pipeline": "edge", "image": encode_image(frame)}
        with_timeout = dict(body, timeout_ms=5)
        assert (request_fingerprint(body)[0]
                == request_fingerprint(with_timeout)[0])

    def test_fingerprint_resolves_omitted_engine(self, frame):
        # omitted engine and explicit server-default engine are
        # interchangeable work and must coalesce
        body = {"pipeline": "edge", "image": encode_image(frame)}
        explicit = dict(body, engine="auto")
        assert (request_fingerprint(body)[0]
                == request_fingerprint(explicit)[0])
        assert (request_fingerprint(body, default_engine="sim")[0]
                == request_fingerprint(dict(body, engine="sim"))[0])
        assert (request_fingerprint(body, default_engine="sim")[0]
                != request_fingerprint(explicit)[0])


# --------------------------------------------------------------------------
# End-to-end over HTTP
# --------------------------------------------------------------------------


class TestHTTP:
    def test_result_byte_identical_to_direct_scheduler(self, http_serve,
                                                       frame):
        client, _ = http_serve
        served = client.execute(frame, pipeline="edge", engine="sim")

        plan = plan_request({"pipeline": "edge"}, frame.copy())
        execute_graph(plan.graph, engine="sim", register_metrics=False)
        direct = plan.output.get_data()

        assert served.image.dtype == direct.dtype
        assert np.array_equal(served.image, direct)
        assert served.meta["engine"] == "sim"
        assert served.meta["launches"] >= 4

    def test_chain_request_executes(self, http_serve, frame):
        client, _ = http_serve
        result = client.execute(
            frame, chain=[{"op": "gaussian", "size": 5},
                          {"op": "threshold", "value": 0.5}],
            engine="sim")
        assert result.image.shape == frame.shape

    def test_healthz_shape(self, http_serve):
        client, _ = http_serve
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["protocol"] == PROTOCOL_VERSION
        assert doc["uptime_s"] >= 0
        # started_at_unix is wall-clock "now" give or take the fixture
        assert abs(doc["started_at_unix"] - time.time()) < 300
        assert doc["engine"] == "sim"
        assert doc["engine_fingerprint"] == "sim"

    def test_metrics_shape(self, http_serve, frame):
        client, _ = http_serve
        client.execute(frame, pipeline="edge", engine="sim")
        snapshot = client.metrics()
        serve = snapshot["serve"]
        for key in ("serve.requests", "serve.batched",
                    "serve.dedup_hits", "serve.queue_depth",
                    "serve.shed"):
            assert key in serve, key
        assert serve["serve.requests"] >= 1
        assert serve["serve.queue_depth"] == 0
        # the service's aggregate cache/pool sources are installed too
        assert "cache.ir.hits" in snapshot["cache"]
        assert "pool.allocs" in snapshot["pool"]

    def test_bad_pipeline_is_400(self, http_serve, frame):
        client, _ = http_serve
        from repro.serve import ServeError
        with pytest.raises(ServeError) as exc_info:
            client.execute(frame, pipeline="no_such_pipeline")
        assert exc_info.value.http_status == 400

    def test_malformed_json_is_400(self, http_serve):
        import http.client as http_client
        client, _ = http_serve
        conn = http_client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        conn.request("POST", "/v1/execute", body=b"{not json",
                     headers={"Content-Length": "9"})
        response = conn.getresponse()
        doc = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert doc["error"] == "bad_json"

    def test_unknown_endpoint_is_404(self, http_serve):
        client, _ = http_serve
        from repro.serve import ServeError
        with pytest.raises(ServeError) as exc_info:
            client._request("GET", "/nope")
        assert exc_info.value.http_status == 404


# --------------------------------------------------------------------------
# Dedup: identical concurrent requests -> exactly one execution
# --------------------------------------------------------------------------


class TestDedup:
    def test_identical_concurrent_requests_execute_once(
            self, frame, monkeypatch):
        calls = []
        real = PreparedGraph.run

        def counting(self, *args, **kwargs):
            calls.append(threading.get_ident())
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PreparedGraph, "run", counting)

        # a wide window so every submission provably lands in one batch
        svc = ServeService(ServeConfig(
            workers=4, batch_window_ms=150.0, engine="sim")).start()
        try:
            body = {"pipeline": "edge", "image": encode_image(frame),
                    "engine": "sim"}
            n = 8
            results = [None] * n

            def go(i):
                results[i] = svc.handle(dict(body))

            threads = [threading.Thread(target=go, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len(calls) == 1, \
                f"expected exactly one execution, saw {len(calls)}"
            statuses = {status for status, _ in results}
            assert statuses == {200}
            images = [decode_image(doc["image"])
                      for _, doc in results]
            assert all(np.array_equal(images[0], img)
                       for img in images)
            metrics = svc.metrics()
            assert metrics["serve.dedup_hits"] == n - 1
            assert metrics["serve.executions"] == 1
            assert metrics["serve.batched"] == n
        finally:
            svc.drain(timeout=10.0)

    def test_distinct_requests_each_execute(self, frame):
        svc = ServeService(ServeConfig(
            workers=2, batch_window_ms=50.0, engine="sim")).start()
        try:
            results = [None] * 3

            def go(i):
                body = {"pipeline": "edge",
                        "image": encode_image(frame + i),
                        "engine": "sim"}
                results[i] = svc.handle(body)

            threads = [threading.Thread(target=go, args=(i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(status == 200 for status, _ in results)
            metrics = svc.metrics()
            assert metrics["serve.executions"] == 3
            assert metrics["serve.dedup_hits"] == 0
        finally:
            svc.drain(timeout=10.0)


# --------------------------------------------------------------------------
# Timeouts, shedding, drain
# --------------------------------------------------------------------------


class TestRobustness:
    def test_timeout_answers_504(self, frame, monkeypatch):
        real = PreparedGraph.run

        def slow(self, *args, **kwargs):
            time.sleep(0.5)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PreparedGraph, "run", slow)
        svc = ServeService(ServeConfig(
            workers=1, batch_window_ms=0.0, engine="sim")).start()
        try:
            status, doc = svc.handle(
                {"pipeline": "edge", "image": encode_image(frame),
                 "engine": "sim", "timeout_ms": 50})
            assert status == 504
            assert doc["error"] == "timeout"
            assert doc["retriable"] is True
            assert svc.metrics()["serve.timeouts"] == 1
        finally:
            svc.drain(timeout=10.0)

    def test_fully_abandoned_group_is_cancelled(self, frame,
                                                monkeypatch):
        calls = []
        real = PreparedGraph.run

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PreparedGraph, "run", counting)
        # the window is far longer than the deadline: the waiter gives
        # up while its request is still queued, so the group must be
        # cancelled without ever executing
        svc = ServeService(ServeConfig(
            workers=1, batch_window_ms=300.0, engine="sim")).start()
        try:
            status, doc = svc.handle(
                {"pipeline": "edge", "image": encode_image(frame),
                 "engine": "sim", "timeout_ms": 30})
            assert status == 504
            deadline = time.monotonic() + 5.0
            while (svc.metrics()["serve.cancelled"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert svc.metrics()["serve.cancelled"] == 1
            assert calls == []
        finally:
            svc.drain(timeout=10.0)

    def test_queue_limit_sheds_429(self, frame, monkeypatch):
        release = threading.Event()
        real = PreparedGraph.run

        def blocking(self, *args, **kwargs):
            release.wait(timeout=10.0)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PreparedGraph, "run", blocking)
        svc = ServeService(ServeConfig(
            workers=1, batch_window_ms=0.0, queue_limit=2,
            engine="sim")).start()
        waiters = []
        try:
            # occupy the single worker, then fill the bounded queue
            occupier = threading.Thread(target=svc.handle, args=(
                {"pipeline": "edge", "image": encode_image(frame),
                 "engine": "sim"},))
            occupier.start()
            deadline = time.monotonic() + 5.0
            while (svc.metrics()["serve.executions"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            waiters = []
            for i in range(2):
                body = {"pipeline": "edge",
                        "image": encode_image(frame + 1 + i),
                        "engine": "sim"}
                t = threading.Thread(target=svc.handle, args=(body,))
                t.start()
                waiters.append(t)
            deadline = time.monotonic() + 5.0
            while (svc.metrics()["serve.queue_depth"] < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)

            shed_body = {"pipeline": "edge",
                         "image": encode_image(frame + 9),
                         "engine": "sim"}
            status, doc = svc.handle(shed_body)
            assert status == 429
            assert doc["error"] == "queue_full"
            assert doc["retry_after"] > 0
            assert svc.metrics()["serve.shed"] == 1
        finally:
            release.set()
            for t in waiters:
                t.join(timeout=10.0)
            occupier.join(timeout=10.0)
            svc.drain(timeout=10.0)

    def test_shed_over_http_sets_retry_after_header(self, frame):
        import http.client as http_client

        server = create_server(port=0, config=ServeConfig(
            workers=1, batch_window_ms=500.0, queue_limit=1,
            engine="sim"))
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServeClient(host, port, timeout=30.0)
        client.wait_ready()
        try:
            # the huge batching window keeps request #1 queued; #2 must
            # be shed with a Retry-After header
            first = threading.Thread(
                target=lambda: client.execute(
                    frame, pipeline="edge", timeout_ms=8000))
            first.start()
            deadline = time.monotonic() + 5.0
            while (server.service.metrics()["serve.queue_depth"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)

            body = json.dumps(
                {"pipeline": "edge", "image": encode_image(frame + 1),
                 "engine": "sim"}).encode()
            conn = http_client.HTTPConnection(host, port, timeout=10)
            conn.request("POST", "/v1/execute", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            doc = json.loads(response.read())
            retry_after = response.getheader("Retry-After")
            conn.close()
            assert response.status == 429, doc
            assert retry_after is not None and float(retry_after) >= 1
            first.join(timeout=15.0)
        finally:
            server.service.drain(timeout=10.0)
            server.shutdown()
            server.server_close()

    def test_client_raises_server_busy(self, frame):
        svc = ServeService(ServeConfig(
            workers=1, batch_window_ms=400.0, queue_limit=1,
            engine="sim")).start()
        try:
            svc.submit({"pipeline": "edge",
                        "image": encode_image(frame), "engine": "sim"})
            status, doc = svc.handle(
                {"pipeline": "edge", "image": encode_image(frame + 1),
                 "engine": "sim", "timeout_ms": 100})
            assert status == 429
        finally:
            svc.drain(timeout=10.0)
        assert ServerBusy(429, {"retry_after": 2.5}).retry_after == 2.5

    def test_drain_rejects_queued_as_retriable(self, frame):
        svc = ServeService(ServeConfig(
            workers=1, batch_window_ms=1000.0, engine="sim")).start()
        statuses = []

        def go():
            status, doc = svc.handle(
                {"pipeline": "edge", "image": encode_image(frame),
                 "engine": "sim"})
            statuses.append((status, doc))

        t = threading.Thread(target=go)
        t.start()
        deadline = time.monotonic() + 5.0
        while (svc.metrics()["serve.queue_depth"] < 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert svc.drain(timeout=10.0)
        t.join(timeout=10.0)
        assert statuses, "queued request never answered"
        status, doc = statuses[0]
        assert status == 503
        assert doc["error"] == "draining"
        assert doc["retriable"] is True
        # new submissions are refused outright
        status, doc = svc.handle(
            {"pipeline": "edge", "image": encode_image(frame),
             "engine": "sim"})
        assert status == 503


# --------------------------------------------------------------------------
# Observability: request ids, structured log, histograms, Prometheus
# --------------------------------------------------------------------------


class TestObservability:
    def test_request_id_round_trip(self, http_serve, frame):
        """One request's id appears in the response doc, the meta, the
        X-Request-Id header, every structured-log line of its lifecycle
        and the serve.request span — the whole correlation story."""
        import io

        from repro.obs import tracing
        from repro.obs.log import EVENTS, logging_to

        client, _ = http_serve
        with logging_to(io.StringIO()) as log, tracing() as tracer:
            result = client.execute(frame, pipeline="edge",
                                    engine="sim")
        rid = result.request_id
        assert re.fullmatch(r"[0-9a-f]{16}", rid)
        assert result.meta["request_id"] == rid

        events = [json.loads(line)
                  for line in log.stream.getvalue().splitlines()]
        assert all(e["event"] in EVENTS for e in events)
        mine = [e["event"] for e in events
                if e.get("request_id") == rid]
        assert mine == ["request.received", "request.grouped",
                        "request.dispatched", "request.completed"]
        completed = [e for e in events
                     if e["event"] == "request.completed"
                     and e["request_id"] == rid][0]
        assert completed["http_status"] == 200
        assert completed["request_ms"] > 0

        by_name = {}
        for span in tracer.spans():
            by_name.setdefault(span.name, []).append(span)
        req_spans = [s for s in by_name.get("serve.request", [])
                     if s.attrs.get("request_id") == rid]
        assert len(req_spans) == 1
        # the worker spans carry the lead waiter's id
        assert any(s.attrs.get("request_id") == rid
                   for s in by_name.get("serve.exec", []))

    def test_request_id_header_and_uniqueness(self, http_serve, frame):
        import http.client as http_client

        client, _ = http_serve
        seen = set()
        for i in range(3):
            body = json.dumps(
                {"pipeline": "edge", "image": encode_image(frame + i),
                 "engine": "sim"}).encode()
            conn = http_client.HTTPConnection(client.host, client.port,
                                              timeout=10)
            conn.request("POST", "/v1/execute", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            doc = json.loads(response.read())
            header = response.getheader("X-Request-Id")
            conn.close()
            assert response.status == 200
            assert header == doc["request_id"]
            seen.add(header)
        assert len(seen) == 3

    def test_rejections_carry_request_id(self, frame):
        svc = ServeService(ServeConfig(
            workers=1, batch_window_ms=400.0, queue_limit=1,
            engine="sim")).start()
        try:
            svc.submit({"pipeline": "edge",
                        "image": encode_image(frame), "engine": "sim"})
            status, doc = svc.handle(
                {"pipeline": "edge", "image": encode_image(frame + 1),
                 "engine": "sim", "timeout_ms": 100})
            assert status == 429
            assert re.fullmatch(r"[0-9a-f]{16}", doc["request_id"])
            status, doc = svc.handle(["not", "an", "object"])
            assert status == 400
            assert re.fullmatch(r"[0-9a-f]{16}", doc["request_id"])
        finally:
            svc.drain(timeout=10.0)

    def test_request_histograms_populate(self, http_serve, frame):
        client, _ = http_serve
        for i in range(4):
            client.execute(frame + i, pipeline="edge", engine="sim")
        hist = client.metrics()["hist"]
        assert hist["serve.hist.request_ms.count"] >= 4
        p50 = hist["serve.hist.request_ms.p50"]
        p99 = hist["serve.hist.request_ms.p99"]
        assert 0 < p50 <= p99
        assert hist["serve.hist.queue_wait_ms.count"] >= 4
        assert hist["serve.hist.batch_size.count"] >= 4
        # the scheduler and cache record through the same set; only a
        # request that prepares its graph consults the cache, and
        # whether that lookup hits depends on what ran before
        assert hist["graph.hist.execute_ms.count"] >= 4
        assert (hist.get("cache.hist.hit_ms.count", 0)
                + hist.get("cache.hist.miss_ms.count", 0)) >= 1
        # every execution step of a request group has its histogram
        for step in ("decode", "plan", "prepare", "exec", "encode"):
            assert hist[f"serve.hist.{step}_ms.count"] >= 4, step

    def test_prometheus_endpoint(self, http_serve, frame):
        import http.client as http_client

        client, _ = http_serve
        client.execute(frame, pipeline="edge", engine="sim")
        conn = http_client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        conn.request("GET", "/metrics?format=prometheus")
        response = conn.getresponse()
        text = response.read().decode()
        content_type = response.getheader("Content-Type")
        conn.close()
        assert response.status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "# TYPE repro_serve_requests gauge" in text
        assert "# TYPE repro_serve_hist_request_ms histogram" in text
        assert 'repro_serve_hist_request_ms_bucket{le="+Inf"}' in text
        assert "repro_serve_hist_request_ms_count" in text
        # the flattened hist gauges must NOT leak into the gauge
        # section (their .count would collide with _count)
        assert "# TYPE repro_serve_hist_request_ms_count gauge" \
            not in text

    def test_unknown_metrics_format_is_400(self, http_serve):
        client, _ = http_serve
        from repro.serve import ServeError
        with pytest.raises(ServeError) as exc_info:
            client._request("GET", "/metrics?format=xml")
        assert exc_info.value.http_status == 400


# --------------------------------------------------------------------------
# The real process: SIGTERM drain through the CLI
# --------------------------------------------------------------------------


class TestSubprocess:
    def test_sigterm_drains_and_exits_zero(self, frame, tmp_path):
        import os
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        env["REPRO_NATIVE_DIR"] = str(tmp_path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--engine", "sim", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=str(repo_root), env=env)
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, f"no ready line, got {line!r}"
            host, port = match.group(1), int(match.group(2))
            client = ServeClient(host, port, timeout=30.0)
            client.wait_ready(timeout=15.0)
            result = client.execute(frame, pipeline="edge",
                                    engine="sim")
            assert result.image.shape == frame.shape

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, (out, err)
            assert "drained" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
