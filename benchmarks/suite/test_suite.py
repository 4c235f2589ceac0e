"""The harness emits the contract's metrics and counts wrong answers.

Each workload runs for 2 s through :func:`harness.run_workload`, once
end to end and once traced; the command line is exercised on the
cheapest workload and must write strict JSON.  A server whose encoder
corrupts every image must raise ``error_rate``, and a traced run whose
replay stops reporting a layer the workload crosses must fail rather
than read 0.  A request body, assembled from cached pieces, must decode
to the frame its response is checked against.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py
"""

import contextlib
import io
import json
import math
import os
import tempfile
import threading

import pytest

from . import cli, harness, sandbox
from .workloads import WORKLOADS

SECONDS = 2.0


@contextlib.contextmanager
def _restored_environment():
    """``sandbox.isolate`` (also run by ``cli.main``) rewrites the
    environment and the temp directory for the whole process."""
    saved, tempdir = dict(os.environ), tempfile.tempdir
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)
        tempfile.tempdir = tempdir


@pytest.fixture(scope="module")
def work():
    with _restored_environment():
        scratch = sandbox.Workdir()
        sandbox.isolate(scratch)
        yield scratch
        scratch.close()


@pytest.fixture(autouse=True)
def _each_test_restores_environment():
    with _restored_environment():
        yield


@pytest.fixture(scope="module")
def spec():
    return sandbox.load_spec()


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "trace"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_reports_every_contract_metric(work, spec, name, trace):
    run = harness.run_workload(name, seed=1, seconds=SECONDS, trace=trace,
                               setups=1, work=work)
    wanted = [m["name"] for m in spec["per_layer" if trace
                                      else "end_to_end"]]
    assert list(run.metrics) == wanted
    assert all(math.isfinite(v) for v in run.metrics.values())
    assert run.correct and run.failed == 0 and run.attempted >= 1
    if trace:
        for absent in harness.NOT_CROSSED[name]:
            assert run.metrics[absent] == 0.0
    else:
        assert all(v > 0 for v in run.metrics.values())


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_last_line_carries_units(spec, trace, capsys, tmp_path):
    out = tmp_path / "result.json"
    code = cli.main(["--workload", "compile_cold", "--seconds", "1",
                     "--trace", trace, "--json", str(out)])
    lines = capsys.readouterr().out.strip().splitlines()
    doc = _strict_json(lines[-1])
    assert code == 0
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    section = spec["per_layer" if trace == "1" else "end_to_end"]
    assert doc["metrics"] == {
        m["name"]: {"value": doc["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in section}
    for m in section:
        assert any(line.split()[1:2] == [m["name"]]
                   and line.endswith(m["unit"]) for line in lines)
    saved = _strict_json(out.read_text())
    assert saved["sets"][0][0]["metrics"] == {
        k: v["value"] for k, v in doc["metrics"].items()}


def test_a_crossed_layer_that_reports_nothing_fails_the_run(work,
                                                            monkeypatch):
    from . import replay

    real = replay.replay_compile

    def silent_stage(*args, **kwargs):
        out = real(*args, **kwargs)
        del out.metrics["compile.frontend_ms"]
        return out

    monkeypatch.setattr(replay, "replay_compile", silent_stage)
    with pytest.raises(KeyError, match="compile.frontend_ms"):
        harness.run_workload("compile_cold", seed=1, seconds=SECONDS,
                             trace=True, work=work)


def test_corrupted_responses_raise_error_rate(work, monkeypatch):
    from repro.serve import service
    from repro.serve.server import create_server

    encode = service.encode_image
    monkeypatch.setattr(service, "encode_image",
                        lambda pixels: encode(pixels + 1.0))
    server = create_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        run = harness.run_workload("serve_small", seed=1, seconds=SECONDS,
                                   setups=1, work=work,
                                   endpoint=server.server_address[:2])
    finally:
        server.service.drain(timeout=10)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert run.info["error_rate"] == 1.0
    assert run.failed == run.attempted and not run.correct


def test_compare_refuses_foreign_stamps(tmp_path):
    base = {"nproc": 2, "cc": "cc 12", "python": "3.11", "numpy": "2",
            "omp_num_threads": "", "commit": "a", "seed": 1}
    run = {"workload": "compile_cold", "trace": False,
           "metrics": {"latency_p50_ms": 2.0}}
    paths = []
    for name, stamp in (("a", base), ("b", dict(base, commit="b")),
                        ("c", dict(base, nproc=8))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"stamp": stamp, "sets": [[run]]}))
        paths.append(str(path))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["--compare", paths[0], paths[1]]) == 0
        assert cli.main(["--compare", paths[0], paths[2]]) == 2


@pytest.mark.parametrize("side", [32, 64, 1024])
def test_request_body_encodes_its_frame(side):
    import base64

    import numpy as np

    from . import workloads

    req = workloads.Request("edge", side, (0, 7))
    doc = json.loads(req.body(3))
    pixels = np.frombuffer(base64.b64decode(doc["image"]["data_b64"]),
                           dtype=np.float32).reshape(side, side)
    assert doc["pipeline"] == "edge" and doc["image"]["shape"] == [side, side]
    assert np.array_equal(pixels, req.pixels(3))
    assert not np.array_equal(pixels, workloads.frame(3, 0, 8, side))
