"""Command-line interface tests."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    """Run the CLI in-process, capturing stdout."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestCli:
    def test_devices(self):
        code, out = run_cli("devices")
        assert code == 0
        for name in ("Tesla C2050", "Radeon HD 5870", "VLIW5"):
            assert name in out

    def test_codegen_cuda(self, capsys):
        code, out = run_cli("codegen", "--filter", "gaussian",
                            "--backend", "cuda", "--size", "256")
        assert code == 0
        assert "__global__" in out
        assert "_constgmask" in out

    def test_codegen_cpu(self):
        code, out = run_cli("codegen", "--filter", "sobel",
                            "--backend", "cpu", "--size", "512")
        assert code == 0
        assert "#pragma omp parallel for" in out

    def test_codegen_cpu_small_interior_is_serial(self):
        # a 126x126 interior is below PARALLEL_MIN_PIXELS
        code, out = run_cli("codegen", "--filter", "sobel",
                            "--backend", "cpu", "--size", "128")
        assert code == 0
        assert "interior fast path" in out
        assert "#pragma omp" not in out

    def test_codegen_host(self):
        code, out = run_cli("codegen", "--filter", "gaussian",
                            "--backend", "opencl", "--size", "128",
                            "--host")
        assert code == 0
        assert "clEnqueueNDRangeKernel" in out

    def test_codegen_vectorized(self):
        code, out = run_cli("codegen", "--filter", "gaussian",
                            "--backend", "opencl", "--size", "256",
                            "--vectorize", "4")
        assert code == 0
        assert "vload4" in out

    def test_demo(self):
        code, out = run_cli("demo", "--filter", "median", "--size", "64")
        assert code == 0
        assert "modelled:" in out
        assert "border variants" in out

    def test_table_bilateral(self):
        code, out = run_cli("table", "2")
        assert code == 0
        assert "Generated+Mask" in out
        assert "crash/crash" in out

    def test_table_gaussian(self):
        code, out = run_cli("table", "8")
        assert code == 0
        assert "OpenCV: PPT=8" in out

    def test_table_unknown(self):
        with pytest.raises(SystemExit):
            run_cli("table", "42")

    def test_figure4(self):
        code, out = run_cli("figure4")
        assert code == 0
        assert "heuristic" in out

    def test_explore(self):
        code, out = run_cli("explore", "--device", "hd6970", "--top", "5")
        assert code == 0
        assert "occupancy" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "devices"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert "Tesla C2050" in result.stdout


class TestTraceCommand:
    def test_trace_chrome_to_stdout_validates(self):
        import json

        from repro.obs import validate_chrome_trace

        code, out = run_cli("trace", "--size", "64")
        assert code == 0
        doc = json.loads(out)
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        # fresh compile + cache hit + one simulated launch
        for expected in ("compile", "compile.frontend",
                         "compile.cache_lookup", "compile.store",
                         "exec.launch", "sim.evaluate"):
            assert expected in names, expected
        assert "metrics" in doc["otherData"]

    def test_trace_text_format(self):
        code, out = run_cli("trace", "--size", "64", "--format", "text")
        assert code == 0
        assert out.startswith("trace ")
        assert "compile.codegen_final" in out

    def test_trace_json_format(self):
        import json

        code, out = run_cli("trace", "--size", "64", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["spans"][0]["name"] == "compile"

    def test_trace_graph_to_file(self, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        path = tmp_path / "graph-trace.json"
        code, out = run_cli("trace", "--graph", "--workers", "2",
                            "--size", "64", "--out", str(path))
        assert code == 0
        assert out == ""          # rendering went to the file
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        for expected in ("graph.run", "graph.compile", "graph.schedule",
                         "graph.node", "exec.launch"):
            assert expected in names, expected

    def test_cache_stats_prints_split_hit_rates(self, capsys):
        code, _ = run_cli("demo", "--filter", "gaussian", "--size",
                          "64", "--cache", "--cache-stats")
        assert code == 0
        err = capsys.readouterr().err
        assert "ir_hit_rate=" in err
        assert "frontend_hit_rate=" in err
