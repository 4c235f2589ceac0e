"""Tests for the perf-regression sentinel (:mod:`repro.obs.compare`,
``repro perf``).

The acceptance behaviour: comparing a benchmark document against itself
exits 0, and an injected 2x slowdown of a latency headline exits
non-zero — plus the gating rules (relative threshold AND absolute noise
floor), direction inference, and the schema_version hard gate.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.obs.compare import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_BENCHMARKS,
    compare_docs,
    metric_direction,
    run_compare,
)


def make_doc(benchmark="serve", **headline_overrides):
    headline = {
        "cold_ms": 450.0,
        "warm_p50_ms": 56.0,
        "warm_p99_ms": 90.0,
        "warm_rps": 17.5,
        "dedup_rate": 0.875,
        "warm_cache_misses": 0.0,
        "image_size": 32,
        "cold_over_warm_p50": 8.0,
    }
    headline.update(headline_overrides)
    return {
        "benchmark": benchmark,
        "schema_version": BENCH_SCHEMA_VERSION,
        "headline": headline,
        "stages": {
            "serve.exec": {"count": 40, "total_ms": 2000.0,
                           "mean_ms": 50.0},
            "compile.lint": {"count": 5, "total_ms": 12.0,
                             "mean_ms": 2.4},
        },
    }


class TestDirections:
    def test_suffix_heuristics(self):
        assert metric_direction("warm_p50_ms") == "lower"
        assert metric_direction("peak_bytes") == "lower"
        assert metric_direction("warm_cache_misses") == "lower"
        assert metric_direction("warm_rps") == "higher"
        assert metric_direction("dedup_rate") == "higher"
        assert metric_direction("cold_over_warm_p50") == "higher"
        assert metric_direction("image_size") is None
        assert metric_direction("warm_requests") is None


class TestCompareDocs:
    def test_identical_docs_pass(self):
        doc = make_doc()
        cmp = compare_docs(doc, copy.deepcopy(doc))
        assert cmp.ok
        assert cmp.regressions == []

    def test_injected_2x_slowdown_regresses(self):
        base = make_doc()
        cur = make_doc(warm_p50_ms=112.0, warm_p99_ms=180.0)
        cmp = compare_docs(base, cur, threshold=0.25,
                           noise_floor_ms=5.0)
        regressed = {e.metric for e in cmp.regressions}
        assert "headline.warm_p50_ms" in regressed
        assert "headline.warm_p99_ms" in regressed
        assert not cmp.ok

    def test_change_below_threshold_passes(self):
        cmp = compare_docs(make_doc(), make_doc(warm_p50_ms=66.0),
                           threshold=0.25, noise_floor_ms=5.0)
        assert cmp.ok      # +18% < 25% gate

    def test_noise_floor_suppresses_tiny_absolute_deltas(self):
        # 3x relative blowup, but only 2 ms absolute — under a 5 ms
        # floor that is indistinguishable from scheduler jitter
        base = make_doc(warm_p50_ms=1.0)
        cur = make_doc(warm_p50_ms=3.0)
        assert compare_docs(base, cur, threshold=0.25,
                            noise_floor_ms=5.0).ok
        assert not compare_docs(base, cur, threshold=0.25,
                                noise_floor_ms=0.5).ok

    def test_throughput_halved_regresses(self):
        cmp = compare_docs(make_doc(), make_doc(warm_rps=8.0),
                           threshold=0.25)
        assert "headline.warm_rps" in \
            {e.metric for e in cmp.regressions}

    def test_throughput_gain_is_improvement_not_failure(self):
        cmp = compare_docs(make_doc(), make_doc(warm_rps=35.0),
                           threshold=0.25)
        assert cmp.ok
        assert any(e.status == "improved" for e in cmp.entries)

    def test_info_metrics_never_regress(self):
        cmp = compare_docs(make_doc(), make_doc(image_size=64))
        assert cmp.ok
        entry = [e for e in cmp.entries if e.metric == "image_size"][0]
        assert entry.status == "info"

    def test_stage_total_regression_is_caught(self):
        base, cur = make_doc(), make_doc()
        cur["stages"]["compile.lint"]["total_ms"] = 80.0
        cmp = compare_docs(base, cur, threshold=0.25,
                           noise_floor_ms=5.0)
        assert "stages.compile.lint.total_ms" in \
            {e.metric for e in cmp.regressions}

    def test_stage_threshold_is_independent(self):
        base, cur = make_doc(), make_doc()
        cur["stages"]["serve.exec"]["total_ms"] = 2900.0   # +45%
        assert compare_docs(base, cur, threshold=0.25,
                            stage_threshold=0.5).ok
        assert not compare_docs(base, cur, threshold=0.25,
                                stage_threshold=0.25).ok

    def test_missing_current_key_is_skipped(self):
        cur = make_doc()
        del cur["headline"]["warm_p99_ms"]
        assert compare_docs(make_doc(), cur).ok


class TestCommittedBaselines:
    @pytest.mark.parametrize("name", DEFAULT_BENCHMARKS)
    def test_every_default_benchmark_has_a_current_baseline(self, name):
        # the perf sentinel compares against these without
        # --allow-missing, so a missing or stale one fails every run
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, f"BENCH_{name}.json")
        assert os.path.isfile(path), f"no committed baseline {path}"
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["benchmark"] == name
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION


class TestSchemaGate:
    def test_stale_schema_version_fails_hard(self):
        stale = make_doc()
        stale["schema_version"] = BENCH_SCHEMA_VERSION - 1
        cmp = compare_docs(stale, make_doc())
        assert not cmp.ok
        assert any("schema_version" in p for p in cmp.problems)

    def test_missing_schema_version_fails_hard(self):
        missing = make_doc()
        del missing["schema_version"]
        cmp = compare_docs(make_doc(), missing)
        assert not cmp.ok
        assert any("current" in p for p in cmp.problems)

    def test_benchmark_name_mismatch_fails(self):
        cmp = compare_docs(make_doc("serve"), make_doc("native_graph"))
        assert not cmp.ok
        assert any("mismatch" in p for p in cmp.problems)


class TestRunCompare:
    def _write(self, directory, doc):
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory,
                            f"BENCH_{doc['benchmark']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def test_self_comparison_exits_zero(self, tmp_path, capsys):
        base_dir = str(tmp_path / "base")
        cur_dir = str(tmp_path / "cur")
        self._write(base_dir, make_doc())
        self._write(cur_dir, make_doc())
        code = run_compare(base_dir, cur_dir, names=("serve",))
        out = capsys.readouterr().out
        assert code == 0
        assert "perf sentinel: ok" in out

    def test_injected_slowdown_exits_nonzero(self, tmp_path, capsys):
        base_dir = str(tmp_path / "base")
        cur_dir = str(tmp_path / "cur")
        self._write(base_dir, make_doc())
        self._write(cur_dir, make_doc(warm_p50_ms=112.0))
        code = run_compare(base_dir, cur_dir, names=("serve",))
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out
        assert "warm_p50_ms" in out

    def test_missing_document_fails_unless_allowed(self, tmp_path,
                                                   capsys):
        base_dir = str(tmp_path / "base")
        cur_dir = str(tmp_path / "cur")
        self._write(base_dir, make_doc())
        assert run_compare(base_dir, cur_dir, names=("serve",)) == 1
        assert run_compare(base_dir, cur_dir, names=("serve",),
                           allow_missing=True) == 0
        capsys.readouterr()

    def test_json_report_written(self, tmp_path, capsys):
        base_dir = str(tmp_path / "base")
        cur_dir = str(tmp_path / "cur")
        self._write(base_dir, make_doc())
        self._write(cur_dir, make_doc(warm_p50_ms=112.0))
        report_path = str(tmp_path / "report.json")
        code = run_compare(base_dir, cur_dir, names=("serve",),
                           json_out=report_path)
        capsys.readouterr()
        assert code == 1
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["ok"] is False
        assert report["schema_version"] == BENCH_SCHEMA_VERSION
        entries = report["comparisons"][0]["entries"]
        bad = [e for e in entries
               if e["metric"] == "headline.warm_p50_ms"][0]
        assert bad["status"] == "regressed"
        assert bad["change_pct"] == pytest.approx(100.0)

    def test_unreadable_document_is_a_problem(self, tmp_path, capsys):
        base_dir = str(tmp_path / "base")
        cur_dir = str(tmp_path / "cur")
        self._write(base_dir, make_doc())
        os.makedirs(cur_dir, exist_ok=True)
        with open(os.path.join(cur_dir, "BENCH_serve.json"), "w",
                  encoding="utf-8") as fh:
            fh.write("{not json")
        assert run_compare(base_dir, cur_dir, names=("serve",)) == 1
        capsys.readouterr()


class TestCLIs:
    def test_repro_perf_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        base_dir = str(tmp_path / "base")
        cur_dir = str(tmp_path / "cur")
        TestRunCompare._write(None, base_dir, make_doc())
        TestRunCompare._write(None, cur_dir, make_doc())
        code = main(["perf", "--baseline-dir", base_dir,
                     "--current-dir", cur_dir, "--bench", "serve"])
        assert code == 0
        slow = make_doc(warm_p50_ms=200.0)
        TestRunCompare._write(None, cur_dir, slow)
        code = main(["perf", "--baseline-dir", base_dir,
                     "--current-dir", cur_dir, "--bench", "serve"])
        assert code == 1
        capsys.readouterr()
