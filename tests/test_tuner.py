"""Measurement-driven auto-tuning: search, database, compile consult.

Covers the tuner subsystem (docs/TUNING.md) end to end:

* the :class:`~repro.mapping.optdb.TunedDatabase` store — round-trip
  persistence, atomic rewrite, corrupt/stale-store healing, lookup
  fallback semantics;
* :func:`~repro.mapping.tuner.tune_kernel` — the heuristic seed
  guarantee (tuned never worse on the measured signal), budget
  enforcement, pruning, signal selection;
* the compile-driver consult — a second compile adopts the persisted
  winner with **zero** new exploration trials, asserted through the
  ``tuner.*`` metrics counters, and the cache key distinguishes tuned
  from explicit and heuristic compiles;
* the Figure-4 reporting regression — a heuristic choice missing from
  the explored points must be scored directly, never silently replaced
  by the optimum's time.
"""

import json
import threading

import pytest

from repro import compile_kernel, get_device
from repro.cache.key import ir_digest
from repro.errors import LaunchError
from repro.mapping.optdb import (
    TUNED_FORMAT_VERSION,
    OptimizationDatabase,
    OptimizationEntry,
    TunedDatabase,
    TunedEntry,
    default_database,
    default_tuned_database,
    fresh_entry,
    set_default_tuned_database,
)
from repro.mapping.tuner import TUNER_STATS, exhaustive_best, tune_kernel
from repro.obs import get_registry

from .helpers import build_convolution


@pytest.fixture(autouse=True)
def _isolate_default_tuned_store():
    """Tests must never leak winners into the process-wide store (the
    compile driver consults it for every block-less compile)."""
    set_default_tuned_database(TunedDatabase())
    yield
    set_default_tuned_database(None)


def _entry(fp="fp0", device="Tesla C2050", backend="cuda", engine="sim",
           block=(16, 8), score=1.5, signal="model", trials=7):
    return fresh_entry(fp, device, backend, engine, block, score,
                       signal, trials)


# --------------------------------------------------------------------------
# TunedDatabase store semantics
# --------------------------------------------------------------------------

class TestTunedDatabase:
    def test_memory_record_and_lookup(self):
        db = TunedDatabase()
        db.record(_entry())
        hit = db.lookup("fp0", "Tesla C2050", "cuda", "sim")
        assert hit is not None and hit.block == (16, 8)
        assert db.lookup("other", "Tesla C2050", "cuda", "sim") is None
        assert db.lookup("fp0", "GeForce GTX 680", "cuda", "sim") is None

    def test_record_replaces_previous_winner(self):
        db = TunedDatabase()
        db.record(_entry(block=(16, 8)))
        db.record(_entry(block=(8, 12), score=1.2))
        assert len(db) == 1
        assert db.lookup("fp0", "Tesla C2050", "cuda").block == (8, 12)

    def test_exact_engine_wins_over_fallback(self):
        db = TunedDatabase()
        db.record(_entry(engine="sim", block=(32, 4)))
        db.record(_entry(engine="native", block=(8, 12)))
        assert db.lookup("fp0", "Tesla C2050", "cuda",
                         "sim").block == (32, 4)
        assert db.lookup("fp0", "Tesla C2050", "cuda",
                         "native").block == (8, 12)

    def test_cross_engine_fallback_deterministic(self):
        # an engine with no entry of its own borrows the other engine's
        # winner, independent of insertion order (sorted fallback)
        forward, backward = TunedDatabase(), TunedDatabase()
        forward.record(_entry(engine="native", block=(8, 12)))
        backward.record(_entry(engine="native", block=(8, 12)))
        for store in (forward, backward):
            hit = store.lookup("fp0", "Tesla C2050", "cuda", "sim")
            assert hit is not None and hit.engine == "native"
            assert hit.block == (8, 12)

    def test_round_trip_persistence(self, tmp_path):
        path = str(tmp_path / "optdb.json")
        db = TunedDatabase(path)
        db.record(_entry())
        db.record(_entry(fp="fp1", engine="native", block=(8, 12)))

        reloaded = TunedDatabase(path)
        assert len(reloaded) == 2
        assert reloaded.healed == 0
        hit = reloaded.lookup("fp1", "Tesla C2050", "cuda", "native")
        assert hit is not None and hit.block == (8, 12)
        assert hit.trials == 7 and hit.signal == "model"
        # entries() is canonically ordered regardless of insert order
        assert [e.key for e in reloaded.entries()] == \
            sorted(e.key for e in db.entries())

    def test_store_document_shape(self, tmp_path):
        path = str(tmp_path / "optdb.json")
        TunedDatabase(path).record(_entry())
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["format"] == TUNED_FORMAT_VERSION
        assert isinstance(doc["entries"], list) and len(doc["entries"]) == 1
        assert doc["entries"][0]["block"] == [16, 8]

    def test_corrupt_store_heals_as_miss(self, tmp_path):
        path = str(tmp_path / "optdb.json")
        path_obj = tmp_path / "optdb.json"
        path_obj.write_text("{not json", encoding="utf-8")
        db = TunedDatabase(path)
        assert len(db) == 0 and db.healed == 1
        assert db.lookup("fp0", "Tesla C2050", "cuda") is None
        # the next record rewrites a clean, loadable store
        db.record(_entry())
        assert len(TunedDatabase(path)) == 1

    def test_stale_format_version_heals_as_miss(self, tmp_path):
        path = str(tmp_path / "optdb.json")
        doc = {"format": TUNED_FORMAT_VERSION + 1,
               "entries": [_entry().to_dict()]}
        (tmp_path / "optdb.json").write_text(json.dumps(doc),
                                             encoding="utf-8")
        db = TunedDatabase(path)
        assert len(db) == 0 and db.healed == 1

    def test_malformed_entries_skipped_individually(self, tmp_path):
        path = str(tmp_path / "optdb.json")
        doc = {"format": TUNED_FORMAT_VERSION, "entries": [
            _entry().to_dict(),
            {"fingerprint": "fp1"},                    # missing fields
            dict(_entry(fp="fp2").to_dict(), block=[0, 8]),   # bad block
            _entry(fp="fp3").to_dict(),
        ]}
        (tmp_path / "optdb.json").write_text(json.dumps(doc),
                                             encoding="utf-8")
        db = TunedDatabase(path)
        assert len(db) == 2            # the two well-formed entries
        assert db.healed == 2          # exactly the bad ones dropped
        assert db.lookup("fp3", "Tesla C2050", "cuda") is not None

    def test_from_dict_rejects_malformed(self):
        good = _entry().to_dict()
        for mutate in (
            lambda d: d.pop("fingerprint"),
            lambda d: d.update(block=[32]),
            lambda d: d.update(block=["x", 4]),
            lambda d: d.update(score_ms=-1.0),
            lambda d: d.update(fingerprint=""),
        ):
            raw = dict(good)
            mutate(raw)
            with pytest.raises(ValueError):
                TunedEntry.from_dict(raw)
        with pytest.raises(ValueError):
            TunedEntry.from_dict("not a dict")

    def test_default_tuned_database_honors_env(self, tmp_path,
                                               monkeypatch):
        path = str(tmp_path / "store.json")
        TunedDatabase(path).record(_entry())
        monkeypatch.setenv("REPRO_OPTDB_PATH", path)
        db = default_tuned_database(rebuild=True)
        try:
            assert db.path == path and len(db) == 1
        finally:
            set_default_tuned_database(None)


# --------------------------------------------------------------------------
# Paper optimization database (Section V-B) regression coverage
# --------------------------------------------------------------------------

class TestOptimizationDatabaseFallback:
    def test_same_architecture_fallback_is_sorted(self):
        """Two same-architecture entries: the fallback must be the
        sorted-first device regardless of insertion order."""
        import dataclasses

        from repro.hwmodel.database import DEVICES

        arch = get_device("Tesla C2050").architecture
        fermi = sorted(n for n, d in DEVICES.items()
                       if d.architecture == arch)
        assert len(fermi) >= 2, "need two same-architecture devices"
        a, b = fermi[:2]

        def entry(name):
            return OptimizationEntry(device=name, backend="cuda",
                                     padding_bytes=128,
                                     texture_beneficial=(name == a),
                                     smem_beneficial=True,
                                     constant_mask_static=True)

        phantom = dataclasses.replace(get_device("Tesla C2050"),
                                      name="Phantom Fermi")

        forward, backward = OptimizationDatabase(), OptimizationDatabase()
        forward.add(entry(a)), forward.add(entry(b))
        backward.add(entry(b)), backward.add(entry(a))
        hit_f = forward.lookup(phantom, "cuda")
        hit_b = backward.lookup(phantom, "cuda")
        assert hit_f == hit_b
        assert hit_f.device == a

    def test_default_database_single_instance_under_race(self):
        """Racing first callers observe one complete database."""
        default_database(rebuild=True)        # drop any cached instance
        seen = []
        barrier = threading.Barrier(4)

        def grab():
            barrier.wait()
            seen.append(default_database())

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(db) for db in seen}) == 1
        assert len(seen[0]) > 0


# --------------------------------------------------------------------------
# tune_kernel: the search itself
# --------------------------------------------------------------------------

class TestTuneKernel:
    def test_tuned_never_worse_than_heuristic(self):
        k = build_convolution(size=48)
        result = tune_kernel(k, device="Tesla C2050", signal="model",
                             budget=10, db=False)
        assert result.best_ms <= result.heuristic_ms + 1e-9
        assert result.speedup_over_heuristic >= 1.0
        assert result.heuristic_block in result.measurements

    def test_budget_caps_trials_and_prunes(self):
        k = build_convolution(size=48)
        result = tune_kernel(k, device="Tesla C2050", signal="model",
                             budget=6, db=False)
        assert result.trials <= 6
        assert result.pruned >= result.candidates - 6
        assert len(result.measurements) == result.trials

    def test_close_to_exhaustive_on_model_signal(self):
        k = build_convolution(size=48)
        result = tune_kernel(k, device="Tesla C2050", signal="model",
                             budget=16, db=False)
        _, ex_ms = exhaustive_best(result)
        # may legitimately beat the grid optimum (off-grid hill-climb),
        # must not drift far above it
        assert result.best_ms <= ex_ms * 1.05

    def test_records_winner_into_database(self):
        db = TunedDatabase()
        k = build_convolution(size=48)
        result = tune_kernel(k, device="Tesla C2050", signal="model",
                             budget=8, db=db)
        hit = db.lookup(result.fingerprint, result.device,
                        result.backend, result.engine)
        assert hit is not None
        assert hit.block == result.best_block
        assert hit.trials == result.trials
        assert hit.signal == "model"

    def test_db_false_and_persist_false_skip_recording(self):
        k = build_convolution(size=48)
        before = TUNER_STATS.snapshot()
        r1 = tune_kernel(k, device="Tesla C2050", signal="model",
                         budget=6, db=False)
        r2 = tune_kernel(k, device="Tesla C2050", signal="model",
                         budget=6, persist=False)
        after = TUNER_STATS.snapshot()
        assert after["records"] == before["records"]    # nothing written
        assert after["sessions"] == before["sessions"] + 2
        assert r1.entry is not None and r2.entry is not None
        assert len(default_tuned_database()) == 0

    def test_sim_signal_smoke(self):
        k = build_convolution(size=16)
        result = tune_kernel(k, device="Tesla C2050", engine="sim",
                             budget=3, seed_top=1, repeats=1, db=False)
        assert result.signal == "sim"
        assert result.trials <= 3
        assert result.best_ms > 0

    def test_unknown_engine_and_signal_rejected(self):
        k = build_convolution(size=16)
        with pytest.raises(ValueError):
            tune_kernel(k, engine="turbo", db=False)
        with pytest.raises(ValueError):
            tune_kernel(k, signal="vibes", db=False)

    def test_metrics_exported_through_registry(self):
        k = build_convolution(size=48)
        tune_kernel(k, device="Tesla C2050", signal="model", budget=4,
                    db=False)
        snap = get_registry().snapshot()
        tuner = snap.get("tuner", {})
        assert tuner.get("tuner.sessions", 0) >= 1
        assert tuner.get("tuner.trials", 0) >= 1


# --------------------------------------------------------------------------
# The compile-driver consult
# --------------------------------------------------------------------------

class TestCompileConsultsTunedDatabase:
    def test_second_compile_adopts_winner_with_zero_trials(self):
        db = TunedDatabase()
        k = build_convolution(size=48)
        result = tune_kernel(k, device="Tesla C2050", signal="model",
                             budget=10, db=db)

        before = TUNER_STATS.snapshot()
        compiled = compile_kernel(build_convolution(size=48),
                                  device="Tesla C2050", tuned=db)
        after = TUNER_STATS.snapshot()

        assert tuple(compiled.options.block) == result.best_block
        assert after["trials"] - before["trials"] == 0
        assert after["sessions"] - before["sessions"] == 0
        assert after["lookups"] - before["lookups"] == 1
        assert after["hits"] - before["hits"] == 1

    def test_default_store_consulted_without_explicit_db(self):
        k = build_convolution(size=48)
        result = tune_kernel(k, device="Tesla C2050", signal="model",
                             budget=10)        # records into the default
        compiled = compile_kernel(build_convolution(size=48),
                                  device="Tesla C2050")
        assert tuple(compiled.options.block) == result.best_block

    def test_tuned_false_disables_consult(self):
        k = build_convolution(size=48)
        tune_kernel(k, device="Tesla C2050", signal="model", budget=10)
        before = TUNER_STATS.snapshot()
        compiled = compile_kernel(build_convolution(size=48),
                                  device="Tesla C2050", tuned=False)
        after = TUNER_STATS.snapshot()
        assert after["lookups"] == before["lookups"]
        # Algorithm 2's untainted choice
        baseline = compile_kernel(build_convolution(size=48),
                                  device="Tesla C2050", tuned=False)
        assert compiled.options.block == baseline.options.block

    def test_explicit_block_bypasses_consult(self):
        db = TunedDatabase()
        k = build_convolution(size=48)
        tune_kernel(k, device="Tesla C2050", signal="model", budget=10,
                    db=db)
        before = TUNER_STATS.snapshot()
        compiled = compile_kernel(build_convolution(size=48),
                                  device="Tesla C2050", block=(32, 2),
                                  tuned=db)
        after = TUNER_STATS.snapshot()
        assert after["lookups"] == before["lookups"]
        assert tuple(compiled.options.block) == (32, 2)

    def test_other_device_misses(self):
        db = TunedDatabase()
        k = build_convolution(size=48)
        tune_kernel(k, device="Tesla C2050", signal="model", budget=10,
                    db=db)
        before = TUNER_STATS.snapshot()
        compile_kernel(build_convolution(size=48), device="quadro",
                       tuned=db)
        after = TUNER_STATS.snapshot()
        assert after["lookups"] - before["lookups"] == 1
        assert after["misses"] - before["misses"] == 1

    def test_tuned_compile_caches_under_distinct_key(self):
        """A tuned compile and an explicit-block compile resolving the
        same block must not share a cache entry — their select paths
        differ (the tuned path re-validates and can fall back)."""
        from repro import CompilationCache

        db = TunedDatabase()
        k = build_convolution(size=48)
        result = tune_kernel(k, device="Tesla C2050", signal="model",
                             budget=10, db=db)
        cache = CompilationCache()
        compile_kernel(build_convolution(size=48), device="Tesla C2050",
                       tuned=db, cache=cache)
        compile_kernel(build_convolution(size=48), device="Tesla C2050",
                       block=result.best_block, tuned=False, cache=cache)
        compile_kernel(build_convolution(size=48), device="Tesla C2050",
                       tuned=False, cache=cache)
        assert cache.stats.misses == 3      # three distinct keys

    def test_fingerprint_stable_across_compiles(self):
        c1 = compile_kernel(build_convolution(size=48), tuned=False)
        c2 = compile_kernel(build_convolution(size=48), tuned=False)
        assert ir_digest(c1.ir) == ir_digest(c2.ir)


# --------------------------------------------------------------------------
# Figure-4 reporting regression (the silent-substitution bug)
# --------------------------------------------------------------------------

class TestFigure4HeuristicGap:
    def test_missing_chosen_block_is_scored_not_substituted(self,
                                                            monkeypatch):
        """When the heuristic's chosen block is absent from the explored
        points, figure4_exploration used to report best.time_ms as the
        heuristic's time — heuristic_within == 1.0 exactly when the
        result was least trustworthy.  The chosen block must be scored
        directly, yielding an honest ratio > 1.0 for a suboptimal
        choice."""
        from repro.evaluation import figure4 as fig4

        probe = fig4.figure4_exploration(width=256, height=256)
        # pick a genuinely suboptimal explored block, then hide it from
        # the walk so the old code path would have substituted
        worst = max(probe.points, key=lambda p: p.time_ms)
        assert worst.time_ms > probe.best.time_ms

        real_explore = fig4.explore_configurations

        def filtered_explore(*args, **kwargs):
            pts = real_explore(*args, **kwargs)
            return [p for p in pts if p.block != worst.block]

        class FakeSelection:
            block = worst.block

        monkeypatch.setattr(fig4, "explore_configurations",
                            filtered_explore)
        monkeypatch.setattr(fig4, "select_configuration",
                            lambda *a, **k: FakeSelection())

        result = fig4.figure4_exploration(width=256, height=256)
        assert result.heuristic_block == worst.block
        assert all(p.block != worst.block for p in result.points)
        assert result.heuristic_ms == pytest.approx(worst.time_ms)
        assert result.heuristic_within > 1.0      # the honest report

    def test_unlaunchable_chosen_block_raises(self, monkeypatch):
        """A chosen block that cannot launch at all must surface as
        LaunchError, not masquerade as the optimum."""
        from repro.evaluation import figure4 as fig4

        class FakeSelection:
            block = (1024, 1024)       # beyond any device's limits

        monkeypatch.setattr(fig4, "select_configuration",
                            lambda *a, **k: FakeSelection())
        with pytest.raises(LaunchError):
            fig4.figure4_exploration(width=256, height=256)
