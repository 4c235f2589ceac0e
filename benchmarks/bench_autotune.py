"""Auto-tuner benchmark: heuristic vs tuned vs exhaustive.

For a set of builtin filters this benchmark runs the measurement-driven
tuner (:mod:`repro.mapping.tuner`) with the deterministic ``model``
signal, then walks the *entire* legal configuration space (the Figure-4
sweep) over the same launch parameters, and reports the three-way gap:

* **heuristic** — Algorithm 2's static choice, scored on the signal;
* **tuned** — the budgeted adaptive search's winner (a handful of
  trials: heuristic seed + top-modelled candidates + hill-climb);
* **exhaustive** — the optimum over the full Figure-4 candidate grid.

Invariants asserted under pytest (and on every ``--json`` run):

* tuned is never worse than the heuristic on the measured signal (the
  heuristic's block is always a seed);
* tuned lands within a few percent of the exhaustive grid optimum on a
  small budget — and may legitimately *beat* it (negative tuned gap),
  because the hill-climb's factor-of-two moves can step off the
  candidate grid onto tilings the Figure-4 walk never enumerates;
* a compile consulting the freshly tuned database adopts the winner
  with **zero** new exploration trials (``tuner.*`` metric-asserted).

The ``model`` signal makes the headline quality numbers bit-for-bit
deterministic — only ``tune_wall_ms`` varies run to run, and the CI
perf sentinel's generous gates absorb that.

Run directly::

    PYTHONPATH=src python benchmarks/bench_autotune.py [--quick] [--json]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.cache.key import ir_digest
from repro.cli import _build_filter
from repro.mapping.optdb import TunedDatabase
from repro.mapping.tuner import TUNER_STATS, exhaustive_best, tune_kernel
from repro.runtime.compile import compile_kernel

DEVICE = "Tesla C2050"
FILTERS = ("bilateral", "gaussian", "sobel")
EPS = 1e-9


def _frame(size):
    rng = np.random.default_rng(11)
    return (rng.random((size, size)) * 255).astype(np.float32)


def tune_one(name, size, budget, db):
    """Tune one builtin filter; returns its three-way gap numbers."""
    kernel, _, _ = _build_filter(name, size, "clamp", _frame(size))
    result = tune_kernel(kernel, device=DEVICE, signal="model",
                         budget=budget, db=db)
    ex_block, ex_ms = exhaustive_best(result)
    assert result.best_ms <= result.heuristic_ms + EPS, \
        f"{name}: tuned worse than the heuristic on the measured signal"
    # the hill-climb may leave the candidate grid and beat ex_ms, but a
    # budgeted search drifting far *above* the grid optimum is a quality
    # regression in the search itself
    assert result.best_ms <= ex_ms * 1.05, \
        f"{name}: tuned more than 5% off the exhaustive grid optimum"
    return {
        "filter": name,
        "result": result,
        "exhaustive_block": ex_block,
        "exhaustive_ms": ex_ms,
    }


def consult_with_zero_trials(name, size, db):
    """Compile *name* against the tuned database and prove the winner
    was adopted without a single new exploration trial."""
    kernel, _, _ = _build_filter(name, size, "clamp", _frame(size))
    before = TUNER_STATS.snapshot()
    compiled = compile_kernel(kernel, device=DEVICE, tuned=db)
    after = TUNER_STATS.snapshot()
    new_trials = after["trials"] - before["trials"]
    new_hits = after["hits"] - before["hits"]
    assert new_trials == 0, \
        f"{name}: consulting the database cost {new_trials} trials"
    assert new_hits == 1, f"{name}: tuned lookup did not hit"
    entry = db.lookup(ir_digest(compiled.ir), DEVICE, "cuda")
    assert entry is not None \
        and tuple(compiled.options.block) == tuple(entry.block), \
        f"{name}: compile did not adopt the tuned winner"
    return new_trials


def measure(size=512, budget=16):
    db = TunedDatabase()
    rows = [tune_one(name, size, budget, db) for name in FILTERS]
    consult_trials = sum(consult_with_zero_trials(name, size, db)
                         for name in FILTERS)

    heuristic_ms = sum(r["result"].heuristic_ms for r in rows)
    tuned_ms = sum(r["result"].best_ms for r in rows)
    exhaustive_ms = sum(r["exhaustive_ms"] for r in rows)
    trials = sum(r["result"].trials for r in rows)
    candidates = sum(r["result"].candidates for r in rows)
    wall_ms = sum(r["result"].wall_ms for r in rows)
    return {
        "size": size,
        "budget": budget,
        "filters": len(rows),
        "heuristic_ms": heuristic_ms,
        "tuned_ms": tuned_ms,
        "exhaustive_ms": exhaustive_ms,
        "heuristic_gap_pct":
            (heuristic_ms / exhaustive_ms - 1.0) * 100.0,
        "tuned_gap_pct": (tuned_ms / exhaustive_ms - 1.0) * 100.0,
        "speedup_over_heuristic": heuristic_ms / tuned_ms,
        "trials": trials,
        "candidates": candidates,
        "prune_rate": 1.0 - trials / candidates,
        "consult_trials": consult_trials,
        "tune_wall_ms": wall_ms,
    }, rows


def report(quick: bool = False):
    size = 128 if quick else 512
    m, rows = measure(size=size)
    print(f"auto-tune gap on {DEVICE}, {size}x{size}, "
          f"budget {m['budget']}:")
    print(f"{'filter':<11}{'heuristic':>11}{'tuned':>9}{'optimum':>9}"
          f"{'heur gap':>10}{'tuned gap':>10}")
    for r in rows:
        res = r["result"]
        print(f"{r['filter']:<11}"
              f"{res.heuristic_block[0]:>6}x{res.heuristic_block[1]:<4}"
              f"{res.best_block[0]:>4}x{res.best_block[1]:<4}"
              f"{r['exhaustive_block'][0]:>4}x"
              f"{r['exhaustive_block'][1]:<4}"
              f"{(res.heuristic_ms / r['exhaustive_ms'] - 1) * 100:>+9.1f}%"
              f"{(res.best_ms / r['exhaustive_ms'] - 1) * 100:>+9.1f}%")
    print(f"  signal totals:   heuristic {m['heuristic_ms']:.3f} ms, "
          f"tuned {m['tuned_ms']:.3f} ms, "
          f"optimum {m['exhaustive_ms']:.3f} ms")
    print(f"  search cost:     {m['trials']}/{m['candidates']} "
          f"configurations measured "
          f"({m['prune_rate']:.0%} pruned by the occupancy model)")
    print(f"  warm consults:   {m['consult_trials']} exploration trials "
          "across one compile per filter (winners served from the "
          "database)")
    return m


# ---- pytest acceptance assertions ----------------------------------------

def test_tuned_never_worse_than_heuristic():
    db = TunedDatabase()
    for name in FILTERS:
        row = tune_one(name, 96, 12, db)      # asserts internally
        assert row["result"].best_ms <= row["result"].heuristic_ms + EPS


def test_second_compile_consults_with_zero_trials():
    db = TunedDatabase()
    tune_one("gaussian", 96, 12, db)
    assert consult_with_zero_trials("gaussian", 96, db) == 0


def test_prune_rate_substantial():
    m, _ = measure(size=96, budget=12)
    assert m["prune_rate"] > 0.5, \
        "the adaptive search should measure a small fraction of the space"


def main():
    try:
        from .common import run_traced, write_bench_json
    except ImportError:        # run directly: benchmarks/ is sys.path[0]
        from common import run_traced, write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small frame (CI smoke)")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_autotune.json with per-stage "
                             "span breakdowns")
    args = parser.parse_args()
    if not args.json:
        report(quick=args.quick)
        return
    m, stages = run_traced(report, quick=args.quick)
    path = write_bench_json("autotune", m, stages)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
