"""Measurement-driven auto-tuning of block configurations.

Algorithm 2 (:mod:`repro.mapping.heuristic`) is a *static* model: it
picks a configuration from occupancy and boundary-thread counts without
ever running the kernel.  Figure 4 shows the other extreme — an
exhaustive sweep of every legal configuration.  This module is the
middle path ImageCL demonstrated (PAPERS.md): score a *few* candidate
configurations from **measured** signals, search the space adaptively,
and persist the winner so later compiles get it for free.

The search (:func:`tune_kernel`):

1. **prune** — the candidate set from Algorithm 2's own enumeration is
   already sorted by the occupancy model; only the heuristic's choice
   plus the *seed_top* best-modelled candidates are measured, the rest
   are pruned without spending a trial;
2. **measure** — each trial scores one block with the selected signal:
   ``"model"`` (the deterministic timing model, via
   :func:`~repro.mapping.explore.evaluate_block`), ``"sim"`` (wall
   clock of a real simulator execution, the ``exec.launch`` span), or
   ``"native"`` (wall clock of the PR-5 native tier's ``native.exec``
   segment, falling back to the simulator when no C compiler is
   available);
3. **refine** — hill-climb around the incumbent by factor-of-two
   neighbour steps until no neighbour improves or the trial *budget*
   is exhausted.

Because the heuristic's block is always the first seed, the winner is
never worse than Algorithm 2 *on the measured signal* — the tuned
result can only tie or beat the static choice.

Winners persist in the :class:`~repro.mapping.optdb.TunedDatabase`
keyed by ``(kernel_fingerprint, device, backend, engine)``;
:func:`repro.runtime.compile.compile_kernel` consults that store before
falling back to Algorithm 2 (docs/TUNING.md).  Everything here is
traced (``tune.search`` / ``tune.trial`` spans) and counted (the
``tuner.*`` metrics namespace).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..errors import LaunchError, MappingError
from ..hwmodel.device import DeviceSpec
from ..hwmodel.occupancy import compute_occupancy
from ..obs import CounterGroup, get_registry, span
from ..obs.schema import TUNER_COUNTERS
from .explore import ExplorationTask, evaluate_block, run_exploration_task
from .heuristic import candidate_configurations
from .optdb import (
    TunedDatabase,
    TunedEntry,
    default_tuned_database,
    fresh_entry,
)

SIGNALS = ("model", "sim", "native")

Block = Tuple[int, int]


TUNER_STATS = CounterGroup("tuner", TUNER_COUNTERS)
get_registry().register_source("tuner", TUNER_STATS.metrics)


@dataclasses.dataclass
class TuneResult:
    """Outcome of one :func:`tune_kernel` search."""

    kernel: str
    fingerprint: str
    device: str
    backend: str
    engine: str
    #: the signal that actually scored the trials — may differ from the
    #: request (``"native"`` degrades to ``"sim"`` without a C compiler)
    signal: str
    best_block: Block
    best_ms: float
    heuristic_block: Block
    heuristic_ms: float
    #: configurations measured / skipped on the model's word / total legal
    trials: int
    pruned: int
    candidates: int
    #: every measured (block -> score) pair, for reporting
    measurements: Dict[Block, float]
    #: the winning entry (recorded into the database unless the caller
    #: opted out with ``db=False`` / ``persist=False``)
    entry: Optional[TunedEntry]
    #: the launch-parameter bundle the model signal scores — lets callers
    #: (benchmarks) run the exhaustive Figure-4 walk over the same space
    task: ExplorationTask
    wall_ms: float = 0.0

    @property
    def speedup_over_heuristic(self) -> float:
        """Heuristic score / tuned score on the measured signal
        (>= 1.0 by construction: the heuristic block is always a seed)."""
        return self.heuristic_ms / self.best_ms if self.best_ms > 0 \
            else 1.0


def _neighbours(block: Block, device: DeviceSpec) -> List[Block]:
    """Factor-of-two moves around *block*, deterministic order."""
    bx, by = block
    raw = [
        (bx * 2, by), (bx // 2, by),
        (bx, by * 2), (bx, by // 2),
        (bx * 2, by // 2), (bx // 2, by * 2),
    ]
    out: List[Block] = []
    for nb in raw:
        if nb[0] >= 1 and nb[1] >= 1 and nb not in out \
                and device.valid_block(nb[0], nb[1]):
            out.append(nb)
    return out


def _launchable(device: DeviceSpec, block: Block, regs: int,
                smem: int) -> bool:
    if not device.valid_block(block[0], block[1]):
        return False
    try:
        compute_occupancy(device, block[0], block[1], regs, smem)
    except MappingError:
        return False
    return True


def _sim_measure(kernel, backend: str, dev: DeviceSpec,
                 cache, compile_options: Dict,
                 repeats: int) -> Callable[[Block], float]:
    """Wall clock of a real simulator execution, best of *repeats*."""
    from ..runtime.compile import compile_kernel

    def measure(block: Block) -> float:
        compiled = compile_kernel(kernel, backend=backend, device=dev,
                                  block=block, cache=cache, tuned=False,
                                  **compile_options)
        best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            compiled.execute()
            best = min(best, (time.perf_counter() - t0) * 1e3)
        return best

    return measure


def _native_measure(kernel, backend: str, dev: DeviceSpec,
                    cache, compile_options: Dict, repeats: int
                    ) -> Tuple[Callable[[Block], float], List[str]]:
    """Wall clock of the native tier running the kernel as a one-node
    graph.  ``engines_seen`` records what actually ran — when the native
    tier is unavailable the wall clock is the simulator's, and the
    session degrades its signal label to ``"sim"``."""
    from ..graph.builder import PipelineGraph
    from ..graph.scheduler import execute_graph

    engines_seen: List[str] = []

    def measure(block: Block) -> float:
        best = float("inf")
        for _ in range(max(1, repeats)):
            graph = PipelineGraph(name=f"tune_{kernel.__class__.__name__}")
            graph.add_kernel(kernel, backend=backend, device=dev,
                             block=block, tuned=False, **compile_options)
            report = execute_graph(graph, cache=cache, fuse=False,
                                   engine="native",
                                   register_metrics=False, lint=False)
            engines_seen.append(report.engine_used)
            best = min(best, report.nodes[0].wall_ms)
        return best

    return measure, engines_seen


def tune_kernel(kernel,
                backend: str = "cuda",
                device: Union[None, str, DeviceSpec] = None,
                engine: str = "sim",
                signal: Optional[str] = None,
                budget: int = 16,
                seed_top: int = 4,
                repeats: int = 3,
                db: Union[None, bool, TunedDatabase] = None,
                persist: bool = True,
                cache=None,
                compile_options: Optional[Dict] = None) -> TuneResult:
    """Search for the fastest block configuration of *kernel* and
    record the winner.

    *engine* names the execution tier the entry is tuned **for**
    (``"sim"`` or ``"native"``) and keys the database record; *signal*
    names the measurement that scores trials (defaults to the engine's
    natural signal; ``"model"`` gives a deterministic, noise-free
    search useful for tests and benchmarks).  *budget* caps the number
    of measured configurations, *seed_top* how many of the
    best-modelled candidates are measured besides the heuristic's
    choice; everything else in the candidate set is pruned on the
    occupancy model's word.  *db* is the target
    :class:`~repro.mapping.optdb.TunedDatabase` (default: the
    process-wide store), ``False`` skips recording entirely, as does
    ``persist=False`` (which still returns the would-be entry).
    """
    from ..cache.key import ir_digest
    from ..mapping.optdb import TUNED_ENGINES
    from ..runtime.compile import compile_kernel

    if engine not in TUNED_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {TUNED_ENGINES}")
    if signal is None:
        signal = "native" if engine == "native" else "sim"
    if signal not in SIGNALS:
        raise ValueError(
            f"unknown signal {signal!r}; expected one of {SIGNALS}")
    compile_options = dict(compile_options or {})
    # idempotent: keeps the "tuner" source alive even after a test or a
    # host swapped/cleared the process registry since import
    get_registry().register_source("tuner", TUNER_STATS.metrics)
    t_start = time.perf_counter()

    with span("tune.search", backend=backend, engine=engine,
              signal=signal, budget=budget) as search_span:
        # ---- baseline compile: Algorithm 2's choice + resource usage ----
        base = compile_kernel(kernel, backend=backend, device=device,
                              cache=cache, tuned=False, **compile_options)
        dev = base.device
        fingerprint = ir_digest(base.ir)
        heuristic_block = (int(base.options.block[0]),
                           int(base.options.block[1]))
        regs = base.resources.registers_per_thread
        smem = base.source.smem_bytes
        search_span.attrs["kernel"] = base.ir.name

        task = ExplorationTask(
            device=dev, mix=base.resources.instruction_mix,
            width=base.iteration_space.width,
            height=base.iteration_space.height,
            window=base.window,
            boundary_mode=base.dominant_boundary_mode(),
            backend=backend, border=base.options.border,
            use_texture=base.options.use_texture,
            mask_memory=base.options.mask_memory,
            regs_per_thread=regs, smem_per_block=smem)

        candidates = candidate_configurations(dev, regs, smem)

        engines_seen: List[str] = []
        if signal == "model":
            def raw_measure(block: Block) -> float:
                return evaluate_block(task, block).time_ms
        elif signal == "sim":
            raw_measure = _sim_measure(kernel, backend, dev, cache,
                                       compile_options, repeats)
        else:
            raw_measure, engines_seen = _native_measure(
                kernel, backend, dev, cache, compile_options, repeats)

        measured: Dict[Block, float] = {}

        def measure(block: Block) -> Optional[float]:
            """Score *block* once; None = budget exhausted or
            unlaunchable (neither consumes a trial twice)."""
            block = (int(block[0]), int(block[1]))
            if block in measured:
                return measured[block]
            if len(measured) >= budget:
                return None
            if not _launchable(dev, block, regs, smem):
                return None
            with span("tune.trial", block=f"{block[0]}x{block[1]}",
                      signal=signal) as sp:
                try:
                    ms = raw_measure(block)
                except LaunchError:
                    return None
                sp.attrs["score_ms"] = ms
            measured[block] = ms
            return ms

        # ---- seed: the heuristic's block first, then the model's top ----
        seeds: List[Block] = [heuristic_block]
        for cand in candidates[:max(0, seed_top)]:
            if cand.block not in seeds:
                seeds.append(cand.block)
        for blk in seeds:
            measure(blk)
        if not measured:
            raise MappingError(
                f"auto-tuner could not measure any configuration of "
                f"{base.ir.name!r} on {dev.name}")

        # ---- refine: factor-of-two hill-climb around the incumbent ------
        best_block = min(sorted(measured), key=lambda b: measured[b])
        improved = True
        while improved and len(measured) < budget:
            improved = False
            for nb in _neighbours(best_block, dev):
                ms = measure(nb)
                if ms is not None and ms < measured[best_block]:
                    best_block = nb
                    improved = True

        best_ms = measured[best_block]
        heuristic_ms = measured[heuristic_block]
        trials = len(measured)
        measured_candidates = sum(1 for c in candidates
                                  if c.block in measured)
        pruned = len(candidates) - measured_candidates

        signal_used = signal
        if signal == "native" and engines_seen \
                and "native" not in engines_seen:
            signal_used = "sim"       # the native tier never actually ran

        # ---- record the winner ------------------------------------------
        entry = fresh_entry(fingerprint, dev.name, backend, engine,
                            best_block, best_ms, signal_used, trials)
        if db is not False and persist:
            target = db if isinstance(db, TunedDatabase) \
                else default_tuned_database()
            target.record(entry)
            TUNER_STATS.bump("records")
        TUNER_STATS.bump("sessions")
        TUNER_STATS.bump("trials", trials)
        TUNER_STATS.bump("pruned", pruned)
        search_span.attrs["trials"] = trials
        search_span.attrs["best"] = f"{best_block[0]}x{best_block[1]}"

        return TuneResult(
            kernel=base.ir.name,
            fingerprint=fingerprint,
            device=dev.name,
            backend=backend,
            engine=engine,
            signal=signal_used,
            best_block=best_block,
            best_ms=best_ms,
            heuristic_block=heuristic_block,
            heuristic_ms=heuristic_ms,
            trials=trials,
            pruned=pruned,
            candidates=len(candidates),
            measurements=dict(measured),
            entry=entry,
            task=task,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
        )


def exhaustive_best(result: TuneResult) -> Tuple[Block, float]:
    """The Figure-4 exhaustive optimum over *result*'s model space.

    Only comparable to a ``signal="model"`` tune (same scorer); used by
    ``benchmarks/bench_autotune.py`` to report the
    heuristic-vs-tuned-vs-exhaustive gap.
    """
    points = run_exploration_task(result.task)
    if not points:
        raise LaunchError("no configuration could be explored")
    best = min(points, key=lambda p: p.time_ms)
    return best.block, best.time_ms
