"""The system under test of the library workloads, in its own process.

Started by the harness as ``python -m benchmarks.suite.worker WORKLOAD
SEED WORKDIR``.  It imports the library, runs the workload's set-up
(one frame pair, or one compile pass, cold) and prints one JSON line.
Then it answers commands, one JSON line each way over stdin/stdout:

* ``{"op": "run", "seconds": S}`` -- drive the workload for *S* seconds
  and reply with every operation's wall time and end (``inf`` for one
  that raised), and the :mod:`.pace` probes run between operations;
  outputs kept for the harness's check are saved as ``.npy`` files in
  WORKDIR;
* ``{"op": "quit"}`` -- exit.

Library code that prints would corrupt the channel, so ``sys.stdout``
is pointed at stderr and replies go to the original stream.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from . import pace, workloads


class _Phase:
    """A timed phase of *seconds* made of whole operations (a frame
    pair, a compile pass).  Another one starts only if, taking as long
    as the last, it would end less than half its length past the end,
    so the phase lasts *seconds* on average instead of overrunning by
    half an operation."""

    def __init__(self, start: float, seconds: float):
        self.end = start + seconds
        self.started = start
        self.last = 0.0

    def another(self) -> bool:
        now = time.perf_counter()
        self.last, self.started = now - self.started, now
        return now + self.last / 2 <= self.end


class GraphPaper:
    """Alternating bilateral / denoise frames over one shared cache."""

    def __init__(self, seed: int, workdir: str):
        from repro.cache import CompilationCache

        self.seed = seed
        self.workdir = workdir
        self.cache = CompilationCache()

    def _frame(self, build, pixels) -> np.ndarray:
        from repro.graph.scheduler import execute_graph

        graph, out = build(pixels)
        execute_graph(graph, cache=self.cache, engine="auto", workers=1)
        return out.get_data()

    def pair(self, index: int,
             probes: Optional[List[pace.Sample]] = None,
             pair_probes: Optional[List[pace.Sample]] = None):
        """One bilateral and one denoise frame, each as ``(ms, end)``;
        with the probe lists, a probe precedes each frame and a pair
        probe (:func:`~.pace.pair_probe`) the two-threaded denoise,
        outside both frames' times."""
        bil_in, den_in = workloads.graph_frames(self.seed, index)
        if probes is not None:
            probes.append(pace.sample())
        t0 = time.perf_counter()
        bil = self._frame(workloads.bilateral_graph, bil_in)
        t1 = time.perf_counter()
        if probes is not None:
            probes.append(pace.sample())
            pair_probes.append(pace.pair_sample())
        t2 = time.perf_counter()
        den = self._frame(workloads.denoise_graph, den_in)
        t3 = time.perf_counter()
        return [(t1 - t0) * 1e3, t1], [(t3 - t2) * 1e3, t3], bil, den

    def setup(self) -> Dict[str, Any]:
        self.pair(workloads.SETUP_PAIR)
        return {}

    def run(self, seconds: float) -> Dict[str, Any]:
        bilateral: List[List[float]] = []
        denoise: List[List[float]] = []
        probes: List[pace.Sample] = []
        pair_probes: List[pace.Sample] = []
        kept = []
        start = time.perf_counter()
        phase = _Phase(start, seconds)
        index = 0
        while phase.another():
            try:
                b_op, d_op, bil, den = self.pair(index, probes, pair_probes)
            except Exception as exc:   # noqa: BLE001 - counted, reported
                print(f"pair {index} failed: {exc!r}", file=sys.stderr)
                b_op = d_op = [float("inf"), time.perf_counter()]
            else:
                if index % workloads.GRAPH_CHECK_EVERY == 0:
                    paths = []
                    for tag, arr in (("bilateral", bil), ("denoise", den)):
                        path = os.path.join(self.workdir,
                                            f"pair{index}_{tag}.npy")
                        np.save(path, arr)
                        paths.append(path)
                    kept.append([index] + paths)
            bilateral.append(b_op)
            denoise.append(d_op)
            index += 1
        elapsed = _elapsed(start, probes + pair_probes)
        probes.append(pace.sample())
        pair_probes.append(pace.pair_sample())
        return {"classes": {"bilateral": bilateral, "denoise": denoise},
                "elapsed_s": elapsed, "probes": probes,
                "pair_probes": pair_probes, "kept": kept}


class CompileCold:
    """Passes of every builtin kernel over the paper's six targets."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.passes = 0
        self.next_probe = 0.0

    def one_pass(self, probes: Optional[List[pace.Sample]] = None
                 ) -> Dict[str, Any]:
        """One pass, each compile timed as ``(ms, end)``; with
        *probes*, a probe runs between two compiles whenever
        :data:`~.pace.PROBE_EVERY_S` has passed since the last."""
        _, jobs = workloads.compile_pass(self.seed, self.passes)
        self.passes += 1
        times: Dict[str, List[float]] = {}
        codes: Dict[str, str] = {}
        failed = 0
        for key, call in jobs:
            if (probes is not None
                    and time.perf_counter() >= self.next_probe):
                probes.append(pace.sample())
                self.next_probe = time.perf_counter() + pace.PROBE_EVERY_S
            t0 = time.perf_counter()
            try:
                compiled = call()
            except Exception as exc:   # noqa: BLE001 - counted, reported
                print(f"compile {key} failed: {exc!r}", file=sys.stderr)
                failed += 1
                times[key] = [float("inf"), time.perf_counter()]
                continue
            t1 = time.perf_counter()
            times[key] = [(t1 - t0) * 1e3, t1]
            codes[key] = compiled.device_code
        return {"times": times, "failed": failed,
                "digest": workloads.code_digest(codes),
                "code_bytes": sum(len(c.encode()) for c in codes.values())}

    def setup(self) -> Dict[str, Any]:
        first = self.one_pass()
        return {"digest": first["digest"], "failed": first["failed"],
                "code_bytes": first["code_bytes"]}

    def run(self, seconds: float) -> Dict[str, Any]:
        classes: Dict[str, List[List[float]]] = {}
        digests: List[str] = []
        probes: List[pace.Sample] = []
        start = time.perf_counter()
        phase = _Phase(start, seconds)
        while phase.another():
            result = self.one_pass(probes)
            for key, op in result["times"].items():
                classes.setdefault(key, []).append(op)
            digests.append(result["digest"])
        elapsed = _elapsed(start, probes)
        probes.append(pace.sample())
        return {"classes": classes, "elapsed_s": elapsed,
                "probes": probes, "digests": digests}


def _elapsed(start: float, probes: List[pace.Sample]) -> float:
    """Seconds since *start*, without the time spent in *probes*."""
    return time.perf_counter() - start - sum(ms for _, ms in probes) / 1e3


RUNNERS = {"graph_paper": GraphPaper, "compile_cold": CompileCold}


def main(argv: List[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    channel = sys.stdout
    sys.stdout = sys.stderr

    def reply(doc: Dict[str, Any]) -> None:
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    runner = RUNNERS[workload](seed, workdir)
    reply({"ready": True, **runner.setup()})
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "run":
            reply(runner.run(float(command["seconds"])))
        elif command["op"] == "quit":
            break
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
