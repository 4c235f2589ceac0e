"""The four workloads: what each one sends, derived from the seed alone.

Everything a run feeds the system under test is a pure function of
``--seed`` and an index, so the harness can regenerate any input after
the timed phase to check the output it produced:

* :func:`frame` -- the pixels of frame *index* (uniform ``[0, 1)``
  float32, the DSL's default pixel type);
* :func:`open_loop_schedule` -- the open-loop requests of a serve
  workload, with their due times and concurrent identical pairs;
* :func:`closed_loop_pool` -- the requests a closed loop cycles through;
* :func:`compile_pass` -- the seeded jobs of one ``compile_cold`` pass.

A serve workload's *arrival pattern* (its due times and which arrivals
are pairs) is part of the workload's definition, drawn once from the
workload's name, so every seed offers the same load.  The seed draws
the frames and the order of shapes: requests come in blocks that hold
every shape once, shuffled per block, so each run sends the same mix
and a percentile never moves because one seed drew more of the slow
shape.  ``serve_large`` arrives at a fixed interval instead of a
Poisson process: at 1024^2 a run sees about 45 arrivals, and one
Poisson burst of them queues for a second -- the burst, not the
server, would set its percentiles.  Its two shapes simply take turns,
so every seed sends the server the same sequence of allocations.

The constants below are the workload definitions; the README explains
why each one exists and which layer metric should move on it.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import json
import zlib
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: serve request kinds: name -> the request's work description
SERVE_KINDS: Dict[str, Dict[str, Any]] = {
    "edge": {"pipeline": "edge"},
    "denoise": {"pipeline": "denoise"},
    "enhance": {"pipeline": "enhance"},
    "chain": {"chain": [{"op": "gaussian", "size": 3},
                        {"op": "scale", "factor": 2.0}]},
}


@dataclasses.dataclass(frozen=True)
class ServeWorkload:
    """A traffic mix against one ``repro serve`` subprocess."""

    name: str
    #: (kind, square image side) pairs requests are drawn from
    shapes: Tuple[Tuple[str, int], ...]
    #: open-loop arrival rate, requests per second
    rate: float
    #: share of arrivals sent as two concurrent identical requests
    pair_share: float
    #: the open-loop tail percentile the latency limit applies to
    tail_q: float
    #: open-loop latency limit on that percentile, ms
    limit_ms: float
    #: keep (and check) every ``check_every``-th response
    check_every: int
    #: Poisson arrivals; otherwise one arrival every ``1 / rate`` s
    poisson: bool = True
    #: each block of shapes in its own seeded order; otherwise the
    #: shapes take turns in their listed order
    shuffle: bool = True


SERVE_SMALL = ServeWorkload(
    name="serve_small",
    shapes=tuple((kind, n) for kind in SERVE_KINDS for n in (32, 64, 128)),
    rate=8.0, pair_share=0.10, tail_q=0.95, limit_ms=250.0,
    check_every=1)

SERVE_LARGE = ServeWorkload(
    name="serve_large",
    shapes=(("edge", 1024), ("denoise", 1024)),
    rate=2.0, pair_share=0.0, tail_q=0.90, limit_ms=1500.0,
    check_every=10, poisson=False, shuffle=False)

SERVE_WORKLOADS = {w.name: w for w in (SERVE_SMALL, SERVE_LARGE)}

#: library workloads, run in a worker process (:mod:`.worker`)
LIBRARY_WORKLOADS = ("graph_paper", "compile_cold")

WORKLOADS = tuple(SERVE_WORKLOADS) + LIBRARY_WORKLOADS

#: share of a serve run's timed phase spent in the open loop; the rest
#: is the closed loop that measures throughput
OPEN_SHARE = 0.8

#: fewest distinct requests a closed loop cycles through
CLOSED_POOL_MIN = 8

#: concurrent connections (and sending threads) of the load generator:
#: the container has two cores, and the load may not outnumber them
CONNECTIONS = 2

#: generator lateness gate: a run whose p95 send lateness exceeds this
#: measured the generator, not the server, and is invalid
LATENESS_LIMIT_MS = 5.0

#: graph_paper programs: Listing 5's bilateral (sigma_d = 3, a 13x13
#: window, clamp) and the serve ``denoise`` chain, each at its size
BILATERAL_SIDE = 512
BILATERAL_SIGMA_D = 3
BILATERAL_SIGMA_R = 0.1
DENOISE_SIDE = 2048
#: keep every ``GRAPH_CHECK_EVERY``-th frame pair for the output check
GRAPH_CHECK_EVERY = 10
#: frame-pair index of the set-up pair, outside the timed pairs' range
SETUP_PAIR = 10 ** 6

#: the paper's four GPUs as six device/backend targets
COMPILE_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("Tesla C2050", "cuda"), ("Tesla C2050", "opencl"),
    ("Quadro FX 5800", "cuda"), ("Quadro FX 5800", "opencl"),
    ("Radeon HD 5870", "opencl"), ("Radeon HD 6970", "opencl"),
)

# index spaces, so no two streams of one seed ever share a frame; the
# arrival stream is keyed by workload, not by seed
_OPEN, _CLOSED, _WARM, _GRAPH, _ARRIVALS, _BASE = 0, 1, 2, 3, 4, 5


def frame(seed: int, stream: int, index: int, side: int) -> np.ndarray:
    """The pixels of one frame: a pure function of its coordinates.

    The frames of one seed and side share a random base image and each
    has a random first row of its own, so no two frames are equal, yet
    a request body re-encodes only that row (:meth:`Request.body`).
    Encoding a whole 1024^2 frame held the load generator's interpreter
    for 20-40 ms, long enough to delay the other connection's send."""
    pixels = _base_frame(seed, side)
    pixels[0] = _first_row(seed, stream, index, side)
    return pixels


def _base_frame(seed: int, side: int) -> np.ndarray:
    return np.random.default_rng([seed, _BASE, side]).random(
        (side, side), dtype=np.float32)


def _first_row(seed: int, stream: int, index: int, side: int) -> np.ndarray:
    rng = np.random.default_rng([seed, stream, index])
    return rng.random(side, dtype=np.float32)


@functools.lru_cache(maxsize=None)
def _shared_tail(seed: int, side: int) -> Tuple[bytes, bytes]:
    """What every frame of *seed* and *side* shares past its own first
    row: the base bytes up to the next whole base64 group of 3 bytes,
    and the base64 of the rest."""
    data = _base_frame(seed, side).tobytes()
    own = -(-side * 4 // 3) * 3
    return data[side * 4:own], base64.b64encode(data[own:])


@dataclasses.dataclass(frozen=True)
class Request:
    """One serve request: which work, on which frame, due when."""

    kind: str
    side: int
    #: (stream, index) coordinates of the frame in :func:`frame`
    frame_id: Tuple[int, int]
    #: seconds after the start of the loop (open loop only)
    due: float = 0.0
    #: second member of a concurrent identical pair
    duplicate: bool = False

    def pixels(self, seed: int) -> np.ndarray:
        return frame(seed, self.frame_id[0], self.frame_id[1], self.side)

    def body(self, seed: int) -> bytes:
        """The ``POST /v1/execute`` body of this request's frame,
        assembled as bytes around the base64 payload: the frame's own
        head is encoded here, the shared rest comes encoded from the
        cache, and a 4 MB frame costs one copy."""
        stream, index = self.frame_id
        gap, rest = _shared_tail(seed, self.side)
        own = _first_row(seed, stream, index, self.side).tobytes() + gap
        return b"".join((
            json.dumps(SERVE_KINDS[self.kind])[:-1].encode(),
            b', "image": {"dtype": "float32", "shape": [',
            f"{self.side}, {self.side}".encode(), b'], "data_b64": "',
            base64.b64encode(own), rest,
            b'"}}'))


def _shape(spec: ServeWorkload, seed: int, stream: int,
           index: int) -> Tuple[str, int]:
    """Shape of request *index*: blocks of every shape once, each block
    in its own seeded order unless the workload takes turns."""
    n = len(spec.shapes)
    if not spec.shuffle:
        return spec.shapes[index % n]
    order = np.random.default_rng([seed, stream, _ARRIVALS, index // n])
    return spec.shapes[int(order.permutation(n)[index % n])]


def open_loop_schedule(spec: ServeWorkload, seed: int,
                       seconds: float) -> List[Request]:
    """Arrivals at ``spec.rate`` over *seconds*; ``spec.pair_share`` of
    them (rounded) are concurrent identical pairs."""
    arrivals = np.random.default_rng(
        [_ARRIVALS, zlib.crc32(spec.name.encode())])
    due: List[float] = []
    t = 0.0
    while True:
        t += (float(arrivals.exponential(1.0 / spec.rate)) if spec.poisson
              else 1.0 / spec.rate)
        if t >= seconds:
            break
        due.append(t)
    pairs = set(arrivals.choice(len(due), round(spec.pair_share * len(due)),
                                replace=False).tolist())
    out: List[Request] = []
    for index, t in enumerate(due):
        kind, side = _shape(spec, seed, _OPEN, index)
        req = Request(kind, side, (_OPEN, index), due=t)
        out.append(req)
        if index in pairs:
            out.append(dataclasses.replace(req, duplicate=True))
    return out


def split_schedule(schedule: List[Request], seconds: float,
                   parts: int) -> List[List[Request]]:
    """*schedule* over *seconds* cut into *parts* consecutive stretches
    of equal length, each one's due times counted from its own start."""
    length = seconds / parts
    out: List[List[Request]] = [[] for _ in range(parts)]
    for req in schedule:
        k = min(int(req.due // length), parts - 1)
        out[k].append(dataclasses.replace(req, due=req.due - k * length))
    return out


def closed_loop_pool(spec: ServeWorkload, seed: int) -> List[Request]:
    """The distinct requests the closed loop cycles through: whole
    blocks of shapes, at least :data:`CLOSED_POOL_MIN` of them.  Bodies
    are built once, before the loop, so the generator's own CPU time
    does not compete with the server's; the service caches no results,
    and with more pool entries than connections no two identical
    requests are ever in flight together."""
    n = len(spec.shapes)
    size = -(-CLOSED_POOL_MIN // n) * n
    return [Request(*_shape(spec, seed, _CLOSED, k), (_CLOSED, k))
            for k in range(size)]


def warm_requests(spec: ServeWorkload) -> List[Request]:
    """One request per shape: the set-up that leaves every shape warm."""
    return [Request(kind, side, (_WARM, i))
            for i, (kind, side) in enumerate(spec.shapes)]


def graph_frames(seed: int, pair: int) -> Tuple[np.ndarray, np.ndarray]:
    """Inputs of graph_paper frame pair *pair*: (bilateral, denoise)."""
    return (frame(seed, _GRAPH, 2 * pair, BILATERAL_SIDE),
            frame(seed, _GRAPH, 2 * pair + 1, DENOISE_SIDE))


def bilateral_graph(pixels: np.ndarray):
    """Listing 5's bilateral as a one-node graph: ``(graph, output)``."""
    from repro.dsl import (Accessor, Boundary, BoundaryCondition, Image,
                           IterationSpace)
    from repro.filters.bilateral import BilateralFilter, closeness_mask
    from repro.graph import PipelineGraph

    h, w = pixels.shape
    window = 4 * BILATERAL_SIGMA_D + 1
    src = Image(w, h, float, name="bilateral_src")
    src.set_data(pixels)
    out = Image(w, h, float, name="bilateral_out")
    graph = PipelineGraph("bilateral13")
    graph.add_kernel(BilateralFilter(
        IterationSpace(out),
        Accessor(BoundaryCondition(src, window, window, Boundary.CLAMP)),
        closeness_mask(BILATERAL_SIGMA_D), BILATERAL_SIGMA_D,
        BILATERAL_SIGMA_R), name="bilateral")
    graph.mark_output(out)
    return graph, out


def denoise_graph(pixels: np.ndarray):
    """The serve ``denoise`` chain through the public planner."""
    from repro.serve.planner import plan_request

    plan = plan_request(dict(SERVE_KINDS["denoise"]), pixels)
    return plan.graph, plan.output


def compile_pass(seed: int, pass_index: int):
    """One compile_cold pass: fresh builtin kernels, a fresh in-memory
    ``CompilationCache`` and an empty tuned database.  Returns the cache
    and the pass's ``(key, call)`` jobs in seeded order, where ``call()``
    is one ``compile_kernel`` and *key* names its kernel x target."""
    from repro.cache import CompilationCache
    from repro.lint.builtin import builtin_kernels
    from repro.mapping.optdb import TunedDatabase
    from repro.runtime.compile import compile_kernel

    kernels = builtin_kernels()
    cache = CompilationCache()
    tuned = TunedDatabase()
    pairs = [(k, t) for k in range(len(kernels))
             for t in range(len(COMPILE_TARGETS))]
    order = np.random.default_rng([seed, pass_index]).permutation(len(pairs))
    jobs = []
    for k, t in (pairs[i] for i in order):
        device, backend = COMPILE_TARGETS[t]
        jobs.append((f"{k}:{t}", functools.partial(
            compile_kernel, kernels[k], backend=backend, device=device,
            cache=cache, tuned=tuned)))
    return cache, jobs


def code_digest(codes: Dict[str, str]) -> str:
    """Digest of one pass's device code, independent of compile order."""
    return hashlib.sha256(json.dumps(
        {key: hashlib.sha256(code.encode()).hexdigest()
         for key, code in codes.items()}, sort_keys=True).encode()
    ).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (``0 <= q <= 1``), interpolated linearly between
    the two nearest samples; a failure's ``inf`` among them makes it
    ``inf``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = q * (len(ordered) - 1)
    lo, hi = int(np.floor(pos)), int(np.ceil(pos))
    if np.isinf(ordered[hi]):
        return float("inf")
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def class_percentile(classes: Dict[Any, Sequence[float]], q: float) -> float:
    """Geometric mean over operation classes (a request kind, a
    program, a kernel x target) of each class's *q*-quantile.

    Classes differ in cost by up to 100x, so a quantile of the pooled
    samples lands in the gap between two classes' clusters and jumps
    with every small shift in their sizes.  Per class the quantile is
    well conditioned, and the geometric mean weighs each class's
    relative change equally, so a 20% gain on one of *n* classes moves
    the result by the same share whatever that class costs."""
    values = [percentile(v, q) for v in classes.values() if len(v)]
    if not values:
        return float("nan")
    if any(np.isinf(values)):
        return float("inf")
    return float(np.exp(np.mean(np.log(values))))
