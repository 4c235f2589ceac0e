"""Host speed: a fixed reference workload timed around each operation.

The benchmark runs on a few cores of a shared host whose speed changes
as other tenants come and go: a 5 ms interpreter loop flips between
about 4.2 and 6 ms in stretches of a few seconds, its median over a
run moves by up to half from one half-hour to the next, and the
library's operations slow down with it.  Two runs of the same code so
differ by more than a regression bound.

The harness therefore times :func:`probe` -- a fixed piece of
interpreter work that no change to the library can touch -- while the
system under test is idle, at intervals through the timed phase:

* between operations, in the worker process of a library workload;
* in the harness process during the open loop's idle gaps on a serve
  workload, when no request is in flight or being built and none is due
  soon (:class:`~.load.IdleGate`);
* in a burst just before and just after each set-up.

Each operation's time is then divided by the *host factor* of the
probes that bracket it (:class:`Timeline`): the last probe before it
and the first after it, over :data:`PROBE_REF_MS`, the probe's time on
the reference host.  Timing metrics are so reported at reference speed;
the raw values stay in the run's ``info``.  Over 19 consecutive 30 s
stretches of ``graph_paper`` frames, the raw geometric-mean frame time
spread by 11.6% (quartile distance over the median), by 7.0% when
divided by each stretch's median probe, and by 2.0% when each frame is
divided by the probes around it.

The serve closed loop is the exception: it keeps both cores busy, so
no probe can run inside it, and its throughput does not follow the
probe.  Over 15 minutes of alternating 3 s closed loops and probe
bursts, dividing by the probe widened the spread of 3 s throughputs
from 7% to 14% (``serve_small``) and from 11% to 14%
(``serve_large``).  Throughput there is reported as measured.

The probe runs only while the system under test is idle, so a change
that makes the program busier or idler cannot move it.

One interpreter thread cannot see whether the host's two cores really
run in parallel, and that changes too: for ten minutes or more at a
time, two threads doing the same NumPy work at once take twice as long
as one alone, and then only 1.3 times as long.  graph_paper's
``denoise`` frames run OpenMP on both cores and follow that switch
(165-200 ms against 110-130 ms at 2048^2), while the probe and the
single-threaded bilateral frames do not.  So a second probe,
:func:`pair_probe`, times the same NumPy work on two threads at once,
and ``denoise`` frames are scaled by it instead.  Over 60 fresh worker
processes in the serial state and 17 in the parallel one, the
geometric-mean frame time moved by 22% between the states when both
programs were scaled by :func:`probe`, and by 2% when ``denoise`` was
scaled by :func:`pair_probe`; five runs of each state together spread
by 3.4% instead of 24.5%.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: the probe's time on the reference host (a 2-vCPU VM, Python 3.11,
#: in its faster state), ms; a host factor of 1.0 means that speed
PROBE_REF_MS = 4.2

#: :func:`pair_probe`'s time on the same host with both cores running
#: in parallel, ms
PAIR_REF_MS = 3.2

#: least time between two probes in a timed phase, seconds
PROBE_EVERY_S = 0.25

#: probes in the burst before and after each set-up
SETUP_PROBES = 5

_ITERATIONS = 60_000

#: one probe: (``time.perf_counter()`` when it started, its ms)
Sample = Tuple[float, float]


def probe() -> float:
    """Run the reference workload once and return its wall time in ms.

    An integer loop in the interpreter.  It allocates no container, so
    its time does not depend on the heap of the process it runs in: a
    dictionary-building probe paid for the garbage collector walking
    the worker's caches, and over-reacted to the host by 1.5x where
    this loop tracks the compiles with a slope of 1.0."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ITERATIONS):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


_PAIR_SHAPE = (512, 1024)
_pair_buffers: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None


def _pair_work(src: np.ndarray, dst: np.ndarray) -> None:
    for _ in range(6):
        np.add(src[:, 1:], src[:, :-1], out=dst[:, 1:])


def pair_probe() -> float:
    """Run a fixed NumPy loop on two threads at once and return the
    wall time in ms.  NumPy releases the interpreter lock in ``add``, so
    the two threads run in parallel exactly when the host lets them.
    Each thread has its own 2 MB arrays, allocated on the first call."""
    global _pair_buffers
    if _pair_buffers is None:
        base = np.random.default_rng(0).random(_PAIR_SHAPE, dtype=np.float32)
        _pair_buffers = [(base.copy(), np.empty_like(base)) for _ in (0, 1)]
    (src, dst), helper_bufs = _pair_buffers
    helper = threading.Thread(target=_pair_work, args=helper_bufs)
    t0 = time.perf_counter()
    helper.start()
    _pair_work(src, dst)
    helper.join()
    return (time.perf_counter() - t0) * 1e3


def sample() -> Sample:
    """One probe, stamped with its start."""
    return time.perf_counter(), probe()


def pair_sample() -> Sample:
    """One :func:`pair_probe`, stamped with its start."""
    return time.perf_counter(), pair_probe()


def burst(count: int = SETUP_PROBES) -> List[Sample]:
    """*count* probes back to back."""
    return [sample() for _ in range(count)]


class Timeline:
    """The probes of one run, to scale operations timed on the same
    clock (``time.perf_counter``) to reference speed; *ref_ms* is the
    probe's time at that speed (:data:`PAIR_REF_MS` for pair probes)."""

    def __init__(self, samples: Sequence[Sample],
                 ref_ms: float = PROBE_REF_MS):
        if not samples:
            raise ValueError("no probe samples")
        ordered = sorted(samples)
        self._times = [t for t, _ in ordered]
        self._ms = [ms for _, ms in ordered]
        self.ref_ms = ref_ms

    def __len__(self) -> int:
        return len(self._ms)

    @property
    def median_ms(self) -> float:
        return statistics.median(self._ms)

    def factor(self, start: float, end: float) -> float:
        """Host factor around an operation from *start* to *end*: the
        mean of the last probe before it and the first after it (of
        every probe, should it span them all) over the reference."""
        before = bisect.bisect_right(self._times, start) - 1
        after = bisect.bisect_left(self._times, end)
        near = [self._ms[i] for i in (before, after)
                if 0 <= i < len(self._ms)] or self._ms
        return statistics.fmean(near) / self.ref_ms

    def scaled(self, ms: float, end: float) -> float:
        """*ms* of an operation that ended at *end*, at reference
        speed."""
        return ms / self.factor(end - ms / 1e3, end)
