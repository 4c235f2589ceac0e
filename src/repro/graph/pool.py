"""The memory plan of a prepared graph, and the arena that backs it.

A naive pipeline materialises one fresh buffer per intermediate image
and keeps all of them alive to the end — exactly what the hand chained
examples did.  A prepared graph runs its nodes serially in topological
order, so that order is happens-before: :func:`plan_memory` gives every
intermediate a byte offset at prepare time (:func:`first_fit_layout`),
and two intermediates share bytes only when the last reader of one runs
before the writer of the other.  Peak footprint follows the live set of
the schedule, not the number of edges.

Both execution tiers use the one plan, and no layout is compiled into
native code: a native segment takes every image through its pointer
table (:mod:`repro.runtime.native_graph`).  A run takes one piece of
the plan's size from the caller's :class:`BufferPool` arena.  Tenants
are pre-padded to their writer's device alignment
(:func:`repro.sim.launch.padding_alignment`), so the launch-time
``apply_padding`` never swaps a planned view for a fresh allocation.
Graph outputs stay out of the arena: they keep their own storage from
run to run.  An image is zeroed before its writer's schedule step runs
only when the writer's iteration space leaves some of its pixels
unwritten (:func:`covers_output`); :meth:`HostWrite.prepare` is the one
place either tier zeroes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dsl.image import Image
from ..sim.launch import padding_alignment

#: every arena tenant starts on this byte boundary (a cache line, and a
#: multiple of every pixel type's size)
TENANT_ALIGNMENT = 64


@dataclasses.dataclass
class PoolStats:
    """The memory plan of one prepared graph."""

    #: bytes a naive executor would allocate (every intermediate its own
    #: buffer, all live simultaneously)
    naive_bytes: int = 0
    #: high-water mark of the planned intermediates
    peak_bytes: int = 0
    #: tenants the layout placed past the high-water mark so far
    allocs: int = 0
    #: tenants the layout placed in bytes a dead tenant had used
    reuses: int = 0

    @property
    def saved_bytes(self) -> int:
        return max(0, self.naive_bytes - self.peak_bytes)

    def metrics(self) -> Dict[str, int]:
        """The canonical ``pool.*`` metrics namespace
        (:mod:`repro.obs.metrics`)."""
        return {
            "pool.naive_bytes": self.naive_bytes,
            "pool.peak_bytes": self.peak_bytes,
            "pool.allocs": self.allocs,
            "pool.reuses": self.reuses,
        }

    def summary(self) -> str:
        return (f"naive {self.naive_bytes / 1024:.1f} KiB -> peak "
                f"{self.peak_bytes / 1024:.1f} KiB "
                f"({self.saved_bytes / 1024:.1f} KiB saved), "
                f"{self.allocs} allocs, {self.reuses} reuses")


def first_fit_layout(requests: List[Tuple[int, int, int]]
                     ) -> Tuple[List[int], int, int, int]:
    """Static first-fit offset assignment over lifetime intervals.

    *requests* is a list of ``(start, end, nbytes)`` tuples (inclusive
    interval of schedule positions during which the buffer is live).
    Returns ``(offsets, high_water, allocs, reuses)`` where *offsets*
    parallels *requests*.
    """
    offsets: List[int] = []
    high_water = 0
    allocs = reuses = 0
    placed: List[Tuple[int, int, int, int]] = []  # (off, size, start, end)
    for start, end, nbytes in requests:
        active = sorted((off, size) for off, size, s, e in placed
                        if s <= end and start <= e)
        pos = 0
        for off, size in active:
            if off - pos >= nbytes:
                break
            pos = max(pos, off + size)
        if pos + nbytes <= high_water:
            reuses += 1
        else:
            allocs += 1
        placed.append((pos, nbytes, start, end))
        offsets.append(pos)
        high_water = max(high_water, pos + nbytes)
    return offsets, high_water, allocs, reuses


def padded_stride(width: int, alignment: int) -> int:
    """*width* rounded up to a multiple of *alignment* elements."""
    return -(-width // alignment) * alignment


def covers_output(node) -> bool:
    """Whether *node*'s iteration space writes every pixel of its output
    image — then whatever the image's bytes held before is all
    overwritten, and they need no zeroing first."""
    space, img = node.iteration_space, node.output
    return (space.offset_x == 0 and space.offset_y == 0
            and space.width == img.width and space.height == img.height)


@dataclasses.dataclass
class HostWrite:
    """An image one schedule step writes."""

    image: Image
    #: the writer leaves some pixels unwritten: zero the image first
    zero: bool
    #: byte offset into the run's arena piece; ``None`` for a graph
    #: output, which keeps its own storage
    offset: Optional[int] = None
    #: arena row stride in elements
    stride: int = 0

    def bind(self, piece: np.ndarray) -> None:
        """Back the image with its planned view of *piece*."""
        img = self.image
        dtype = img.pixel_type.np_dtype
        nbytes = img.height * self.stride * dtype.itemsize
        view = piece[self.offset:self.offset + nbytes].view(dtype)
        img._data = view.reshape(img.height, self.stride)
        img._stride = self.stride

    def prepare(self) -> None:
        """Give the image fresh-Image contents where its writer will not
        write, just before the writer runs."""
        img = self.image
        if not img._data.flags.writeable:
            img.clear()             # storage dropped by a release()
        elif self.zero:
            img._data.fill(0)


@dataclasses.dataclass
class MemoryPlan:
    """Where every image a run writes lives, fixed at prepare time."""

    #: per schedule step, the images it writes
    writes: List[List[HostWrite]]
    #: the arena tenants among them
    tenants: List[HostWrite]
    stats: PoolStats

    def bind(self, arena: "BufferPool") -> None:
        """Take this plan's piece of *arena* and bind every tenant to
        its view."""
        piece = arena.frame(self.stats.peak_bytes)
        for write in self.tenants:
            write.bind(piece)


def plan_memory(graph, order, schedule: List[Tuple[str, int]],
                native=None) -> MemoryPlan:
    """Lay out every image the steps of *schedule* write.

    *schedule* is the run's serial step list — ``("sim", node index)``
    or ``("native", segment)`` — and *native* the
    :class:`~repro.runtime.native_graph.NativeGraphPlan` whose segments
    it refers to (``None`` on the simulator tier).  Lifetimes are
    counted in positions of *order*: the steps run its nodes in order,
    a segment a contiguous run of them, so bytes are reused inside a
    segment too.  A tenant whose writer leaves pixels unwritten is live
    from the first position of its writer's step, where it is zeroed.
    """
    step_of: List[int] = [0] * len(order)
    step_start: List[int] = []
    for step, (kind, idx) in enumerate(schedule):
        members = native.segments[idx] if kind == "native" else (idx,)
        step_start.append(members[0])
        for i in members:
            step_of[i] = step
    position = {id(node): i for i, node in enumerate(order)}
    intermediates = {id(img) for img in graph.intermediates()}
    writes: List[List[HostWrite]] = [[] for _ in schedule]
    tenants: List[HostWrite] = []
    requests: List[Tuple[int, int, int]] = []
    naive_bytes = 0
    for i, node in enumerate(order):
        img = node.output
        write = HostWrite(img, zero=not covers_output(node))
        writes[step_of[i]].append(write)
        if id(img) not in intermediates:
            continue
        write.stride = padded_stride(
            img.width, padding_alignment(node.compiled.device))
        nbytes = (img.height * write.stride
                  * img.pixel_type.np_dtype.itemsize)
        naive_bytes += nbytes
        start = step_start[step_of[i]] if write.zero else i
        end = max(position[id(c)] for c in graph.consumers_of(img))
        requests.append((start, end, -(-nbytes // TENANT_ALIGNMENT)
                         * TENANT_ALIGNMENT))
        tenants.append(write)
    offsets, peak_bytes, allocs, reuses = first_fit_layout(requests)
    for write, offset in zip(tenants, offsets):
        write.offset = offset
    return MemoryPlan(writes=writes, tenants=tenants,
                      stats=PoolStats(naive_bytes=naive_bytes,
                                      peak_bytes=peak_bytes,
                                      allocs=allocs, reuses=reuses))


class BufferPool:
    """One caller's arena: a grow-only byte buffer that backs the memory
    plan of whatever graph the caller runs next.

    :meth:`frame` returns a view of the buffer and reallocates it only
    when a plan needs more bytes than it holds; :attr:`allocs` counts
    those growths.  A caller runs one graph at a time on its arena (each
    ``repro serve`` worker thread owns one), and a run's intermediates
    are only valid until the next run on the same arena.
    """

    def __init__(self):
        self._buf = np.empty(0, dtype=np.uint8)
        self.allocs = 0

    def frame(self, nbytes: int) -> np.ndarray:
        """The arena's first *nbytes* bytes (contents unspecified)."""
        if nbytes > self._buf.size:
            self._buf = np.empty(nbytes, dtype=np.uint8)
            self.allocs += 1
        return self._buf[:nbytes]

    # benchmarks/suite/replay.py still mirrors the old runtime pool with
    # bind/release/release_all, and that file changes only with the
    # benchmark definition (ROADMAP item 2); delete these three then

    def bind(self, image: Image, alignment: int = 1) -> None:
        image.clear()
        image.apply_padding(alignment)

    def release(self, image: Image) -> None:
        pass

    def release_all(self) -> None:
        pass
