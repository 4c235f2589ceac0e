"""Static analyses over the kernel IR.

* :func:`read_accessors` — the paper's read analysis (Section IV-A): the
  accessors a kernel reads.  The backends use it to pick texture read
  paths and to emit OpenCL ``read_only``/``write_only`` qualifiers.

* :func:`read_offset_bounds` — the bounded-offset rule: per accessor
  read, constant bounds on its offsets from constants and constant-trip
  loop variables.  It separates lint's HIP107 from HIP401 and decides
  HIP204.

* :func:`max_window` — the largest accessor window, which sizes the
  nine-region border dispatch (Section IV-B) in codegen and simulator.

* :func:`count_instruction_mix` — a weighted dynamic instruction count per
  output pixel (ALU ops, SFU/transcendental ops, memory reads), feeding the
  resource estimator and the analytical timing model.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from ..intrinsics import resolve
from .nodes import (
    AccessorRead,
    Assign,
    BinOp,
    Call,
    Cast,
    Expr,
    ForRange,
    If,
    KernelIR,
    MaskRead,
    OutputWrite,
    Select,
    Stmt,
    UnOp,
    VarDecl,
    VarRef,
    const_int_value,
)
from .visitors import iter_all_exprs, stmt_exprs, walk_exprs


# --------------------------------------------------------------------------
# Accesses
# --------------------------------------------------------------------------


def read_accessors(kernel: KernelIR) -> Set[str]:
    """Names of the accessors *kernel* reads (paper Section IV-A)."""
    return {e.accessor for e in iter_all_exprs(kernel.body)
            if isinstance(e, AccessorRead)}


def max_window(kernel: KernelIR, *extra: Tuple[int, int]
               ) -> Tuple[int, int]:
    """Largest accessor window, and of any *extra* (width, height) sizes
    ("In case multiple Accessors are used within one kernel, the largest
    window size specified is taken", Section IV-B)."""
    sizes = [a.window for a in kernel.accessors] + list(extra)
    return (max([1] + [w for w, _ in sizes]),
            max([1] + [h for _, h in sizes]))


def loop_trip(s: ForRange) -> Optional[Tuple[int, int, int]]:
    """(trip count, min, max of the loop variable) of a loop with
    constant bounds, else None; a zero-trip loop's range is its start."""
    start = const_int_value(s.start)
    stop = const_int_value(s.stop)
    step = const_int_value(s.step)
    if None in (start, stop, step) or step == 0:
        return None
    n = max(0, (stop - start + (step - (1 if step > 0 else -1))) // step)
    last = start + (max(n, 1) - 1) * step
    return n, min(start, last), max(start, last)


#: (min_dx, max_dx, min_dy, max_dy) of one read's offsets, inclusive
OffsetBounds = Tuple[int, int, int, int]


def read_offset_bounds(body: Sequence[Stmt],
                       env: Optional[Dict[str, Tuple[int, int]]] = None
                       ) -> Iterator[Tuple[AccessorRead,
                                           Optional[OffsetBounds]]]:
    """Every accessor read in *body* with the bounds of its offsets under
    the bounded-offset rule: constants and the value ranges of enclosing
    constant-trip loop variables, combined by ``+``, ``-``, ``*`` and
    negation.  None when the rule cannot bound dx or dy."""
    env = {} if env is None else env
    for s in body:
        if isinstance(s, ForRange):
            inner = dict(env)
            trip = loop_trip(s)
            if trip is not None and trip[0] > 0:
                inner[s.var] = trip[1:]
            yield from read_offset_bounds(s.body, inner)
        elif isinstance(s, If):
            yield from read_offset_bounds(s.then_body, env)
            yield from read_offset_bounds(s.else_body, env)
        for e in stmt_exprs(s):
            for sub in walk_exprs(e):
                if isinstance(sub, AccessorRead):
                    bx = _offset_bounds(sub.dx, env)
                    by = _offset_bounds(sub.dy, env)
                    yield sub, (None if bx is None or by is None
                                else bx + by)


def _offset_bounds(e: Expr, ranges: Dict[str, Tuple[int, int]]
                   ) -> Optional[Tuple[int, int]]:
    """Conservative (min, max) bounds of integer expression *e* under loop
    variable *ranges*; None when not statically bounded."""
    c = const_int_value(e)
    if c is not None:
        return (c, c)
    if isinstance(e, Cast):
        return _offset_bounds(e.operand, ranges)
    if isinstance(e, VarRef) and e.name in ranges:
        return ranges[e.name]
    if isinstance(e, UnOp) and e.op == "-":
        b = _offset_bounds(e.operand, ranges)
        if b is not None:
            return (-b[1], -b[0])
    if isinstance(e, BinOp) and e.op in ("+", "-", "*"):
        lb = _offset_bounds(e.lhs, ranges)
        rb = _offset_bounds(e.rhs, ranges)
        if lb is None or rb is None:
            return None
        if e.op == "+":
            return (lb[0] + rb[0], lb[1] + rb[1])
        if e.op == "-":
            return (lb[0] - rb[1], lb[1] - rb[0])
        candidates = [a * b for a in lb for b in rb]
        return (min(candidates), max(candidates))
    return None


# --------------------------------------------------------------------------
# Instruction-mix estimation
# --------------------------------------------------------------------------


@dataclasses.dataclass
class InstructionMix:
    """Weighted dynamic operation counts per output pixel."""

    alu: float = 0.0            # simple arithmetic/logic ops
    sfu: float = 0.0            # transcendental ops in ALU-op equivalents
    global_reads: float = 0.0   # accessor reads (pre-lowering)
    mask_reads: float = 0.0
    branches: float = 0.0
    #: distinct (accessor, dx, dy) sites when statically enumerable —
    #: used for redundancy/data-reuse estimation
    reads_by_accessor: Dict[str, float] = dataclasses.field(
        default_factory=dict)

    @property
    def total_compute(self) -> float:
        return self.alu + self.sfu

    def scaled(self, factor: float) -> "InstructionMix":
        return InstructionMix(
            alu=self.alu * factor,
            sfu=self.sfu * factor,
            global_reads=self.global_reads * factor,
            mask_reads=self.mask_reads * factor,
            branches=self.branches * factor,
            reads_by_accessor={k: v * factor
                               for k, v in self.reads_by_accessor.items()},
        )

    def add(self, other: "InstructionMix") -> None:
        self.alu += other.alu
        self.sfu += other.sfu
        self.global_reads += other.global_reads
        self.mask_reads += other.mask_reads
        self.branches += other.branches
        for k, v in other.reads_by_accessor.items():
            self.reads_by_accessor[k] = self.reads_by_accessor.get(k, 0) + v


#: ALU-op cost of plain operators (div/mod are multi-cycle on GPUs).
_OP_COST = {
    "+": 1, "-": 1, "*": 1,
    "/": 8, "%": 12,
    "<<": 1, ">>": 1, "&": 1, "|": 1, "^": 1,
    "<": 1, "<=": 1, ">": 1, ">=": 1, "==": 1, "!=": 1,
    "&&": 1, "||": 1,
}


def _expr_mix(e: Expr, mix: InstructionMix) -> None:
    # multiplies feeding directly into an add/subtract fuse into one FMA
    fused = set()
    for sub in walk_exprs(e):
        if isinstance(sub, BinOp) and sub.op in ("+", "-"):
            for child in (sub.lhs, sub.rhs):
                if isinstance(child, BinOp) and child.op == "*":
                    fused.add(id(child))
                    break
    for sub in walk_exprs(e):
        if isinstance(sub, BinOp):
            if id(sub) in fused:
                continue               # folded into the FMA
            mix.alu += _OP_COST[sub.op]
        elif isinstance(sub, UnOp):
            mix.alu += 1
        elif isinstance(sub, Call):
            mix.sfu += resolve(sub.func).cost
        elif isinstance(sub, Select):
            mix.alu += 1
        elif isinstance(sub, Cast):
            mix.alu += 0.5
        elif isinstance(sub, AccessorRead):
            mix.global_reads += 1
            mix.reads_by_accessor[sub.accessor] = \
                mix.reads_by_accessor.get(sub.accessor, 0) + 1
            # index arithmetic for the load
            mix.alu += 2
        elif isinstance(sub, MaskRead):
            mix.mask_reads += 1


def _trip_count(s: ForRange, default: int) -> float:
    trip = loop_trip(s)
    return float(default if trip is None else trip[0])


def count_instruction_mix(body: Sequence[Stmt],
                          unknown_trip_count: int = 8) -> InstructionMix:
    """Weighted dynamic op counts for one execution of *body*.

    Loop bodies are multiplied by their (constant) trip counts; unknown trip
    counts fall back to *unknown_trip_count*.  If branches charge the longer
    arm (worst case, matching how occupancy-limited GPUs pay for divergence).
    """
    mix = InstructionMix()
    for s in body:
        if isinstance(s, (VarDecl, Assign, OutputWrite)):
            for e in stmt_exprs(s):
                _expr_mix(e, mix)
            mix.alu += 0.5  # register move / store bookkeeping
        elif isinstance(s, If):
            _expr_mix(s.cond, mix)
            mix.branches += 1
            then_mix = count_instruction_mix(s.then_body, unknown_trip_count)
            else_mix = count_instruction_mix(s.else_body, unknown_trip_count)
            mix.add(then_mix if then_mix.total_compute >=
                    else_mix.total_compute else else_mix)
        elif isinstance(s, ForRange):
            for e in (s.start, s.stop, s.step):
                _expr_mix(e, mix)
            trips = _trip_count(s, unknown_trip_count)
            inner = count_instruction_mix(s.body, unknown_trip_count)
            # the device compiler fully unrolls small constant-trip loops
            # (#pragma unroll), removing the increment+compare per
            # iteration; larger/unknown loops pay loop control
            if not (const_int_value(s.start) is not None and trips <= 32):
                inner.alu += 2
                inner.branches += 1
            mix.add(inner.scaled(trips))
    return mix
