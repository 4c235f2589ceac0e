"""Static analyses over the kernel IR.

* :func:`analyze_accesses` — the paper's read/write analysis (Section IV-A):
  traverse the CFG and record, per Accessor, whether it is read, how many
  syntactic read sites exist, and the constant offset ranges when they can be
  determined.  The backends use this to pick texture read vs. write paths and
  to emit OpenCL ``read_only``/``write_only`` qualifiers.

* :func:`infer_window` — the window (2m+1)x(2n+1) a local operator touches,
  combining BoundaryCondition metadata with offsets derived from constant
  loop bounds.

* :func:`count_instruction_mix` — a weighted dynamic instruction count per
  output pixel (ALU ops, SFU/transcendental ops, memory reads), feeding the
  resource estimator and the analytical timing model.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from ..intrinsics import resolve
from .cfg import build_cfg
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
from .visitors import stmt_exprs, walk_exprs


# --------------------------------------------------------------------------
# Read/write analysis
# --------------------------------------------------------------------------


@dataclasses.dataclass
class AccessInfo:
    """Access summary for one Accessor (access metadata, paper Section II)."""

    name: str
    is_read: bool = False
    read_sites: int = 0
    #: Constant offset bounds (min_dx, max_dx, min_dy, max_dy); None when
    #: an offset is not statically constant.  ``has_x/y_bounds`` separates
    #: "no reads merged yet" from "unbounded".
    min_dx: Optional[int] = 0
    max_dx: Optional[int] = 0
    min_dy: Optional[int] = 0
    max_dy: Optional[int] = 0
    has_x_bounds: bool = False
    has_y_bounds: bool = False

    def merge_x_bounds(self, bounds: Optional[Tuple[int, int]]) -> None:
        if bounds is None:
            self.min_dx = self.max_dx = None
            self.has_x_bounds = True
        elif not self.has_x_bounds:
            self.min_dx, self.max_dx = bounds
            self.has_x_bounds = True
        elif self.min_dx is not None:
            self.min_dx = min(self.min_dx, bounds[0])
            self.max_dx = max(self.max_dx, bounds[1])

    def merge_y_bounds(self, bounds: Optional[Tuple[int, int]]) -> None:
        if bounds is None:
            self.min_dy = self.max_dy = None
            self.has_y_bounds = True
        elif not self.has_y_bounds:
            self.min_dy, self.max_dy = bounds
            self.has_y_bounds = True
        elif self.min_dy is not None:
            self.min_dy = min(self.min_dy, bounds[0])
            self.max_dy = max(self.max_dy, bounds[1])

    @property
    def window(self) -> Optional[Tuple[int, int]]:
        """(width, height) of the symmetric window covering all constant
        offsets, or None if offsets are not statically known."""
        if None in (self.min_dx, self.max_dx, self.min_dy, self.max_dy):
            return None
        half_x = max(abs(self.min_dx), abs(self.max_dx))
        half_y = max(abs(self.min_dy), abs(self.max_dy))
        return (2 * half_x + 1, 2 * half_y + 1)


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


def _loop_var_ranges(body: Sequence[Stmt],
                     env: Dict[str, Tuple[int, int]],
                     out: Dict[int, Dict[str, Tuple[int, int]]]) -> None:
    """Record, for each AccessorRead node id, the enclosing loop-variable
    value ranges (inclusive) so offsets like ``xf`` resolve to bounds."""
    for s in body:
        if isinstance(s, ForRange):
            inner = dict(env)
            trip = loop_trip(s)
            if trip is not None and trip[0] > 0:
                inner[s.var] = trip[1:]
            _loop_var_ranges(s.body, inner, out)
        elif isinstance(s, If):
            _loop_var_ranges(s.then_body, env, out)
            _loop_var_ranges(s.else_body, env, out)
        for e in stmt_exprs(s):
            for sub in walk_exprs(e):
                if isinstance(sub, AccessorRead):
                    out[id(sub)] = dict(env)


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


def analyze_accesses(kernel: KernelIR) -> Dict[str, AccessInfo]:
    """Read/write analysis via CFG traversal (paper Section IV-A)."""
    infos = {a.name: AccessInfo(a.name) for a in kernel.accessors}
    ranges_by_read: Dict[int, Dict[str, Tuple[int, int]]] = {}
    _loop_var_ranges(kernel.body, {}, ranges_by_read)

    cfg = build_cfg(kernel.body)
    for idx in cfg.reverse_postorder():
        for s in cfg.blocks[idx].stmts:
            for top in stmt_exprs(s):
                for e in walk_exprs(top):
                    if isinstance(e, AccessorRead):
                        info = infos[e.accessor]
                        info.is_read = True
                        info.read_sites += 1
                        ranges = ranges_by_read.get(id(e), {})
                        info.merge_x_bounds(_offset_bounds(e.dx, ranges))
                        info.merge_y_bounds(_offset_bounds(e.dy, ranges))
    return infos


def infer_window(kernel: KernelIR, accessor_name: str) -> Tuple[int, int]:
    """Window size (width, height) for *accessor_name*.

    Prefers explicit BoundaryCondition metadata (the paper requires the
    window on the BoundaryCondition); falls back to constant-offset
    inference; defaults to (1, 1) — a point operator.
    """
    acc = kernel.accessor(accessor_name)
    if acc.window != (1, 1):
        return acc.window
    info = analyze_accesses(kernel).get(accessor_name)
    if info is not None and info.window is not None:
        return info.window
    return (1, 1)


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
