"""IR node definitions.

Expressions and statements are small immutable dataclasses.  Every expression
carries an optional ``type`` slot that :mod:`repro.ir.typecheck` fills in; the
backends and the simulator require a type-checked kernel.

The node set deliberately matches what HIPAcc extracts from the Clang AST of
a kernel method: scalar arithmetic, math intrinsics, bounded ``for`` loops,
conditionals, reads through Accessors and Masks, and a single output write
per control path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..types import ScalarType

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for IR expressions."""

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def with_children(self, *children: "Expr") -> "Expr":
        """Rebuild this node with replacement children (same arity)."""
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self


@dataclass
class IntConst(Expr):
    value: int
    type: Optional[ScalarType] = None


@dataclass
class FloatConst(Expr):
    value: float
    type: Optional[ScalarType] = None


@dataclass
class BoolConst(Expr):
    value: bool
    type: Optional[ScalarType] = None


@dataclass
class VarRef(Expr):
    """Reference to a kernel-local variable or loop index."""

    name: str
    type: Optional[ScalarType] = None


@dataclass
class GidX(Expr):
    """Global x index of the current work-item within the iteration space."""

    type: Optional[ScalarType] = None


@dataclass
class GidY(Expr):
    """Global y index of the current work-item within the iteration space."""

    type: Optional[ScalarType] = None


#: Binary operators.  Comparison and logical operators yield bool.
BINARY_OPS = {
    "+", "-", "*", "/", "%",
    "<<", ">>", "&", "|", "^",
    "<", "<=", ">", ">=", "==", "!=",
    "&&", "||",
}
COMPARISON_OPS = {"<", "<=", ">", ">=", "==", "!="}
LOGICAL_OPS = {"&&", "||"}
UNARY_OPS = {"-", "+", "!", "~"}


@dataclass
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    type: Optional[ScalarType] = None

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def children(self):
        return (self.lhs, self.rhs)

    def with_children(self, lhs, rhs):
        return dataclasses.replace(self, lhs=lhs, rhs=rhs)


@dataclass
class UnOp(Expr):
    op: str
    operand: Expr
    type: Optional[ScalarType] = None

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")

    def children(self):
        return (self.operand,)

    def with_children(self, operand):
        return dataclasses.replace(self, operand=operand)


@dataclass
class Call(Expr):
    """Call of a math intrinsic by canonical name (e.g. ``"exp"``)."""

    func: str
    args: Tuple[Expr, ...]
    type: Optional[ScalarType] = None

    def children(self):
        return tuple(self.args)

    def with_children(self, *args):
        return dataclasses.replace(self, args=tuple(args))


@dataclass
class Cast(Expr):
    """Explicit conversion to ``target`` (also inserted by typecheck)."""

    target: ScalarType
    operand: Expr
    type: Optional[ScalarType] = None

    def children(self):
        return (self.operand,)

    def with_children(self, operand):
        return dataclasses.replace(self, operand=operand)


@dataclass
class Select(Expr):
    """Ternary ``cond ? if_true : if_false``."""

    cond: Expr
    if_true: Expr
    if_false: Expr
    type: Optional[ScalarType] = None

    def children(self):
        return (self.cond, self.if_true, self.if_false)

    def with_children(self, cond, if_true, if_false):
        return dataclasses.replace(self, cond=cond, if_true=if_true,
                                   if_false=if_false)


@dataclass
class AccessorRead(Expr):
    """Read a pixel through an Accessor at offset ``(dx, dy)`` from the
    current iteration-space point.  The centre pixel is ``(0, 0)``."""

    accessor: str
    dx: Expr = field(default_factory=lambda: IntConst(0))
    dy: Expr = field(default_factory=lambda: IntConst(0))
    type: Optional[ScalarType] = None

    def children(self):
        return (self.dx, self.dy)

    def with_children(self, dx, dy):
        return dataclasses.replace(self, dx=dx, dy=dy)


@dataclass
class MaskRead(Expr):
    """Read a filter-mask coefficient at offset ``(dx, dy)`` from centre."""

    mask: str
    dx: Expr = field(default_factory=lambda: IntConst(0))
    dy: Expr = field(default_factory=lambda: IntConst(0))
    type: Optional[ScalarType] = None

    def children(self):
        return (self.dx, self.dy)

    def with_children(self, dx, dy):
        return dataclasses.replace(self, dx=dx, dy=dy)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for IR statements.

    Every concrete statement carries an optional ``lineno`` — the line of
    the user's ``kernel()`` method (relative to the method source, the
    numbering :class:`~repro.errors.FrontendError` uses) that produced
    it.  ``None`` for synthesized IR (fusion, tests building IR by hand).
    The field is deliberately excluded from cache-key canonicalisation:
    moving a kernel within a file must not invalidate compile artifacts.
    """


@dataclass
class VarDecl(Stmt):
    """First assignment to a local: declares ``name`` with ``init``'s type
    (or an explicit one)."""

    name: str
    init: Expr
    type: Optional[ScalarType] = None
    lineno: Optional[int] = None


@dataclass
class Assign(Stmt):
    """Re-assignment of an already-declared local."""

    name: str
    value: Expr
    lineno: Optional[int] = None


@dataclass
class If(Stmt):
    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = field(default_factory=list)
    lineno: Optional[int] = None


@dataclass
class ForRange(Stmt):
    """``for var in range(start, stop, step)`` — half-open, like Python.

    The frontend produces half-open bounds from ``range``; HIPAcc's C++
    ``for (i = a; i <= b; ++i)`` loops map to ``stop = b + 1``.
    """

    var: str
    start: Expr
    stop: Expr
    step: Expr
    body: List[Stmt] = field(default_factory=list)
    lineno: Optional[int] = None


@dataclass
class OutputWrite(Stmt):
    """Write ``value`` to the output image at the current point."""

    value: Expr
    lineno: Optional[int] = None


# --------------------------------------------------------------------------
# Kernel container
# --------------------------------------------------------------------------


@dataclass
class ParamInfo:
    """A scalar kernel parameter (e.g. ``sigma_d``) with its compile-time
    value.  When ``baked`` the backends substitute the constant; otherwise it
    becomes a kernel-function argument."""

    name: str
    type: ScalarType
    value: object
    baked: bool = True


@dataclass
class AccessorInfo:
    """Frontend-resolved metadata for one Accessor used by the kernel."""

    name: str
    pixel_type: ScalarType
    boundary_mode: str            # one of repro.dsl.boundary.Boundary values
    boundary_constant: float = 0.0
    window: Tuple[int, int] = (1, 1)   # (width, height) incl. centre
    #: resampling accessors (HIPAcc interpolation modes): "nearest" or
    #: "linear"; None for plain 1:1 accessors
    interpolation: Optional[str] = None
    #: iteration-space geometry the resampling accessor maps onto
    out_size: Optional[Tuple[int, int]] = None


@dataclass
class MaskInfo:
    """Frontend-resolved metadata for one Mask used by the kernel."""

    name: str
    pixel_type: ScalarType
    size: Tuple[int, int]         # (width, height), both odd
    coefficients: object = None   # np.ndarray once assigned
    compile_time_constant: bool = True


@dataclass
class KernelIR:
    """A complete type-checked kernel: metadata plus the statement body."""

    name: str
    pixel_type: ScalarType
    body: List[Stmt]
    accessors: List[AccessorInfo] = field(default_factory=list)
    masks: List[MaskInfo] = field(default_factory=list)
    params: List[ParamInfo] = field(default_factory=list)
    #: dedented source lines of the user's ``kernel()`` method; index with
    #: ``lineno - 1``.  Empty for synthesized IR.  Not part of cache keys.
    source_lines: Tuple[str, ...] = ()

    def accessor(self, name: str) -> AccessorInfo:
        for a in self.accessors:
            if a.name == name:
                return a
        raise KeyError(name)

    def mask(self, name: str) -> MaskInfo:
        for m in self.masks:
            if m.name == name:
                return m
        raise KeyError(name)

    def param(self, name: str) -> ParamInfo:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def absint(self):
        """The abstract interpreter's fixpoint over this IR — see
        :mod:`repro.lint.absint`.  The only way into the prover: run
        once per IR instance and cached.  Mutating ``body`` afterwards
        does not invalidate it; rewrites build new instances
        (``dataclasses.replace``), which get their own run.  Threads
        racing on a cold instance may each run it; the results are equal.
        """
        cached = self.__dict__.get("_absint")
        if cached is None:
            from ..lint.absint import interpret
            cached = self._absint = interpret(self)
        return cached

    def footprint(self):
        """The per-accessor access footprint (read-offset hulls and halo
        extents) folded from :meth:`absint` — see
        :mod:`repro.lint.footprint`."""
        from ..lint.footprint import footprint_from_result
        from ..obs import span
        with span("absint.footprint", kernel=self.name):
            return footprint_from_result(self, self.absint())


# --------------------------------------------------------------------------
# Small helpers shared by analyses and transforms
# --------------------------------------------------------------------------


def is_const(e: Expr) -> bool:
    return isinstance(e, (IntConst, FloatConst, BoolConst))


def const_int_value(e: Expr) -> Optional[int]:
    """Return the integer value of a constant expression, else ``None``.

    Evaluates simple integer arithmetic (``+``, ``-``, ``*``, unary minus,
    integer casts) so loop bounds like ``2 * sigma_d + 1`` resolve without a
    prior constant-folding pass.
    """
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, BoolConst):
        return int(e.value)
    if isinstance(e, UnOp) and e.op in ("-", "+"):
        inner = const_int_value(e.operand)
        if inner is not None:
            return -inner if e.op == "-" else inner
    if isinstance(e, Cast) and e.target is not None \
            and not e.target.is_float:
        return const_int_value(e.operand)
    if isinstance(e, BinOp) and e.op in ("+", "-", "*"):
        lhs = const_int_value(e.lhs)
        rhs = const_int_value(e.rhs)
        if lhs is not None and rhs is not None:
            if e.op == "+":
                return lhs + rhs
            if e.op == "-":
                return lhs - rhs
            return lhs * rhs
    return None
