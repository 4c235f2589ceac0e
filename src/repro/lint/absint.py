"""Fixpoint abstract interpretation over the kernel CFG (HIP107, HIP4xx).

The correctness passes bound *syntactic* facts (definite assignment,
write counts); this module runs a classic abstract interpreter over the same
CFG (:func:`repro.ir.cfg.build_cfg`) with an **interval domain extended
with gid-affine terms**:

    value  ∈  ax·gid_x + ay·gid_y + [lo, hi]

* constants are singleton intervals, ``self.x()``/``self.y()`` are the
  affine generators (with the concrete range ``[0, ∞)`` — iteration
  space extents are not known statically);
* every arithmetic operator, cast, select and math intrinsic has a
  sound transfer function (interval arithmetic; non-affine operators
  drop to the concrete interval hull);
* loop variables with constant bounds get their exact trip range;
  everything else converges through **widening at loop headers** (a
  bound that grows between fixpoint iterations is widened to ±∞), so
  the analysis terminates on any CFG.

The entry point is ``KernelIR.absint()``: it runs :func:`interpret`
once per IR instance and caches the :class:`AbsintResult`, so lint,
footprint, native gate and ``pow`` strength reduction over the same IR
share one fixpoint.  The result feeds those consumers:

1. the window and range-hazard passes in :func:`range_passes` (HIP107
   and HIP401 reads outside the declared window, division by a
   possibly-zero interval, overflowing narrowing casts, ``sqrt``/``log``
   of possibly-negative ranges);
2. the access-footprint domain in :mod:`repro.lint.footprint` (per
   accessor, the interval hull of every read offset);
3. the prove-based native-tier gate in
   :mod:`repro.runtime.native_graph` (all reads proven in-window, all
   intrinsics proven inside their bit-exact range) and its ``pow``
   strength reduction.

**Noise policy** — image pixels, runtime uniforms and dynamic masks are
unknown data (⊤ = ``[-∞, ∞]``).  A hazard that only exists because some
input *might* be anything is the runtime checker's job, not a static
finding; the HIP4xx passes therefore only fire when the offending bound
is *finite*, i.e. when the analysis actually derived a range that
includes the hazard.  ``docs/DIAGNOSTICS.md`` documents the lattice and
this policy per code.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..intrinsics import resolve
from ..ir.analysis import loop_trip, read_offset_bounds
from ..ir.cfg import CFG, build_cfg
from ..ir.nodes import (
    AccessorRead,
    Assign,
    BinOp,
    BoolConst,
    Call,
    Cast,
    Expr,
    FloatConst,
    ForRange,
    GidX,
    GidY,
    IntConst,
    KernelIR,
    MaskRead,
    Select,
    Stmt,
    UnOp,
    VarDecl,
    VarRef,
    const_int_value,
)
from ..ir.visitors import stmt_exprs, walk_exprs
from ..obs import span
from ..obs.metrics import get_registry
from .correctness import _diag, _first_stmt_reading
from .diagnostics import Diagnostic, Severity

_INF = float("inf")

#: fixpoint iteration cap — kernels are tiny, widening converges in a
#: handful of passes; the cap only guards against analysis bugs
_MAX_ITERATIONS = 64


# --------------------------------------------------------------------------
# The abstract domain
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AbstractValue:
    """One lattice element: ``ax·gid_x + ay·gid_y + [lo, hi]``.

    ``lo``/``hi`` are inclusive real bounds (±∞ allowed).  The affine
    coefficients are only ever non-zero for integer-valued expressions;
    ``maybe_nan`` tracks whether a float value can be NaN (unknown image
    data, or a domain-violating intrinsic).
    """

    lo: float
    hi: float
    ax: int = 0
    ay: int = 0
    is_int: bool = False
    maybe_nan: bool = False

    # -- structure ---------------------------------------------------------

    @property
    def is_affine(self) -> bool:
        return self.ax != 0 or self.ay != 0

    def concrete(self) -> "AbstractValue":
        """Drop the affine part: the concrete interval hull given
        ``gid_x, gid_y ∈ [0, ∞)``."""
        if not self.is_affine:
            return self
        lo, hi = self.lo, self.hi
        if self.ax > 0 or self.ay > 0:
            hi = _INF
        if self.ax < 0 or self.ay < 0:
            lo = -_INF
        return AbstractValue(lo, hi, is_int=self.is_int,
                             maybe_nan=self.maybe_nan)

    @property
    def is_singleton(self) -> bool:
        return not self.is_affine and self.lo == self.hi \
            and not self.maybe_nan and math.isfinite(self.lo)

    def singleton(self) -> Optional[float]:
        return self.lo if self.is_singleton else None

    def bounded(self) -> bool:
        c = self.concrete()
        return math.isfinite(c.lo) and math.isfinite(c.hi)

    def contains(self, v: float) -> bool:
        c = self.concrete()
        return c.lo <= v <= c.hi

    # -- lattice operations ------------------------------------------------

    def join(self, other: "AbstractValue") -> "AbstractValue":
        if self.ax == other.ax and self.ay == other.ay:
            return AbstractValue(
                min(self.lo, other.lo), max(self.hi, other.hi),
                self.ax, self.ay,
                is_int=self.is_int and other.is_int,
                maybe_nan=self.maybe_nan or other.maybe_nan)
        a, b = self.concrete(), other.concrete()
        return AbstractValue(
            min(a.lo, b.lo), max(a.hi, b.hi),
            is_int=a.is_int and b.is_int,
            maybe_nan=a.maybe_nan or b.maybe_nan)

    def widen(self, newer: "AbstractValue") -> "AbstractValue":
        """Standard interval widening: a bound that moved since the last
        iteration jumps to ±∞ (applied at loop headers only)."""
        if self.ax == newer.ax and self.ay == newer.ay:
            lo = self.lo if newer.lo >= self.lo else -_INF
            hi = self.hi if newer.hi <= self.hi else _INF
            return AbstractValue(
                lo, hi, self.ax, self.ay,
                is_int=self.is_int and newer.is_int,
                maybe_nan=self.maybe_nan or newer.maybe_nan)
        return self.join(newer).widen(self.join(newer))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        affine = ""
        if self.ax:
            affine += f"{self.ax:+d}·gx"
        if self.ay:
            affine += f"{self.ay:+d}·gy"
        return f"{affine}[{self.lo}, {self.hi}]" + \
            ("?nan" if self.maybe_nan else "")


def top(is_int: bool = False, maybe_nan: bool = False) -> AbstractValue:
    return AbstractValue(-_INF, _INF, is_int=is_int, maybe_nan=maybe_nan)


def const(v: float, is_int: bool = False) -> AbstractValue:
    return AbstractValue(float(v), float(v), is_int=is_int)


Env = Dict[str, AbstractValue]


def _join_envs(a: Env, b: Env) -> Env:
    out: Env = {}
    for name in a.keys() & b.keys():
        out[name] = a[name].join(b[name])
    return out


def _widen_env(old: Env, new: Env) -> Env:
    out: Env = {}
    for name in old.keys() & new.keys():
        out[name] = old[name].widen(new[name])
    return out


def _envs_equal(a: Env, b: Env) -> bool:
    return a == b


# --------------------------------------------------------------------------
# Transfer functions
# --------------------------------------------------------------------------


def _mul_bound(x: float, y: float) -> float:
    # real-interval endpoint product; 0·∞ resolves to 0 (the limit the
    # interval hull needs: the other endpoints carry the unbounded side)
    if (x == 0.0 and math.isinf(y)) or (y == 0.0 and math.isinf(x)):
        return 0.0
    return x * y


def _interval_mul(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    a, b = a.concrete(), b.concrete()
    cands = [_mul_bound(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return AbstractValue(min(cands), max(cands),
                         is_int=a.is_int and b.is_int,
                         maybe_nan=a.maybe_nan or b.maybe_nan)


def _interval_div(a: AbstractValue, b: AbstractValue,
                  int_div: bool) -> AbstractValue:
    a, b = a.concrete(), b.concrete()
    nan = a.maybe_nan or b.maybe_nan
    if b.contains(0.0):
        # division by a possibly-zero interval: the value is unbounded
        # (float: ±inf/NaN; int: undefined behaviour)
        return top(is_int=int_div and a.is_int and b.is_int,
                   maybe_nan=not int_div)
    cands = []
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            if math.isinf(x) and math.isinf(y):
                return top(is_int=int_div, maybe_nan=nan)
            q = x / y if not math.isinf(x) else (
                x if (y > 0) else -x)
            if math.isinf(y):
                q = 0.0
            cands.append(float(math.trunc(q)) if int_div and
                         math.isfinite(q) else q)
    return AbstractValue(min(cands), max(cands),
                         is_int=int_div and a.is_int and b.is_int,
                         maybe_nan=nan)


def _interval_mod(a: AbstractValue, b: AbstractValue,
                  int_mod: bool) -> AbstractValue:
    a, b = a.concrete(), b.concrete()
    nan = a.maybe_nan or b.maybe_nan or (not int_mod and b.contains(0.0))
    mag = max(abs(b.lo), abs(b.hi))
    if not math.isfinite(mag) or b.contains(0.0) and int_mod:
        return top(is_int=int_mod, maybe_nan=nan)
    # C semantics: result sign follows the dividend, |result| < |divisor|
    limit = mag - 1 if int_mod else mag
    lo = -limit if a.lo < 0 else 0.0
    hi = limit if a.hi > 0 else 0.0
    return AbstractValue(lo, hi, is_int=int_mod, maybe_nan=nan)


def _monotone(fn: Callable[[float], float], lo: float, hi: float
              ) -> Tuple[float, float]:
    """Apply a monotone-increasing real function to both endpoints,
    mapping range errors to the appropriate infinity/limit."""
    def safe(v: float, toward: float) -> float:
        if math.isinf(v):
            try:
                return fn(math.copysign(1e308, v))
            except (OverflowError, ValueError):
                return toward
        try:
            return fn(v)
        except OverflowError:
            return _INF
        except ValueError:
            return toward
    return safe(lo, -_INF), safe(hi, _INF)


class Interpreter:
    """Evaluates expressions over :class:`AbstractValue` environments."""

    def __init__(self, ir: KernelIR):
        self.ir = ir
        self._accessors = {a.name: a for a in ir.accessors}
        self._masks = {m.name: m for m in ir.masks}

    # -- entry environment -------------------------------------------------

    def entry_env(self) -> Env:
        env: Env = {}
        for p in self.ir.params:
            is_int = p.type is not None and p.type.is_integer
            if p.baked and isinstance(p.value, (int, float, bool)) \
                    and not (isinstance(p.value, float)
                             and math.isnan(p.value)):
                env[p.name] = const(float(p.value), is_int=is_int)
            else:
                env[p.name] = top(is_int=is_int, maybe_nan=not is_int)
        return env

    # -- expressions -------------------------------------------------------

    def eval(self, e: Expr, env: Env) -> AbstractValue:
        if isinstance(e, IntConst):
            return const(e.value, is_int=True)
        if isinstance(e, FloatConst):
            if math.isnan(e.value):
                return top(maybe_nan=True)
            return const(e.value)
        if isinstance(e, BoolConst):
            return const(int(e.value), is_int=True)
        if isinstance(e, VarRef):
            v = env.get(e.name)
            if v is not None:
                return v
            is_int = e.type is not None and e.type.is_integer
            return top(is_int=is_int, maybe_nan=not is_int)
        if isinstance(e, GidX):
            return AbstractValue(0.0, 0.0, ax=1, is_int=True)
        if isinstance(e, GidY):
            return AbstractValue(0.0, 0.0, ay=1, is_int=True)
        if isinstance(e, BinOp):
            return self._eval_binop(e, env)
        if isinstance(e, UnOp):
            return self._eval_unop(e, env)
        if isinstance(e, Call):
            return self._eval_call(e, env)
        if isinstance(e, Cast):
            return self._eval_cast(e, env)
        if isinstance(e, Select):
            self.eval(e.cond, env)
            return self.eval(e.if_true, env).join(
                self.eval(e.if_false, env))
        if isinstance(e, AccessorRead):
            return self._accessor_value(e.accessor)
        if isinstance(e, MaskRead):
            return self._mask_value(e.mask)
        return top(maybe_nan=True)

    def _accessor_value(self, name: str) -> AbstractValue:
        acc = self._accessors.get(name)
        if acc is not None and acc.pixel_type.is_integer:
            info = np.iinfo(acc.pixel_type.np_dtype)
            return AbstractValue(float(info.min), float(info.max),
                                 is_int=True)
        return top(maybe_nan=True)

    def _mask_value(self, name: str) -> AbstractValue:
        m = self._masks.get(name)
        if m is not None and m.compile_time_constant \
                and m.coefficients is not None:
            coeffs = np.asarray(m.coefficients, dtype=np.float64)
            if coeffs.size and np.isfinite(coeffs).all():
                return AbstractValue(float(coeffs.min()),
                                     float(coeffs.max()),
                                     is_int=m.pixel_type.is_integer)
        return top(maybe_nan=True)

    def _eval_binop(self, e: BinOp, env: Env) -> AbstractValue:
        a = self.eval(e.lhs, env)
        b = self.eval(e.rhs, env)
        op = e.op
        int_op = a.is_int and b.is_int
        if op == "+":
            return AbstractValue(a.lo + b.lo, a.hi + b.hi,
                                 a.ax + b.ax, a.ay + b.ay,
                                 is_int=int_op,
                                 maybe_nan=a.maybe_nan or b.maybe_nan)
        if op == "-":
            return AbstractValue(a.lo - b.hi, a.hi - b.lo,
                                 a.ax - b.ax, a.ay - b.ay,
                                 is_int=int_op,
                                 maybe_nan=a.maybe_nan or b.maybe_nan)
        if op == "*":
            # scaling an affine value by an integer constant keeps the
            # affine form; everything else drops to the concrete hull
            for affine, k in ((a, b), (b, a)):
                s = k.singleton()
                if affine.is_affine and s is not None and k.is_int \
                        and float(s).is_integer():
                    s = int(s)
                    lo, hi = sorted((affine.lo * s, affine.hi * s))
                    return AbstractValue(lo, hi, affine.ax * s,
                                         affine.ay * s, is_int=int_op,
                                         maybe_nan=affine.maybe_nan)
            # x * x is a square: never negative regardless of sign
            if _same_expr(e.lhs, e.rhs):
                c = _interval_mul(a, b)
                return dataclasses.replace(c, lo=max(c.lo, 0.0))
            return _interval_mul(a, b)
        if op == "/":
            return _interval_div(a, b, int_div=int_op)
        if op == "%":
            return _interval_mod(a, b, int_mod=int_op)
        if op in ("<", "<=", ">", ">=", "==", "!="):
            return self._compare(op, a, b)
        if op in ("&&", "||"):
            return AbstractValue(0.0, 1.0, is_int=True)
        if op in ("<<", ">>", "&", "|", "^"):
            sa, sb = a.singleton(), b.singleton()
            if sa is not None and sb is not None \
                    and float(sa).is_integer() and float(sb).is_integer():
                ia, ib = int(sa), int(sb)
                try:
                    v = {"<<": ia << ib, ">>": ia >> ib, "&": ia & ib,
                         "|": ia | ib, "^": ia ^ ib}[op]
                    return const(v, is_int=True)
                except (ValueError, OverflowError):
                    pass
            return top(is_int=True)
        return top(maybe_nan=True)

    @staticmethod
    def _compare(op: str, a: AbstractValue, b: AbstractValue
                 ) -> AbstractValue:
        ca, cb = a.concrete(), b.concrete()
        if not (ca.maybe_nan or cb.maybe_nan):
            decided = {
                "<": (ca.hi < cb.lo, ca.lo >= cb.hi),
                "<=": (ca.hi <= cb.lo, ca.lo > cb.hi),
                ">": (ca.lo > cb.hi, ca.hi <= cb.lo),
                ">=": (ca.lo >= cb.hi, ca.hi < cb.lo),
                "==": (ca.is_singleton and cb.is_singleton
                       and ca.lo == cb.lo,
                       ca.hi < cb.lo or ca.lo > cb.hi),
                "!=": (ca.hi < cb.lo or ca.lo > cb.hi,
                       ca.is_singleton and cb.is_singleton
                       and ca.lo == cb.lo),
            }[op]
            if decided[0]:
                return const(1, is_int=True)
            if decided[1]:
                return const(0, is_int=True)
        return AbstractValue(0.0, 1.0, is_int=True)

    def _eval_unop(self, e: UnOp, env: Env) -> AbstractValue:
        v = self.eval(e.operand, env)
        if e.op == "-":
            return AbstractValue(-v.hi, -v.lo, -v.ax, -v.ay,
                                 is_int=v.is_int, maybe_nan=v.maybe_nan)
        if e.op == "+":
            return v
        if e.op == "!":
            return AbstractValue(0.0, 1.0, is_int=True)
        if e.op == "~":
            s = v.singleton()
            if s is not None and float(s).is_integer():
                return const(~int(s), is_int=True)
            return top(is_int=True)
        return top(maybe_nan=True)

    def _eval_cast(self, e: Cast, env: Env) -> AbstractValue:
        v = self.eval(e.operand, env).concrete()
        if e.target is None:
            return v
        if e.target.is_integer:
            lo, hi = v.lo, v.hi
            if not v.is_int:
                # the operand bounds were computed in double precision;
                # pad by one unit before truncating so a float32 result
                # landing ULPs past an integer boundary stays covered
                lo = lo - 1.0 if math.isfinite(lo) else lo
                hi = hi + 1.0 if math.isfinite(hi) else hi
            lo = float(math.trunc(lo)) if math.isfinite(lo) else lo
            hi = float(math.trunc(hi)) if math.isfinite(hi) else hi
            info = np.iinfo(e.target.np_dtype)
            if lo < info.min or hi > info.max:
                # overflow wraps (C): the result can be anything in-type
                return AbstractValue(float(info.min), float(info.max),
                                     is_int=True)
            return AbstractValue(lo, hi, is_int=True)
        return AbstractValue(v.lo, v.hi, is_int=False,
                             maybe_nan=v.maybe_nan)

    def _eval_call(self, e: Call, env: Env) -> AbstractValue:
        args = [self.eval(a, env).concrete() for a in e.args]
        try:
            name = resolve(e.func).name
        except Exception:
            return top(maybe_nan=True)
        return _intrinsic_transfer(name, args)


def _same_expr(a: Expr, b: Expr) -> bool:
    """Structural equality restricted to the pure-read forms where
    ``a*a`` squares are common (variable refs and centre-pixel reads)."""
    if isinstance(a, VarRef) and isinstance(b, VarRef):
        return a.name == b.name
    if isinstance(a, AccessorRead) and isinstance(b, AccessorRead):
        return (a.accessor == b.accessor
                and const_int_value(a.dx) == const_int_value(b.dx)
                and const_int_value(a.dx) is not None
                and const_int_value(a.dy) == const_int_value(b.dy)
                and const_int_value(a.dy) is not None)
    return False


def _intrinsic_transfer(name: str, args: List[AbstractValue]
                        ) -> AbstractValue:
    nan = any(a.maybe_nan for a in args)
    a = args[0] if args else top(maybe_nan=True)
    if name == "sqrt":
        lo, hi = _monotone(math.sqrt, max(a.lo, 0.0), max(a.hi, 0.0))
        return AbstractValue(max(lo, 0.0), max(hi, 0.0),
                             maybe_nan=nan or a.lo < 0)
    if name in ("fabs", "abs"):
        lo = 0.0 if a.lo <= 0.0 <= a.hi else min(abs(a.lo), abs(a.hi))
        return AbstractValue(lo, max(abs(a.lo), abs(a.hi)),
                             is_int=a.is_int and name == "abs",
                             maybe_nan=nan)
    if name == "exp":
        lo, hi = _monotone(math.exp, a.lo, a.hi)
        return AbstractValue(max(lo, 0.0), hi, maybe_nan=nan)
    if name in ("log", "log2", "log10"):
        fn = {"log": math.log, "log2": math.log2,
              "log10": math.log10}[name]
        lo, hi = _monotone(fn, max(a.lo, 0.0), max(a.hi, 0.0))
        return AbstractValue(lo, hi, maybe_nan=nan or a.lo <= 0)
    if name in ("sin", "cos"):
        return AbstractValue(-1.0, 1.0, maybe_nan=nan)
    if name == "atan":
        return AbstractValue(-math.pi / 2, math.pi / 2, maybe_nan=nan)
    if name == "atan2":
        return AbstractValue(-math.pi, math.pi, maybe_nan=nan)
    if name in ("floor", "trunc", "round", "ceil"):
        fn = {"floor": math.floor, "trunc": math.trunc,
              "round": round, "ceil": math.ceil}[name]
        lo = float(fn(a.lo)) if math.isfinite(a.lo) else a.lo
        hi = float(fn(a.hi)) if math.isfinite(a.hi) else a.hi
        return AbstractValue(lo, hi, maybe_nan=nan)
    if name in ("fmin", "min") and len(args) == 2:
        b = args[1]
        return AbstractValue(min(a.lo, b.lo), min(a.hi, b.hi),
                             is_int=a.is_int and b.is_int, maybe_nan=nan)
    if name in ("fmax", "max") and len(args) == 2:
        b = args[1]
        return AbstractValue(max(a.lo, b.lo), max(a.hi, b.hi),
                             is_int=a.is_int and b.is_int, maybe_nan=nan)
    if name == "clamp" and len(args) == 3:
        lo_b, hi_b = args[1], args[2]
        return AbstractValue(max(a.lo, lo_b.lo), min(a.hi, hi_b.hi),
                             maybe_nan=nan)
    if name == "fmod" and len(args) == 2:
        return _interval_mod(a, args[1], int_mod=False)
    if name == "pow" and len(args) == 2:
        exp_v = args[1].singleton()
        if exp_v == 2.0:
            sq = _interval_mul(a, a)
            return dataclasses.replace(sq, lo=max(sq.lo, 0.0),
                                       maybe_nan=nan)
        if exp_v == 1.0:
            return a
        if exp_v == 0.0:
            return const(1.0)
        if exp_v == 0.5:
            return _intrinsic_transfer("sqrt", [a])
        if a.lo >= 0.0:
            return AbstractValue(0.0, _INF, maybe_nan=nan)
        return top(maybe_nan=True)
    if name == "rsqrt":
        return AbstractValue(0.0, _INF, maybe_nan=nan or a.lo < 0)
    return top(maybe_nan=True)


# --------------------------------------------------------------------------
# Fixpoint engine
# --------------------------------------------------------------------------


@dataclasses.dataclass
class ReadFact:
    """The interval hull of one ``AccessorRead``'s offsets."""

    accessor: str
    dx: AbstractValue
    dy: AbstractValue
    stmt: Optional[Stmt]
    window: Tuple[int, int]
    boundary_mode: str
    #: the AccessorRead expression itself (see :attr:`CallFact.expr`)
    expr: AccessorRead

    @property
    def in_window(self) -> Optional[bool]:
        """True = proven inside the declared window on every execution,
        False = some execution provably reads outside, None = unknown."""
        hx = (self.window[0] - 1) // 2
        hy = (self.window[1] - 1) // 2
        dx, dy = self.dx.concrete(), self.dy.concrete()
        if dx.lo >= -hx and dx.hi <= hx and dy.lo >= -hy and dy.hi <= hy:
            return True
        if dx.lo > hx or dx.hi < -hx or dy.lo > hy or dy.hi < -hy:
            return False
        if dx.bounded() and dy.bounded():
            return False       # bounded hull that sticks out: some read
        return None            # escapes the window


@dataclasses.dataclass
class CallFact:
    """One intrinsic call with the abstract values of its arguments."""

    func: str
    args: List[AbstractValue]
    stmt: Optional[Stmt]
    #: the Call expression itself, so transforms can match facts back
    #: to IR nodes by identity
    expr: Call

    def singleton_arg(self, index: int) -> Optional[float]:
        if index < len(self.args):
            return self.args[index].singleton()
        return None


@dataclasses.dataclass
class AbsintResult:
    """Everything one fixpoint run learned about a kernel."""

    kernel: str
    cfg: CFG
    env_in: Dict[int, Env]
    reads: List[ReadFact]
    calls: List[CallFact]
    iterations: int
    interp: Interpreter

    def proven_in_window(self) -> bool:
        return all(r.in_window is True for r in self.reads)

    def first_unproven_read(self) -> Optional[ReadFact]:
        for r in self.reads:
            if r.in_window is not True:
                return r
        return None


def _loop_var_value(interp: Interpreter, s: ForRange, env: Env
                    ) -> AbstractValue:
    trip = loop_trip(s)
    if trip is not None:
        return AbstractValue(float(trip[1]), float(trip[2]), is_int=True)
    # non-constant bounds: the hull of [start, stop) in either direction
    a = interp.eval(s.start, env).concrete()
    b = interp.eval(s.stop, env).concrete()
    return AbstractValue(min(a.lo, b.lo), max(a.hi, b.hi), is_int=True)


def _transfer_block(interp: Interpreter, stmts: Sequence[Stmt],
                    env: Env) -> Env:
    env = dict(env)
    for s in stmts:
        if isinstance(s, (VarDecl, Assign)):
            value = s.init if isinstance(s, VarDecl) else s.value
            env[s.name] = interp.eval(value, env)
        elif isinstance(s, ForRange):
            env[s.var] = _loop_var_value(interp, s, env)
        # If conditions and OutputWrites don't bind names
    return env


def interpret(ir: KernelIR) -> AbsintResult:
    """Run the interval fixpoint over *ir*'s CFG and collect read and
    call facts with the converged environments."""
    with span("absint.fixpoint", kernel=ir.name):
        interp = Interpreter(ir)
        cfg = build_cfg(ir.body)
        order = cfg.reverse_postorder()
        entry = interp.entry_env()
        env_in: Dict[int, Optional[Env]] = {i: None for i in cfg.blocks}
        env_in[cfg.entry] = entry
        env_out: Dict[int, Optional[Env]] = {i: None for i in cfg.blocks}

        iterations = 0
        changed = True
        while changed and iterations < _MAX_ITERATIONS:
            changed = False
            iterations += 1
            for idx in order:
                block = cfg.blocks[idx]
                if idx == cfg.entry:
                    new_in: Optional[Env] = dict(entry)
                else:
                    new_in = None
                    for p in cfg.predecessors(idx):
                        if env_out[p] is None:
                            continue
                        new_in = dict(env_out[p]) if new_in is None \
                            else _join_envs(new_in, env_out[p])
                    if new_in is None:
                        continue        # unreachable so far
                if block.label == "loop-header" \
                        and env_in[idx] is not None \
                        and not _envs_equal(env_in[idx], new_in):
                    new_in = _widen_env(env_in[idx], new_in)
                if env_in[idx] is None or not _envs_equal(
                        env_in[idx], new_in):
                    env_in[idx] = new_in
                    changed = True
                new_out = _transfer_block(interp, block.stmts, new_in)
                if env_out[idx] is None or not _envs_equal(
                        env_out[idx], new_out):
                    env_out[idx] = new_out
                    changed = True

        # reporting pass: evaluate every expression once more against the
        # converged per-statement environments, collecting facts
        reads: List[ReadFact] = []
        calls: List[CallFact] = []
        accessors = {a.name: a for a in ir.accessors}
        for idx in order:
            env = env_in[idx]
            if env is None:
                continue
            env = dict(env)
            for s in cfg.blocks[idx].stmts:
                for topmost in stmt_exprs(s):
                    for e in walk_exprs(topmost):
                        if isinstance(e, AccessorRead):
                            acc = accessors.get(e.accessor)
                            if acc is None or acc.interpolation \
                                    is not None:
                                continue
                            reads.append(ReadFact(
                                accessor=e.accessor,
                                dx=interp.eval(e.dx, env).concrete(),
                                dy=interp.eval(e.dy, env).concrete(),
                                stmt=s, window=acc.window,
                                boundary_mode=acc.boundary_mode, expr=e))
                        elif isinstance(e, Call):
                            try:
                                name = resolve(e.func).name
                            except Exception:
                                continue
                            calls.append(CallFact(
                                func=name,
                                args=[interp.eval(a, env).concrete()
                                      for a in e.args],
                                stmt=s, expr=e))
                env = _transfer_block(interp, [s], env)

        get_registry().count("lint.absint.runs")
        result = AbsintResult(kernel=ir.name, cfg=cfg,
                              env_in={i: v for i, v in env_in.items()
                                      if v is not None},
                              reads=reads, calls=calls,
                              iterations=iterations, interp=interp)
        proved = sum(1 for r in reads if r.in_window is True)
        get_registry().count("lint.absint.reads_proved", proved)
        get_registry().count("lint.absint.reads_unproved",
                             len(reads) - proved)
        return result


# --------------------------------------------------------------------------
# HIP107 and HIP4xx passes
# --------------------------------------------------------------------------


def _fmt_bound(x: float) -> str:
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return f"{int(x)}" if float(x).is_integer() else f"{x:g}"


def _fmt(v: AbstractValue) -> str:
    return f"[{_fmt_bound(v.lo)}..{_fmt_bound(v.hi)}]"


def _check_window_reads(ir: KernelIR, result: AbsintResult
                        ) -> List[Diagnostic]:
    """HIP107/HIP401 — reads whose offset interval escapes the declared
    window.  An escaping read whose offsets the bounded-offset rule
    bounds (constants and constant-trip loop variables,
    :func:`~repro.ir.analysis.read_offset_bounds`) is HIP107: one
    finding per accessor, over the hull of its bounded reads.  Every
    other escaping read is HIP401, at its derived interval."""
    bounds = {id(read): b for read, b in read_offset_bounds(ir.body)}
    hulls: Dict[str, Tuple[int, int, int, int]] = {}
    hip107 = set()
    hip401: List[Diagnostic] = []
    seen = set()
    for r in result.reads:
        b = bounds.get(id(r.expr))
        if b is not None:
            h = hulls.get(r.accessor, b)
            hulls[r.accessor] = (min(h[0], b[0]), max(h[1], b[1]),
                                 min(h[2], b[2]), max(h[3], b[3]))
            if r.in_window is False:
                hip107.add(r.accessor)
            continue
        if r.in_window is not False:
            continue
        key = (r.accessor, getattr(r.stmt, "lineno", None),
               _fmt(r.dx), _fmt(r.dy))
        if key in seen:
            continue
        seen.add(key)
        message = (
            f"accessor {r.accessor!r} is read at derived offsets "
            f"{_fmt(r.dx)}x{_fmt(r.dy)} which escape its declared "
            f"{r.window[0]}x{r.window[1]} window")
        hip401.append(_window_diag(
            ir, "HIP401", message, r.stmt, r.boundary_mode,
            "shrink the offset computation or declare a "
            "BoundaryCondition window covering the derived range"))

    out: List[Diagnostic] = []
    for acc in ir.accessors:
        if acc.name not in hip107:
            continue
        min_dx, max_dx, min_dy, max_dy = hulls[acc.name]
        hx = (acc.window[0] - 1) // 2
        hy = (acc.window[1] - 1) // 2
        need_w = 2 * max(-min_dx, max_dx, hx) + 1
        need_h = 2 * max(-min_dy, max_dy, hy) + 1
        out.append(_window_diag(
            ir, "HIP107",
            f"accessor {acc.name!r} is read at offsets up to "
            f"[{min_dx}..{max_dx}]x[{min_dy}..{max_dy}] "
            f"but declares a {acc.window[0]}x{acc.window[1]} window",
            _first_stmt_reading(ir, accessor=acc.name), acc.boundary_mode,
            f"declare a BoundaryCondition of size {need_w}x{need_h} "
            f"for {acc.name!r}"))
    return out + hip401


def _window_diag(ir: KernelIR, code: str, message: str,
                 stmt: Optional[Stmt], boundary_mode: str,
                 hint: str) -> Diagnostic:
    """An out-of-window read: an error when the accessor's boundary
    handling is undefined (it reads out of bounds at the border)."""
    undefined = boundary_mode == "undefined"
    if undefined:
        message += ("; with undefined boundary handling this reads "
                    "out of bounds at the image border")
    return _diag(ir, code, message, stmt, hint=hint,
                 severity=Severity.ERROR if undefined else Severity.WARNING)


def _is_div(e: Expr) -> bool:
    return isinstance(e, BinOp) and e.op in ("/", "%")


def _check_hazards(ir: KernelIR, result: AbsintResult
                   ) -> List[Diagnostic]:
    """HIP402/HIP403/HIP404 — expression-level range hazards, evaluated
    against the converged environments."""
    interp = result.interp
    out: List[Diagnostic] = []
    for idx in result.cfg.reverse_postorder():
        env = result.env_in.get(idx)
        if env is None:
            continue
        env = dict(env)
        for s in result.cfg.blocks[idx].stmts:
            for topmost in stmt_exprs(s):
                for e in walk_exprs(topmost):
                    out.extend(_expr_hazards(ir, interp, e, env, s))
            env = _transfer_block(interp, [s], env)
    # deduplicate by (code, lineno, message): the reporting walk can
    # visit a loop body's statements once per enclosing block revisit
    seen = set()
    unique = []
    for d in out:
        key = (d.code, d.lineno, d.message)
        if key not in seen:
            seen.add(key)
            unique.append(d)
    return unique


def _expr_hazards(ir: KernelIR, interp: Interpreter, e: Expr,
                  env: Env, s: Stmt) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    if _is_div(e):
        divisor = interp.eval(e.rhs, env).concrete()
        if divisor.is_singleton and divisor.lo == 0.0:
            out.append(_diag(
                ir, "HIP402",
                f"the divisor of this {e.op!r} is always zero",
                s, hint="the result is undefined (int) or inf/NaN "
                        "(float) on every execution",
                severity=Severity.ERROR))
        elif divisor.contains(0.0) and divisor.bounded() \
                and not divisor.is_singleton:
            out.append(_diag(
                ir, "HIP402",
                f"the divisor of this {e.op!r} has derived range "
                f"{_fmt(divisor)}, which includes zero",
                s, hint="guard the division, or shift the divisor's "
                        "range away from zero"))
    elif isinstance(e, Cast) and e.target is not None \
            and e.target.is_integer:
        operand = interp.eval(e.operand, env).concrete()
        if not operand.is_int or operand.bounded():
            info = np.iinfo(e.target.np_dtype)
            over_hi = math.isfinite(operand.hi) and operand.hi > info.max
            under_lo = math.isfinite(operand.lo) and operand.lo < info.min
            if over_hi or under_lo:
                always = (math.isfinite(operand.lo)
                          and operand.lo > info.max) or \
                         (math.isfinite(operand.hi)
                          and operand.hi < info.min)
                out.append(_diag(
                    ir, "HIP403",
                    f"narrowing cast to {e.target.name} of a value with "
                    f"derived range {_fmt(operand)} "
                    f"{'always' if always else 'can'} overflow "
                    f"[{info.min}..{info.max}]",
                    s, hint=f"clamp the value into the {e.target.name} "
                            f"range before converting",
                    severity=Severity.ERROR if always
                    else Severity.WARNING))
    elif isinstance(e, Call):
        try:
            name = resolve(e.func).name
        except Exception:
            return out
        if name in ("sqrt", "rsqrt", "log", "log2", "log10") and e.args:
            arg = interp.eval(e.args[0], env).concrete()
            if arg.hi < 0:
                out.append(_diag(
                    ir, "HIP404",
                    f"{name}() argument has derived range {_fmt(arg)} "
                    f"— always negative, the result is NaN on every "
                    f"execution", s,
                    hint="fix the sign of the argument, or take "
                         "fabs() first", severity=Severity.ERROR))
            elif arg.lo < 0 and math.isfinite(arg.lo):
                out.append(_diag(
                    ir, "HIP404",
                    f"{name}() argument has derived range {_fmt(arg)}, "
                    f"which includes negative values (NaN result)", s,
                    hint="clamp the argument with fmax(x, 0.0) if "
                         "negative inputs are expected"))
    return out


def range_passes(ir: KernelIR) -> List[Diagnostic]:
    """HIP107 and the HIP4xx passes over one typed kernel IR, all read
    from its cached fixpoint (:meth:`KernelIR.absint`)."""
    result = ir.absint()
    diags = _check_window_reads(ir, result)
    diags += _check_hazards(ir, result)
    for d in diags:
        get_registry().count(f"lint.findings.{d.code.lower()}")
    return diags
