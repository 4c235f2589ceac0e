"""Vectorised functional execution of kernel IR.

Evaluates a type-checked kernel body for a *set of pixels at once*: the
iteration-space coordinates are NumPy index arrays and every IR expression
maps onto array operations.  A launch region's coordinates are a row
vector ``gx`` (1xW) and a column vector ``gy`` (Hx1) that broadcast to the
region, so index arithmetic costs O(W + H).  A read whose boundary-adjusted
indices are unit-stride runs inside the image — every in-window read of
the interior region — is a slice, a view of the pixels; only the border
regions' adjusted indices and arbitrary pixel sets (:func:`execute_pixels`)
gather.  The paper's 13x13 bilateral (Listing 5) at 512x512, 169 taps of
3 reads over 9 regions, evaluates in about 0.5 s on one core of a 2-vCPU
x86 VM.

Boundary handling is applied per boundary *region* with exactly the
side-limited index adjustments the generated device code uses
(:data:`repro.backends.emitter.BH_HELPERS`): a thread block classified as a
top-left region only guards the low sides.  :func:`sample_accessor` is the
NumPy twin of those C helpers; a property test pins the two to ``np.pad``
semantics.

Arithmetic respects the IR types — float32 kernels compute in float32, and
integer division/modulo follow C (truncate toward zero) semantics, matching
what the CUDA/OpenCL code would produce.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..dsl.accessor import Accessor
from ..dsl.boundary import Boundary
from ..backends.border import Side
from ..errors import DeviceFault, VerificationError
from ..intrinsics import resolve
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
    If,
    IntConst,
    KernelIR,
    MaskRead,
    OutputWrite,
    Select,
    Stmt,
    UnOp,
    VarDecl,
    VarRef,
)
from ..types import BOOL, INT, ScalarType

_OUTPUT_SLOT = "__output__"

# C arithmetic and math intrinsics are silent on FP exceptions: a domain
# error yields NaN, an overflow inf — never a diagnostic.
_C_FP_ERRORS = dict(divide="ignore", invalid="ignore", over="ignore")


# --------------------------------------------------------------------------
# Side-limited boundary sampling (NumPy twin of the C bh_* helpers)
# --------------------------------------------------------------------------


def _adjust_axis(idx: np.ndarray, n: int, side: Side,
                 mode: Boundary) -> np.ndarray:
    if side == Side.NONE or mode in (Boundary.UNDEFINED, Boundary.CONSTANT):
        return idx
    if mode == Boundary.CLAMP:
        if side == Side.LO:
            return np.maximum(idx, 0)
        if side == Side.HI:
            return np.minimum(idx, n - 1)
        return np.clip(idx, 0, n - 1)
    if mode == Boundary.REPEAT:
        if side == Side.LO:
            return np.where(idx < 0, idx + n, idx)
        if side == Side.HI:
            return np.where(idx >= n, idx - n, idx)
        m = np.mod(idx, n)
        return m
    if mode == Boundary.MIRROR:
        if side == Side.LO:
            return np.where(idx < 0, -1 - idx, idx)
        if side == Side.HI:
            return np.where(idx >= n, 2 * n - 1 - idx, idx)
        m = np.mod(idx, 2 * n)
        return np.where(m < n, m, 2 * n - 1 - m)
    raise VerificationError(f"unhandled boundary mode {mode}")


def _run(idx: np.ndarray, n: int) -> Optional[slice]:
    """The slice equal to indexing an axis of length *n* with *idx*, or
    None when *idx* is not a unit-stride run inside ``[0, n)``."""
    flat = idx.ravel()
    if flat.size == 0:
        return None
    lo, hi = int(flat[0]), int(flat[-1])
    if lo < 0 or hi >= n or hi - lo != flat.size - 1:
        return None
    if flat.size > 2 and not (flat[1:] - flat[:-1] == 1).all():
        return None
    return slice(lo, hi + 1)


def read_pixels(pixels: np.ndarray, iy: np.ndarray,
                ix: np.ndarray) -> np.ndarray:
    """``pixels[iy, ix]``, returned as a view when it can be.

    A launch region hands its indices over as a row vector *ix* (1xW)
    and a column vector *iy* (Hx1).  When both are unit-stride runs
    inside the array, the read is the rectangle ``pixels[y0:y1, x0:x1]``
    and no memory is touched; any other index set (a clamped border
    column, an arbitrary pixel list) takes the broadcast gather.
    """
    if ix.ndim == 2 and iy.ndim == 2 and ix.shape[0] == 1 \
            and iy.shape[1] == 1:
        sx = _run(ix, pixels.shape[1])
        sy = _run(iy, pixels.shape[0])
        if sx is not None and sy is not None:
            return pixels[sy, sx]
    return pixels[iy, ix]


def any_outside(ix: np.ndarray, iy: np.ndarray, w: int, h: int) -> bool:
    """Whether any pixel of the broadcast index set (ix, iy) lies outside
    a w x h image — tested per axis, never at full broadcast size."""
    if 0 in np.broadcast_shapes(ix.shape, iy.shape):
        return False
    return bool(np.any((ix < 0) | (ix >= w))
                or np.any((iy < 0) | (iy >= h)))


def sample_accessor(accessor: Accessor, ix: np.ndarray, iy: np.ndarray,
                    side_x: Side, side_y: Side,
                    faults_on_oob: bool) -> np.ndarray:
    """Read pixels at absolute indices with region-limited boundary
    handling — the executor-side equivalent of the generated read lowering.

    *ix* and *iy* broadcast against each other; the adjustment runs on
    each as given, so a launch region's vectors stay vectors and an
    in-image read becomes a view (:func:`read_pixels`).  The result may
    alias the image: callers must not write through it.
    """
    from ..dsl.interpolate import InterpolatedAccessor
    from .staging import TileAccessor
    if isinstance(accessor, TileAccessor):
        # scratchpad path: boundary handling happened during staging
        return accessor.sample_tile(ix, iy)
    if isinstance(accessor, InterpolatedAccessor):
        # resampling taps land anywhere: always full boundary handling
        return accessor.sample(ix, iy)
    img = accessor.image
    mode = accessor.boundary_mode
    w, h = img.width, img.height

    if mode == Boundary.UNDEFINED:
        if any_outside(ix, iy, w, h):
            if faults_on_oob:
                raise DeviceFault(
                    f"out-of-bounds access on image {img.name} with "
                    f"undefined boundary handling")
            # value is unspecified: deterministically return the clamped
            # neighbour (real hardware would return garbage)
            ix = np.clip(ix, 0, w - 1)
            iy = np.clip(iy, 0, h - 1)
        return read_pixels(img.pixels, iy, ix)

    if mode == Boundary.CONSTANT:
        cx = _adjust_axis(ix, w, side_x, Boundary.CLAMP)
        cy = _adjust_axis(iy, h, side_y, Boundary.CLAMP)
        values = read_pixels(img.pixels, cy, cx)
        oob_x = _guarded_outside(ix, w, side_x)
        oob_y = _guarded_outside(iy, h, side_y)
        if oob_x is None and oob_y is None:
            return values
        oob = oob_x if oob_y is None else \
            oob_y if oob_x is None else oob_x | oob_y
        const = img.pixel_type.np_dtype.type(accessor.boundary_constant)
        return np.where(oob, const, values)

    ax = _adjust_axis(ix, w, side_x, mode)
    ay = _adjust_axis(iy, h, side_y, mode)
    return read_pixels(img.pixels, ay, ax)


def _guarded_outside(idx: np.ndarray, n: int,
                     side: Side) -> Optional[np.ndarray]:
    """Out-of-range mask of *idx* over the sides *side* guards, or None
    when no guarded index falls outside."""
    parts = []
    if side.needs_lo():
        parts.append(idx < 0)
    if side.needs_hi():
        parts.append(idx >= n)
    if not parts:
        return None
    oob = parts[0] if len(parts) == 1 else parts[0] | parts[1]
    return oob if np.any(oob) else None


# --------------------------------------------------------------------------
# Expression evaluation
# --------------------------------------------------------------------------


def _c_int_div(a, b):
    """C integer division: truncation toward zero."""
    q = np.floor_divide(a, b)
    r = np.remainder(a, b)
    correction = (r != 0) & ((a < 0) != (b < 0))
    return q + correction


def _c_int_mod(a, b):
    """C integer remainder: sign follows the dividend."""
    return a - _c_int_div(a, b) * b


def _as_dtype(value, t: Optional[ScalarType]):
    if t is None:
        return value
    if np.isscalar(value) or isinstance(value, np.generic):
        return t.np_dtype.type(value)
    return np.asarray(value).astype(t.np_dtype, copy=False)


class ExecutionContext:
    """Everything one region evaluation needs."""

    def __init__(self, kernel: KernelIR,
                 accessors: Dict[str, Accessor],
                 gx: np.ndarray, gy: np.ndarray,
                 side_x: Side = Side.BOTH, side_y: Side = Side.BOTH,
                 faults_on_oob: bool = False):
        self.kernel = kernel
        self.accessors = accessors
        self.gx = gx
        self.gy = gy
        self.side_x = side_x
        self.side_y = side_y
        self.faults_on_oob = faults_on_oob
        self.masks = {m.name: np.asarray(m.coefficients)
                      for m in kernel.masks if m.coefficients is not None}
        missing = [m.name for m in kernel.masks if m.coefficients is None]
        if missing:
            raise VerificationError(
                f"masks without coefficients: {', '.join(missing)}")
        self.params = {p.name: p.value for p in kernel.params}

    def eval(self, e: Expr, env: Dict[str, object]):
        if isinstance(e, IntConst):
            return _as_dtype(e.value, e.type or INT)
        if isinstance(e, FloatConst):
            return _as_dtype(e.value, e.type)
        if isinstance(e, BoolConst):
            return np.bool_(e.value)
        if isinstance(e, VarRef):
            if e.name in env:
                return env[e.name]
            if e.name in self.params:
                return _as_dtype(self.params[e.name], e.type)
            raise VerificationError(f"unbound variable {e.name!r}")
        if isinstance(e, GidX):
            return self.gx
        if isinstance(e, GidY):
            return self.gy
        if isinstance(e, AccessorRead):
            dx = self.eval(e.dx, env)
            dy = self.eval(e.dy, env)
            ix = self.gx + dx
            iy = self.gy + dy
            acc = self.accessors[e.accessor]
            return sample_accessor(acc, np.asarray(ix), np.asarray(iy),
                                   self.side_x, self.side_y,
                                   self.faults_on_oob)
        if isinstance(e, MaskRead):
            coeffs = self.masks[e.mask]
            h, w = coeffs.shape
            dx = self.eval(e.dx, env)
            dy = self.eval(e.dy, env)
            return coeffs[np.asarray(dy) + h // 2, np.asarray(dx) + w // 2]
        if isinstance(e, UnOp):
            v = self.eval(e.operand, env)
            if e.op == "-":
                return -v
            if e.op == "+":
                return v
            if e.op == "!":
                return ~np.asarray(v, dtype=bool)
            if e.op == "~":
                return ~v
        if isinstance(e, BinOp):
            return self._binop(e, env)
        if isinstance(e, Call):
            intr = resolve(e.func)
            args = [self.eval(a, env) for a in e.args]
            with np.errstate(**_C_FP_ERRORS):
                return _as_dtype(intr.np_func(*args), e.type)
        if isinstance(e, Cast):
            v = self.eval(e.operand, env)
            if e.target == BOOL:
                return np.asarray(v, dtype=bool) \
                    if not np.isscalar(v) else np.bool_(bool(v))
            if e.target.is_integer and not e.target == BOOL:
                # C float->int casts truncate toward zero
                v = np.trunc(v) if np.asarray(v).dtype.kind == "f" else v
            return _as_dtype(v, e.target)
        if isinstance(e, Select):
            cond = self.eval(e.cond, env)
            a = self.eval(e.if_true, env)
            b = self.eval(e.if_false, env)
            return _as_dtype(np.where(cond, a, b), e.type)
        raise VerificationError(
            f"cannot evaluate expression {type(e).__name__}")

    def _binop(self, e: BinOp, env: Dict[str, object]):
        lhs = self.eval(e.lhs, env)
        rhs = self.eval(e.rhs, env)
        op = e.op
        is_int = e.type is not None and e.type.is_integer \
            and e.type != BOOL
        with np.errstate(**_C_FP_ERRORS):
            if op == "+":
                return lhs + rhs
            if op == "-":
                return lhs - rhs
            if op == "*":
                return lhs * rhs
            if op == "/":
                if is_int:
                    return _as_dtype(_c_int_div(lhs, rhs), e.type)
                return lhs / rhs
            if op == "%":
                return _as_dtype(_c_int_mod(lhs, rhs), e.type)
            if op == "<<":
                return lhs << rhs
            if op == ">>":
                return lhs >> rhs
            if op == "&":
                return lhs & rhs
            if op == "|":
                return lhs | rhs
            if op == "^":
                return lhs ^ rhs
            if op == "<":
                return lhs < rhs
            if op == "<=":
                return lhs <= rhs
            if op == ">":
                return lhs > rhs
            if op == ">=":
                return lhs >= rhs
            if op == "==":
                return lhs == rhs
            if op == "!=":
                return lhs != rhs
            if op == "&&":
                return np.asarray(lhs, dtype=bool) & np.asarray(rhs,
                                                                dtype=bool)
            if op == "||":
                return np.asarray(lhs, dtype=bool) | np.asarray(rhs,
                                                                dtype=bool)
        raise VerificationError(f"unknown operator {op!r}")

    # -- statements ----------------------------------------------------

    def run_body(self, body, env: Dict[str, object]) -> None:
        for s in body:
            self.run_stmt(s, env)

    def run_stmt(self, s: Stmt, env: Dict[str, object]) -> None:
        if isinstance(s, VarDecl):
            env[s.name] = _as_dtype(self.eval(s.init, env), s.type)
        elif isinstance(s, Assign):
            current = env.get(s.name)
            value = self.eval(s.value, env)
            if current is not None and hasattr(current, "dtype"):
                value = _as_dtype(value, None)
                value = np.asarray(value).astype(
                    np.asarray(current).dtype, copy=False)
            env[s.name] = value
        elif isinstance(s, OutputWrite):
            env[_OUTPUT_SLOT] = _as_dtype(
                self.eval(s.value, env), self.kernel.pixel_type)
        elif isinstance(s, ForRange):
            start = self._scalar(self.eval(s.start, env), "loop start")
            stop = self._scalar(self.eval(s.stop, env), "loop stop")
            step = self._scalar(self.eval(s.step, env), "loop step")
            if step == 0:
                raise VerificationError("loop step must be non-zero")
            for v in range(start, stop, step):
                env[s.var] = np.int32(v)
                self.run_body(s.body, env)
            env.pop(s.var, None)
        elif isinstance(s, If):
            self._run_if(s, env)
        else:
            raise VerificationError(
                f"cannot execute statement {type(s).__name__}")

    @staticmethod
    def _scalar(v, what: str) -> int:
        arr = np.asarray(v)
        if arr.ndim != 0:
            raise VerificationError(
                f"{what} must be uniform across the block, got an array")
        return int(arr)

    def _run_if(self, s: If, env: Dict[str, object]) -> None:
        cond = self.eval(s.cond, env)
        cond_arr = np.asarray(cond)
        if cond_arr.ndim == 0:
            # uniform branch: no divergence
            self.run_body(s.then_body if bool(cond_arr) else s.else_body,
                          env)
            return
        # divergent branch: execute both sides on copies, merge per lane
        then_env = dict(env)
        else_env = dict(env)
        self.run_body(s.then_body, then_env)
        self.run_body(s.else_body, else_env)
        names = set(then_env) | set(else_env)
        for name in names:
            tv = then_env.get(name)
            ev = else_env.get(name)
            if tv is None or ev is None:
                # declared on one side only: dies at the join (block scope)
                continue
            if tv is ev:
                env[name] = tv
            else:
                env[name] = np.where(cond_arr, tv, ev)


def evaluate_body(kernel: KernelIR, accessors: Dict[str, Accessor],
                  gx: np.ndarray, gy: np.ndarray,
                  side_x: Side = Side.BOTH, side_y: Side = Side.BOTH,
                  faults_on_oob: bool = False) -> np.ndarray:
    """Evaluate *kernel* for pixels (gx, gy); returns the output values
    (shape ``np.broadcast_shapes(gx.shape, gy.shape)``) in the kernel's
    pixel type.  The result is a fresh array, never a view of an input.

    A launch region passes a row vector *gx* (1xW) and a column vector
    *gy* (Hx1); an arbitrary pixel set passes equal-shape index arrays.

    Each evaluation (one border region of one launch) is recorded as a
    ``sim.evaluate`` span, so a trace of ``execute()`` shows where the
    simulated device time actually went region by region.
    """
    from ..obs import span
    shape = np.broadcast_shapes(np.shape(gx), np.shape(gy))
    with span("sim.evaluate", kernel=kernel.name,
              pixels=int(np.prod(shape))):
        ctx = ExecutionContext(kernel, accessors, gx, gy, side_x, side_y,
                               faults_on_oob)
        env: Dict[str, object] = {}
        ctx.run_body(kernel.body, env)
    if _OUTPUT_SLOT not in env:
        raise VerificationError(
            f"kernel {kernel.name!r} did not write output()")
    out = env[_OUTPUT_SLOT]
    result = np.broadcast_to(
        np.asarray(out, dtype=kernel.pixel_type.np_dtype), shape)
    return np.array(result, copy=True)


def execute_pixels(kernel: KernelIR, accessors: Dict[str, Accessor],
                   xs: np.ndarray, ys: np.ndarray,
                   sides: Tuple[Side, Side] = (Side.BOTH, Side.BOTH),
                   faults_on_oob: bool = False) -> np.ndarray:
    """Convenience wrapper used by tests: evaluate arbitrary pixel sets."""
    return evaluate_body(kernel, accessors, np.asarray(xs), np.asarray(ys),
                         sides[0], sides[1], faults_on_oob)
