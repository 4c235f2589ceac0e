"""Backend-independent code generation machinery.

* :class:`CodegenOptions` — every device-specific lowering decision the
  paper's compiler makes (texture path, scratchpad staging, constant-memory
  masks, boundary specialisation, block configuration, unrolling...).  The
  GPU simulator consumes the same object, so simulated semantics always
  match printed code.
* :class:`CExprPrinter` — prints kernel IR expressions as C, with pluggable
  lowering hooks for Accessor/Mask reads (each backend and each boundary
  region installs its own hook).
* :func:`generate` — dispatches to the CUDA or OpenCL backend.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CodegenError
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
from ..types import BOOL, DOUBLE, FLOAT, ScalarType


class MaskMemory(enum.Enum):
    """Where filter-mask coefficients live in generated code."""

    CONSTANT = "constant"        # __constant__ memory (static or dynamic
    #                              initialisation chosen per Mask)
    GLOBAL = "global"            # plain global buffer (baseline ablation)
    INLINE = "inline"            # folded into the code as literals


class BorderMode(enum.Enum):
    """Boundary-handling code-generation strategy."""

    SPECIALIZED = "specialized"  # nine-region MPMD dispatch (the paper)
    INLINE = "inline"            # per-access conditionals everywhere
    #                              (manual/RapidMind baseline behaviour)
    HARDWARE = "hardware"        # texture/sampler address modes (2DTex)
    NONE = "none"                # no handling (undefined behaviour)


@dataclasses.dataclass
class CodegenOptions:
    """All lowering knobs (defaults = the paper's generated configuration)."""

    backend: str = "cuda"
    use_texture: bool = False
    border: BorderMode = BorderMode.SPECIALIZED
    use_smem: bool = False
    mask_memory: MaskMemory = MaskMemory.CONSTANT
    block: Tuple[int, int] = (128, 1)
    unroll: bool = False
    fold_constants: bool = True
    fast_math: bool = False
    #: emit region-dispatch bounds as #ifndef macros so the exploration
    #: mode can re-set them at JIT time (Section V-D)
    emit_config_macros: bool = False
    pixels_per_thread: int = 1
    #: vector width for the OpenCL backend (Section VIII: "vectorization
    #: for graphics cards from AMD ... performance improves
    #: significantly").  Each work-item computes *vectorize* horizontally
    #: adjacent pixels with floatN arithmetic; interior regions use
    #: vloadN, border regions scalarise the adjusted reads per lane.
    vectorize: int = 1

    def __post_init__(self) -> None:
        # callers and the cache spell these as plain JSON values
        # ("inline", [32, 4]); hold one form
        self.border = BorderMode(self.border)
        self.mask_memory = MaskMemory(self.mask_memory)
        self.block = tuple(self.block)

    def validate(self) -> None:
        if self.backend not in ("cuda", "opencl", "cpu"):
            raise CodegenError(f"unknown backend {self.backend!r}")
        if self.backend == "cpu" and (self.use_texture or self.use_smem
                                      or self.vectorize > 1):
            raise CodegenError(
                "the CPU backend has no texture/scratchpad/floatN paths")
        if self.backend == "cpu" and self.mask_memory == MaskMemory.GLOBAL:
            raise CodegenError(
                "the CPU backend bakes masks into static arrays; it has "
                "no global-memory mask path")
        bx, by = self.block
        if bx < 1 or by < 1:
            raise CodegenError(f"invalid block configuration {self.block}")
        if self.pixels_per_thread < 1:
            raise CodegenError("pixels_per_thread must be >= 1")
        if self.pixels_per_thread > 1 and self.use_smem:
            raise CodegenError(
                "multi-pixel mapping does not support scratchpad staging "
                "(the staged tile assumes a 1:1 thread-to-row mapping)")
        if self.vectorize not in (1, 2, 4, 8, 16):
            raise CodegenError(
                f"vectorize must be an OpenCL vector width, got "
                f"{self.vectorize}")
        if self.vectorize > 1 and self.backend != "opencl":
            raise CodegenError(
                "vectorized code generation targets the OpenCL backend "
                "(AMD VLIW GPUs, Section VIII)")
        if self.vectorize > 1 and self.use_smem:
            raise CodegenError(
                "vectorized code generation does not support scratchpad "
                "staging")
        if self.vectorize > 1 and self.use_texture:
            raise CodegenError(
                "vectorized code generation uses vloadN on buffers, not "
                "image objects")
        if self.border == BorderMode.HARDWARE and not self.use_texture:
            raise CodegenError(
                "hardware boundary handling requires the texture path")


@dataclasses.dataclass
class KernelSource:
    """Result of code generation for one kernel variant."""

    entry: str
    device_code: str
    host_code: str
    backend: str
    options: CodegenOptions
    smem_bytes: int = 0
    texture_refs: Tuple[str, ...] = ()
    constant_symbols: Tuple[str, ...] = ()
    num_variants: int = 1        # boundary-region implementations emitted

    @property
    def device_lines(self) -> int:
        return len(self.device_code.splitlines())

    @property
    def host_lines(self) -> int:
        return len(self.host_code.splitlines())


# --------------------------------------------------------------------------
# C expression printing
# --------------------------------------------------------------------------

_PRECEDENCE = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}
_UNARY_PRECEDENCE = 11

ReadLowering = Callable[[str, str, str], str]
MaskLowering = Callable[[str, str, str], str]


def c_float_literal(value: float, t: Optional[ScalarType]) -> str:
    """A C literal for *value* with the correct suffix for its type."""
    import math as _math
    if _math.isinf(value):
        return ("INFINITY" if value > 0 else "-INFINITY")
    if _math.isnan(value):
        return "NAN"
    text = repr(float(value))
    if "e" not in text and "." not in text:
        text += ".0"
    if t is None or t == FLOAT:
        return text + "f"
    return text


def c_type_name(t: ScalarType, backend: str) -> str:
    """Spelling of *t* in *backend*'s C dialect; the CPU backend keeps
    the CUDA spellings."""
    return t.opencl_name if backend == "opencl" else t.cuda_name


class CExprPrinter:
    """Prints IR expressions as C for a given backend.

    *lower_read* / *lower_mask* receive ``(name, dx_code, dy_code)`` and
    return the C expression for the access — this is where texture,
    scratchpad, constant-memory and boundary-handling lowering plug in.
    """

    def __init__(self, backend: str, lower_read: ReadLowering,
                 lower_mask: MaskLowering, fast_math: bool = False,
                 param_names: Optional[Dict[str, str]] = None,
                 vector_width: int = 1,
                 vector_vars: Optional[set] = None):
        self.backend = backend
        self.lower_read = lower_read
        self.lower_mask = lower_mask
        self.fast_math = fast_math
        self.param_names = param_names or {}
        self.vector_width = vector_width
        self.vector_vars = vector_vars or set()

    def type_name(self, t: ScalarType) -> str:
        return c_type_name(t, self.backend)

    def vector_type_name(self, t: ScalarType) -> str:
        """OpenCL floatN/intN spelling for vectorised locals."""
        base = self.type_name(t)
        if self.vector_width > 1 and t != BOOL:
            return f"{base}{self.vector_width}"
        return base

    def is_vector(self, e: Expr) -> bool:
        """Does *e* evaluate to a per-lane vector in vector mode?"""
        if self.vector_width <= 1:
            return False
        if isinstance(e, AccessorRead):
            return True
        if isinstance(e, VarRef):
            return e.name in self.vector_vars
        return any(self.is_vector(c) for c in e.children())

    def print(self, e: Expr, parent_prec: int = 0) -> str:
        if isinstance(e, IntConst):
            return str(e.value)
        if isinstance(e, FloatConst):
            return c_float_literal(e.value, e.type)
        if isinstance(e, BoolConst):
            return "true" if e.value else "false"
        if isinstance(e, VarRef):
            return self.param_names.get(e.name, e.name)
        if isinstance(e, GidX):
            return "gid_x"
        if isinstance(e, GidY):
            return "gid_y"
        if isinstance(e, AccessorRead):
            return self.lower_read(e.accessor, self.print(e.dx),
                                   self.print(e.dy))
        if isinstance(e, MaskRead):
            return self.lower_mask(e.mask, self.print(e.dx),
                                   self.print(e.dy))
        if isinstance(e, UnOp):
            inner = self.print(e.operand, _UNARY_PRECEDENCE)
            if inner.startswith(e.op):
                # avoid "--x" / "++x" (C would parse a pre-decrement)
                inner = f"({inner})"
            return f"{e.op}{inner}"
        if isinstance(e, BinOp):
            prec = _PRECEDENCE[e.op]
            text = (f"{self.print(e.lhs, prec)} {e.op} "
                    f"{self.print(e.rhs, prec + 1)}")
            return f"({text})" if prec < parent_prec else text
        if isinstance(e, Call):
            intr = resolve(e.func)
            operand_type = e.args[0].type if e.args else FLOAT
            name = intr.target_name(self.backend, operand_type or FLOAT)
            if (self.fast_math and self.backend == "cuda"
                    and intr.fast_variant is not None
                    and operand_type != DOUBLE):
                name = intr.fast_variant
            args = ", ".join(self.print(a) for a in e.args)
            return f"{name}({args})"
        if isinstance(e, Cast):
            if e.target == BOOL:
                return f"(bool)({self.print(e.operand)})"
            if self.vector_width > 1 and self.is_vector(e.operand):
                # vector conversions use OpenCL's convert_<type><N>()
                return (f"convert_{self.type_name(e.target)}"
                        f"{self.vector_width}({self.print(e.operand)})")
            return f"({self.type_name(e.target)})({self.print(e.operand)})"
        if isinstance(e, Select):
            text = (f"{self.print(e.cond, 2)} ? {self.print(e.if_true)} : "
                    f"{self.print(e.if_false)}")
            return f"({text})"
        raise CodegenError(f"cannot print expression {type(e).__name__}")


class CStmtPrinter:
    """Prints IR statement bodies as C, delegating expressions to a
    :class:`CExprPrinter` and the output write to *lower_write*."""

    def __init__(self, exprs: CExprPrinter,
                 lower_write: Callable[[str], str]):
        self.exprs = exprs
        self.lower_write = lower_write

    def print_body(self, body: Sequence[Stmt], indent: int) -> List[str]:
        pad = "    " * indent
        lines: List[str] = []
        for s in body:
            if isinstance(s, VarDecl):
                if s.name in self.exprs.vector_vars:
                    t = self.exprs.vector_type_name(s.type or FLOAT)
                else:
                    t = self.exprs.type_name(s.type or FLOAT)
                lines.append(
                    f"{pad}{t} {s.name} = {self.exprs.print(s.init)};")
            elif isinstance(s, Assign):
                lines.append(f"{pad}{s.name} = {self.exprs.print(s.value)};")
            elif isinstance(s, If):
                lines.append(f"{pad}if ({self.exprs.print(s.cond)}) {{")
                lines += self.print_body(s.then_body, indent + 1)
                if s.else_body:
                    lines.append(f"{pad}}} else {{")
                    lines += self.print_body(s.else_body, indent + 1)
                lines.append(f"{pad}}}")
            elif isinstance(s, ForRange):
                start = self.exprs.print(s.start)
                stop = self.exprs.print(s.stop)
                step = self.exprs.print(s.step)
                incr = (f"{s.var} += {step}" if step != "1"
                        else f"++{s.var}")
                lines.append(
                    f"{pad}for (int {s.var} = {start}; {s.var} < {stop}; "
                    f"{incr}) {{")
                lines += self.print_body(s.body, indent + 1)
                lines.append(f"{pad}}}")
            elif isinstance(s, OutputWrite):
                lines.append(
                    f"{pad}{self.lower_write(self.exprs.print(s.value))}")
            else:
                raise CodegenError(
                    f"cannot print statement {type(s).__name__}")
        return lines


def prepare_kernel(kernel: KernelIR, options: CodegenOptions) -> KernelIR:
    """Apply the IR-level optimizations selected by *options*."""
    from ..ir.transforms import propagate_constants, unroll_loops

    result = kernel
    if options.fold_constants:
        fold_masks = options.mask_memory == MaskMemory.INLINE
        result = propagate_constants(result, fold_masks=fold_masks)
    if options.unroll:
        result = unroll_loops(result)
        result = propagate_constants(
            result,
            fold_masks=options.mask_memory == MaskMemory.INLINE)
    return result


def generate(kernel: KernelIR, options: CodegenOptions,
             launch_geometry: Optional[Tuple[int, int]] = None
             ) -> KernelSource:
    """Generate device + host source for *kernel* with *options*.

    *launch_geometry* is the iteration-space (width, height); required for
    the region-dispatch constants unless ``emit_config_macros`` is set.
    """
    options.validate()
    if options.backend == "cuda":
        from .cuda import CudaBackend
        return CudaBackend(options).generate(kernel, launch_geometry)
    if options.backend == "cpu":
        from .cpu import CpuBackend
        return CpuBackend(options).generate(kernel, launch_geometry)
    from .opencl import OpenCLBackend
    return OpenCLBackend(options).generate(kernel, launch_geometry)
