"""CPU backend: C99 + OpenMP code generation.

HIPAcc later grew a CPU target; this backend shows how the paper's
device-specific machinery retargets to one.  The GPU's two-layered
parallelism maps onto OpenMP worksharing, and the nine-region boundary
specialisation becomes *loop splitting*: the interior runs as a tight
``#pragma omp parallel for`` nest with zero conditionals (serial below
:data:`PARALLEL_MIN_PIXELS`), which the native tier's ``-O3
-march=native`` build vectorises for the host.  The eight border strips
share one out-of-line border function, ``<kernel>_bpx``, whose body is
lowered once with two-sided index adjustments and compiled for size
(``cold``); one serial loop calls it for every pixel outside the
interior.  The body is thus compiled twice per kernel rather than nine
times, which keeps the ``-O3`` build as cheap as the old ``-O2`` one.
Reads, filter masks and resampling helpers lower through the same
:mod:`repro.backends.border` code as the GPU backends: masks become
``static const`` arrays of their own pixel type (the CPU's constant
memory is its L1), and the ``bh_*`` helpers are ``static inline``
functions.  Types and intrinsics keep their CUDA spellings.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..errors import CodegenError
from ..ir.analysis import max_window
from ..ir.nodes import Call, KernelIR
from ..ir.visitors import map_exprs
from .base import (
    BorderMode,
    CExprPrinter,
    CodegenOptions,
    CStmtPrinter,
    KernelSource,
    c_type_name,
    prepare_kernel,
)
from .border import (
    Side,
    bh_helper_lines,
    bounded_read,
    classify_regions,
    interp_call,
    interp_helper_lines,
    mask_declaration,
    mask_index,
    mask_symbol,
)

#: smallest interior region, in pixels, that runs as an OpenMP parallel
#: loop.  Below it the loop stays serial: waking a sleeping thread team
#: costs more than a small stencil's whole interior (docs/NATIVE.md has
#: the measured crossover).
PARALLEL_MIN_PIXELS = 65536


def cpu_common_preamble() -> List[str]:
    """Lines shared by every CPU translation unit: includes, the
    min/max macros and the ``bh_*`` boundary helpers.  Emitted once per
    TU whether it holds one kernel (:meth:`CpuBackend.generate`) or a
    whole graph (``runtime/native_graph.py``)."""
    lines = [
        "#include <math.h>",
        "#include <stdlib.h>",
        "#include <omp.h>",
        "",
        "// CUDA/OpenCL's polymorphic min/max as C99 macros with NumPy's",
        "// minimum/maximum semantics: a NaN operand propagates (the",
        "// first one when both are NaN), equal operands such as -0/+0",
        "// give the second.  `+ 0.0f` lets __builtin_isnan take integer",
        "// operands too.  Kernel expressions are pure, so evaluating an",
        "// operand more than once is safe",
        "#ifndef min",
        "#define min(a, b) "
        "(__builtin_isnan((a) + 0.0f) ? (a) : (a) < (b) ? (a) : (b))",
        "#endif",
        "#ifndef max",
        "#define max(a, b) "
        "(__builtin_isnan((a) + 0.0f) ? (a) : (a) > (b) ? (a) : (b))",
        "#endif",
        "",
    ]
    return lines + bh_helper_lines("static inline")


def _numpy_min_max(kernel: KernelIR) -> KernelIR:
    """Lower ``fmin``/``fmax`` through the ``min``/``max`` macros: the
    simulator evaluates all four with NumPy's NaN-propagating
    ``minimum``/``maximum``, while libm's ``fminf`` ignores a NaN."""
    def rewrite(e):
        if isinstance(e, Call) and e.func in ("fmin", "fmax"):
            return dataclasses.replace(e, func=e.func[1:])
        return e

    return dataclasses.replace(kernel, body=map_exprs(kernel.body, rewrite))


@dataclasses.dataclass
class CpuKernelUnit:
    """The per-kernel portion of a CPU translation unit, split from the
    shared preamble so several kernels can share one TU."""

    name: str
    entry: str
    #: resampling helpers and mask arrays, ahead of the functions
    decl_lines: List[str]
    func_lines: List[str]
    num_variants: int


class CpuBackend:
    """Emits one C function per kernel with split loop nests."""

    backend = "cpu"

    def __init__(self, options: CodegenOptions):
        self.options = options

    def _decl_lines(self, kernel: KernelIR) -> List[str]:
        lines: List[str] = []
        for acc in kernel.accessors:
            if acc.interpolation is not None:
                lines += interp_helper_lines(
                    acc, c_type_name(acc.pixel_type, "cpu"),
                    "static inline", "const ", "floorf")
        for mask in kernel.masks:
            if mask.coefficients is None:
                raise CodegenError(
                    f"mask {mask.name!r} of kernel {kernel.name!r} has no "
                    "coefficients: call Mask.set() before generating CPU "
                    "code")
            lines.append(mask_declaration(
                mask, "static const", c_type_name(mask.pixel_type, "cpu")))
        return lines

    def _params(self, kernel: KernelIR) -> List[Tuple[str, str]]:
        """(declaration, name) of every entry-point parameter."""
        out_t = kernel.pixel_type.cuda_name
        params = [(f"{out_t} * restrict OUT", "OUT"),
                  ("int OUT_stride", "OUT_stride")]
        for acc in kernel.accessors:
            t = acc.pixel_type.cuda_name
            params.append((f"const {t} * restrict {acc.name}", acc.name))
            params += [(f"int {acc.name}_{f}", f"{acc.name}_{f}")
                       for f in ("width", "height", "stride")]
        params += [(f"int IS_{f}", f"IS_{f}")
                   for f in ("width", "height", "offset_x", "offset_y")]
        for p in kernel.params:
            if not p.baked:
                params.append((f"{p.type.cuda_name} {p.name}", p.name))
        return params

    def _body(self, kernel: KernelIR, side: Side,
              indent: int) -> List[str]:
        """The kernel body for one pixel ``(gid_x, gid_y)``, with the
        index adjustments *side* of both axes needs."""
        def read(name: str, dx: str, dy: str) -> str:
            acc = kernel.accessor(name)
            ix, iy = f"gid_x + ({dx})", f"gid_y + ({dy})"
            if acc.interpolation is not None:
                return interp_call(name, ix, iy)

            def load(x: str, y: str) -> str:
                return f"{name}[({y}) * {name}_stride + ({x})]"

            if self.options.border == BorderMode.NONE:
                return load(ix, iy)
            return bounded_read(acc, load, ix, iy, side, side,
                                f"{name}_width", f"{name}_height")

        def mask(name: str, dx: str, dy: str) -> str:
            info = kernel.mask(name)
            return f"{mask_symbol(info)}[{mask_index(info, dx, dy)}]"

        exprs = CExprPrinter("cuda", lower_read=read, lower_mask=mask)
        stmts = CStmtPrinter(
            exprs,
            lower_write=lambda v:
            f"OUT[gid_y * OUT_stride + gid_x] = {v};")
        return stmts.print_body(kernel.body, indent)

    def _interior_nest(self, kernel: KernelIR,
                       box: Tuple[int, int, int, int]) -> List[str]:
        """The unguarded interior loop nest over *box* (pixel units)."""
        x0, x1, y0, y1 = box
        lines = [
            f"    // region NO_BH (interior fast path): "
            f"x in {x0}..{x1}-1, y in {y0}..{y1}-1",
        ]
        if (x1 - x0) * (y1 - y0) >= PARALLEL_MIN_PIXELS:
            lines.append("    #pragma omp parallel for schedule(static)")
        lines += [
            f"    for (int gid_y = IS_offset_y + {y0}; "
            f"gid_y < IS_offset_y + {y1}; ++gid_y) {{",
            f"        for (int gid_x = IS_offset_x + {x0}; "
            f"gid_x < IS_offset_x + {x1}; ++gid_x) {{",
        ]
        lines += self._body(kernel, Side.NONE, 3)
        lines += ["        }", "    }"]
        return lines

    def _border_loop(self, kernel: KernelIR, params: List[str],
                     geometry: Tuple[int, int],
                     box: Optional[Tuple[int, int, int, int]]
                     ) -> List[str]:
        """One serial loop calling the border function for every pixel
        outside the interior *box* (every pixel when *box* is None)."""
        width, height = geometry
        call = (f"{kernel.name}_bpx({', '.join(params)}, "
                f"IS_offset_x + x, IS_offset_y + y);")
        lines = ["    // border frame: every pixel outside the interior, "
                 "one out-of-line call each",
                 f"    for (int y = 0; y < {height}; ++y) {{"]
        if box is None:
            lines += [f"        for (int x = 0; x < {width}; ++x)",
                      f"            {call}"]
        else:
            x0, x1, y0, y1 = box
            lines += [
                f"        const int skip = (y >= {y0} && y < {y1}) "
                f"? {x1 - x0} : 0;",
                f"        for (int x = 0; x < {width}; ++x) {{",
                f"            if (x == {x0}) x += skip;",
                f"            if (x < {width}) {call}",
                "        }",
            ]
        lines.append("    }")
        return lines

    def kernel_unit(self, kernel: KernelIR,
                    launch_geometry: Optional[Tuple[int, int]] = None,
                    export: bool = True) -> CpuKernelUnit:
        """Lower one kernel to its TU fragment (no shared preamble).

        With *export* False the entry function is ``static``: a TU that
        calls it from one place of its own lets the compiler inline it
        there rather than also compile a standalone copy."""
        if launch_geometry is None:
            raise CodegenError(
                "the CPU backend splits loops at compile time and needs "
                "the iteration-space geometry")
        kernel = _numpy_min_max(prepare_kernel(kernel, self.options))
        width, height = launch_geometry
        # block (1,1): regions in exact pixel strips
        layout = classify_regions(width, height, (1, 1), max_window(kernel))
        box = None
        for r in layout.regions:
            if r.is_interior and r.bx_hi > r.bx_lo and r.by_hi > r.by_lo:
                box = (r.bx_lo, r.bx_hi, r.by_lo, r.by_hi)
        has_border = box is None or \
            (box[1] - box[0]) * (box[3] - box[2]) < width * height

        params = self._params(kernel)
        decls = ", ".join(d for d, _ in params)
        func_lines: List[str] = []
        if has_border:
            # the border pixels share one out-of-line body with two-sided
            # index adjustments: in a non-degenerate layout no border
            # pixel reaches the far side, so it computes exactly what the
            # side-limited strip variants would — compiled once, not
            # eight times, and for size (``cold``): neither unrolled nor
            # vectorised, which keeps the -O3 build's cc time down
            func_lines += [
                f"static __attribute__((noinline, cold)) void "
                f"{kernel.name}_bpx({decls}, int gid_x, int gid_y) {{"]
            func_lines += self._body(kernel, Side.BOTH, 1)
            func_lines += ["}", ""]
        linkage = "" if export else "static "
        func_lines.append(f"{linkage}void {kernel.name}_cpu({decls}) {{")
        # interior first (the hot loop), then the border frame
        if box is not None:
            func_lines += self._interior_nest(kernel, box)
        if has_border:
            func_lines += self._border_loop(
                kernel, [n for _, n in params], (width, height), box)
        func_lines.append("}")
        return CpuKernelUnit(
            name=kernel.name,
            entry=f"{kernel.name}_cpu",
            decl_lines=self._decl_lines(kernel),
            func_lines=func_lines,
            num_variants=int(box is not None) + int(has_border),
        )

    def generate(self, kernel: KernelIR,
                 launch_geometry: Optional[Tuple[int, int]] = None
                 ) -> KernelSource:
        unit = self.kernel_unit(kernel, launch_geometry)
        lines: List[str] = [
            f"// {unit.name}: generated by hipacc-py (CPU/OpenMP "
            "backend)",
        ]
        lines += cpu_common_preamble()
        lines += unit.decl_lines
        lines.append("")
        lines += unit.func_lines
        device_code = "\n".join(lines) + "\n"
        host_code = "\n".join([
            f"// host side for {unit.entry}: plain function call —",
            "// no transfers, no launch; compile with -fopenmp",
        ]) + "\n"
        return KernelSource(
            entry=unit.entry,
            device_code=device_code,
            host_code=host_code,
            backend="cpu",
            options=self.options,
            num_variants=unit.num_variants,
        )
