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
Filter masks become ``static const`` arrays (the CPU's constant memory
is its L1), and the same ``bh_*`` helpers are emitted as ``static
inline`` functions.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..dsl.boundary import Boundary
from ..errors import CodegenError
from ..ir.analysis import max_window
from ..ir.nodes import Call, KernelIR
from ..ir.visitors import map_exprs
from ..types import FLOAT
from .base import (
    BorderMode,
    CExprPrinter,
    CodegenOptions,
    CStmtPrinter,
    KernelSource,
    c_float_literal,
    prepare_kernel,
)
from .border import BorderRegion, Side, classify_regions
from .emitter import BH_HELPERS

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
        "// boundary index adjustment helpers",
    ]
    for name, args, body in BH_HELPERS:
        lines.append(f"static inline int {name}({args}) {{ {body} }}")
    return lines


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
    interp_lines: List[str]
    mask_lines: List[str]
    func_lines: List[str]
    num_variants: int


class CpuBackend:
    """Emits one C function per kernel with split loop nests."""

    backend = "cpu"

    def __init__(self, options: CodegenOptions):
        self.options = options

    # -- lowering hooks ------------------------------------------------------

    def _adjust(self, expr: str, side: Side, mode: Boundary,
                extent: str) -> str:
        if mode in (Boundary.UNDEFINED, Boundary.CONSTANT) \
                or side == Side.NONE:
            return expr
        table = {
            Boundary.CLAMP: ("bh_clamp_lo({e})", "bh_clamp_hi({e}, {n})",
                             "bh_clamp({e}, {n})"),
            Boundary.REPEAT: ("bh_repeat_lo({e}, {n})",
                              "bh_repeat_hi({e}, {n})",
                              "bh_repeat({e}, {n})"),
            Boundary.MIRROR: ("bh_mirror_lo({e})",
                              "bh_mirror_hi({e}, {n})",
                              "bh_mirror({e}, {n})"),
        }
        lo, hi, both = table[mode]
        template = lo if side == Side.LO else \
            hi if side == Side.HI else both
        return template.format(e=expr, n=extent)

    def _lower_read(self, kernel: KernelIR, region: BorderRegion):
        def lower(name: str, dx: str, dy: str) -> str:
            acc = kernel.accessor(name)
            mode = Boundary(acc.boundary_mode)
            ix = f"gid_x + ({dx})"
            iy = f"gid_y + ({dy})"
            if acc.interpolation is not None:
                return (f"_interp_{name}({name}, {name}_stride, "
                        f"{name}_width, {name}_height, {ix}, {iy})")
            if mode == Boundary.UNDEFINED \
                    or self.options.border == BorderMode.NONE:
                return f"{name}[({iy}) * {name}_stride + ({ix})]"
            if mode == Boundary.CONSTANT:
                parts = []
                if region.side_x.needs_lo():
                    parts.append(f"({ix}) < 0")
                if region.side_x.needs_hi():
                    parts.append(f"({ix}) >= {name}_width")
                if region.side_y.needs_lo():
                    parts.append(f"({iy}) < 0")
                if region.side_y.needs_hi():
                    parts.append(f"({iy}) >= {name}_height")
                cx = self._adjust(ix, region.side_x, Boundary.CLAMP,
                                  f"{name}_width")
                cy = self._adjust(iy, region.side_y, Boundary.CLAMP,
                                  f"{name}_height")
                load = f"{name}[({cy}) * {name}_stride + ({cx})]"
                if not parts:
                    return load
                const = c_float_literal(
                    acc.boundary_constant,
                    acc.pixel_type if acc.pixel_type.is_float else None)
                return f"(({' || '.join(parts)}) ? {const} : {load})"
            ax = self._adjust(ix, region.side_x, mode, f"{name}_width")
            ay = self._adjust(iy, region.side_y, mode, f"{name}_height")
            return f"{name}[({ay}) * {name}_stride + ({ax})]"

        return lower

    def _lower_mask(self, kernel: KernelIR):
        def lower(name: str, dx: str, dy: str) -> str:
            mask = kernel.mask(name)
            hx, hy = mask.size[0] // 2, mask.size[1] // 2
            return (f"_const{name}[(({dy}) + {hy}) * {mask.size[0]} "
                    f"+ (({dx}) + {hx})]")

        return lower

    # -- emission -------------------------------------------------------------

    def _mask_lines(self, kernel: KernelIR) -> List[str]:
        lines = []
        for mask in kernel.masks:
            n = mask.size[0] * mask.size[1]
            if mask.coefficients is None:
                lines.append(f"static float _const{mask.name}[{n}];")
                continue
            flat = np.asarray(mask.coefficients).reshape(-1)
            values = ", ".join(
                c_float_literal(float(v),
                                mask.pixel_type
                                if mask.pixel_type.is_float else None)
                for v in flat)
            lines.append(
                f"static const float _const{mask.name}[{n}] = "
                f"{{ {values} }};")
        return lines

    def _interp_lines(self, kernel: KernelIR) -> List[str]:
        lines: List[str] = []
        for acc in kernel.accessors:
            if acc.interpolation is None:
                continue
            t = acc.pixel_type.cuda_name
            name = acc.name
            mode = Boundary(acc.boundary_mode)
            out_w, out_h = acc.out_size

            def sample(xe, ye):
                ax = self._adjust(xe, Side.BOTH, mode, "width")
                ay = self._adjust(ye, Side.BOTH, mode, "height")
                if mode == Boundary.CONSTANT:
                    pred = (f"({xe}) < 0 || ({xe}) >= width || "
                            f"({ye}) < 0 || ({ye}) >= height")
                    const = c_float_literal(acc.boundary_constant, FLOAT)
                    return (f"(({pred}) ? {const} : img[bh_clamp({ye}, "
                            f"height) * stride + bh_clamp({xe}, width)])")
                return f"img[({ay}) * stride + ({ax})]"

            lines += [
                f"static inline {t} _interp_{name}(const {t} * img, "
                f"int stride, int width, int height, int ox, int oy) {{",
                f"    float fx = (ox + 0.5f) * ((float)width / "
                f"{out_w}.0f) - 0.5f;",
                f"    float fy = (oy + 0.5f) * ((float)height / "
                f"{out_h}.0f) - 0.5f;",
            ]
            if acc.interpolation == "nearest":
                lines += [
                    "    int nx = (int)floorf(fx + 0.5f);",
                    "    int ny = (int)floorf(fy + 0.5f);",
                    f"    return {sample('nx', 'ny')};",
                    "}",
                ]
            else:
                lines += [
                    "    int x0 = (int)floorf(fx);",
                    "    int y0 = (int)floorf(fy);",
                    "    float wx = fx - x0, wy = fy - y0;",
                    f"    {t} v00 = {sample('x0', 'y0')};",
                    f"    {t} v10 = {sample('x0 + 1', 'y0')};",
                    f"    {t} v01 = {sample('x0', 'y0 + 1')};",
                    f"    {t} v11 = {sample('x0 + 1', 'y0 + 1')};",
                    "    return (v00 * (1.0f - wx) + v10 * wx) * "
                    "(1.0f - wy) + (v01 * (1.0f - wx) + v11 * wx) * wy;",
                    "}",
                ]
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

    def _body(self, kernel: KernelIR, region: BorderRegion,
              indent: int) -> List[str]:
        """The kernel body for one pixel ``(gid_x, gid_y)``, with the
        index adjustments *region*'s sides need."""
        exprs = CExprPrinter("cuda",
                             lower_read=self._lower_read(kernel, region),
                             lower_mask=self._lower_mask(kernel))
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
        lines += self._body(kernel, BorderRegion(
            Side.NONE, Side.NONE, x0, x1, y0, y1), 3)
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
            func_lines += self._body(kernel, BorderRegion(
                Side.BOTH, Side.BOTH, 0, width, 0, height), 1)
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
            interp_lines=self._interp_lines(kernel),
            mask_lines=self._mask_lines(kernel),
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
        lines += unit.interp_lines
        lines += unit.mask_lines
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
