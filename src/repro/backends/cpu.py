"""CPU backend: C99 + OpenMP code generation.

HIPAcc later grew a CPU target; this backend shows how the paper's
device-specific machinery retargets to one.  The GPU's two-layered
parallelism maps onto OpenMP worksharing, and the nine-region boundary
specialisation becomes *loop splitting*: the interior runs as a tight
``#pragma omp parallel for`` nest with zero conditionals (serial below
:data:`PARALLEL_MIN_PIXELS`), while eight border strips run with exactly
the side-limited index adjustments the GPU variants use.  Filter masks
become ``static const`` arrays (the CPU's constant memory is its L1),
and the same ``bh_*`` helpers are emitted as ``static inline``
functions.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..dsl.boundary import Boundary
from ..errors import CodegenError
from ..ir.nodes import KernelIR
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
        "// CUDA/OpenCL's polymorphic min/max as C99 macros; kernel",
        "// expressions are pure, so double evaluation is safe",
        "#ifndef min",
        "#define min(a, b) ((a) < (b) ? (a) : (b))",
        "#endif",
        "#ifndef max",
        "#define max(a, b) ((a) > (b) ? (a) : (b))",
        "#endif",
        "",
        "// boundary index adjustment helpers",
    ]
    for name, args, body in BH_HELPERS:
        lines.append(f"static inline int {name}({args}) {{ {body} }}")
    return lines


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

    def _signature(self, kernel: KernelIR) -> str:
        out_t = kernel.pixel_type.cuda_name
        args = [f"{out_t} * restrict OUT", "int OUT_stride"]
        for acc in kernel.accessors:
            t = acc.pixel_type.cuda_name
            args.append(f"const {t} * restrict {acc.name}")
            args += [f"int {acc.name}_width", f"int {acc.name}_height",
                     f"int {acc.name}_stride"]
        args += ["int IS_width", "int IS_height",
                 "int IS_offset_x", "int IS_offset_y"]
        for p in kernel.params:
            if not p.baked:
                args.append(f"{p.type.cuda_name} {p.name}")
        return f"void {kernel.name}_cpu({', '.join(args)})"

    def _region_loops(self, kernel: KernelIR, region: BorderRegion,
                      geometry: Tuple[int, int]) -> List[str]:
        """One split loop nest covering *region* (pixel units)."""
        x0, x1 = region.bx_lo, min(region.bx_hi, geometry[0])
        y0, y1 = region.by_lo, min(region.by_hi, geometry[1])
        if x1 <= x0 or y1 <= y0:
            return []
        exprs = CExprPrinter("cuda",
                             lower_read=self._lower_read(kernel, region),
                             lower_mask=self._lower_mask(kernel))
        stmts = CStmtPrinter(
            exprs,
            lower_write=lambda v:
            f"OUT[gid_y * OUT_stride + gid_x] = {v};")
        label = region.label if not region.is_interior else \
            "NO_BH (interior fast path)"
        lines = [
            f"    // region {label}: "
            f"x in {x0}..{x1}-1, y in {y0}..{y1}-1",
        ]
        if region.is_interior and \
                (x1 - x0) * (y1 - y0) >= PARALLEL_MIN_PIXELS:
            lines.append("    #pragma omp parallel for schedule(static)")
        lines += [
            f"    for (int gid_y = IS_offset_y + {y0}; "
            f"gid_y < IS_offset_y + {y1}; ++gid_y) {{",
            f"        for (int gid_x = IS_offset_x + {x0}; "
            f"gid_x < IS_offset_x + {x1}; ++gid_x) {{",
        ]
        lines += stmts.print_body(kernel.body, 3)
        lines += ["        }", "    }"]
        return lines

    def kernel_unit(self, kernel: KernelIR,
                    launch_geometry: Optional[Tuple[int, int]] = None
                    ) -> CpuKernelUnit:
        """Lower one kernel to its TU fragment (no shared preamble)."""
        if launch_geometry is None:
            raise CodegenError(
                "the CPU backend splits loops at compile time and needs "
                "the iteration-space geometry")
        kernel = prepare_kernel(kernel, self.options)
        width, height = launch_geometry
        window = (1, 1)
        for acc in kernel.accessors:
            window = (max(window[0], acc.window[0]),
                      max(window[1], acc.window[1]))
        # block (1,1): regions in exact pixel strips
        layout = classify_regions(width, height, (1, 1), window)

        func_lines = [self._signature(kernel) + " {"]
        # interior first (the hot loop), then border strips
        ordered = sorted(layout.regions,
                         key=lambda r: 0 if r.is_interior else 1)
        for region in ordered:
            func_lines += self._region_loops(kernel, region,
                                             (width, height))
        func_lines.append("}")
        return CpuKernelUnit(
            name=kernel.name,
            entry=f"{kernel.name}_cpu",
            interp_lines=self._interp_lines(kernel),
            mask_lines=self._mask_lines(kernel),
            func_lines=func_lines,
            num_variants=sum(1 for r in layout.regions
                             if r.num_blocks > 0 or r.is_interior),
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
