"""Shared kernel-emission skeleton for the CUDA and OpenCL backends.

Implements everything the two GPU targets have in common — thread-index
setup, the nine-region boundary dispatch (Listing 8), scratchpad staging
(Listing 7), vectorised reads — while subclasses supply target syntax
(qualifiers, builtins, texture reads, host API).  Boundary index
adjustment, constant-border reads, constant-memory masks and resampling
helpers come from :mod:`repro.backends.border`, which the CPU backend
lowers through as well.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.boundary import Boundary
from ..errors import CodegenError
from ..ir.nodes import (
    AccessorInfo,
    AccessorRead,
    Assign,
    GidX,
    GidY,
    KernelIR,
    MaskInfo,
    VarDecl,
    VarRef,
)
from ..hwmodel.resources import smem_tile_bytes, smem_tile_geometry
from ..ir.analysis import max_window, read_accessors
from ..ir.visitors import iter_all_exprs, walk_stmts
from ..types import ScalarType
from .base import (
    BorderMode,
    CExprPrinter,
    CodegenOptions,
    CStmtPrinter,
    KernelSource,
    MaskMemory,
    c_type_name,
    prepare_kernel,
)
from .border import (
    BorderRegion,
    RegionLayout,
    Side,
    adjust_index,
    bh_helper_lines,
    bounded_read,
    classify_regions,
    interp_call,
    interp_helper_lines,
    mask_declaration,
    mask_index,
    mask_symbol,
    region_grid_predicate,
)

#: Boundary modes hardware address modes can express (paper Section VI-A.1).
HARDWARE_MODES_CUDA = {Boundary.CLAMP, Boundary.REPEAT}
HARDWARE_MODES_OPENCL = {Boundary.CLAMP, Boundary.REPEAT, Boundary.CONSTANT}

def infer_vector_vars(kernel: KernelIR) -> set:
    """Locals that carry per-lane (vector) values in vectorised codegen:
    anything data-dependent on an accessor read, to a fixed point."""
    vec: set = set()

    def isv(e) -> bool:
        if isinstance(e, AccessorRead):
            return True
        if isinstance(e, VarRef):
            return e.name in vec
        return any(isv(c) for c in e.children())

    changed = True
    while changed:
        changed = False
        for stmt in walk_stmts(kernel.body):
            if isinstance(stmt, VarDecl):
                if stmt.name not in vec and isv(stmt.init):
                    vec.add(stmt.name)
                    changed = True
            elif isinstance(stmt, Assign):
                if stmt.name not in vec and isv(stmt.value):
                    vec.add(stmt.name)
                    changed = True
    return vec


class KernelEmitter:
    """Base class for target backends; one instance per generate() call."""

    backend: str = ""

    def __init__(self, options: CodegenOptions):
        self.options = options

    # ------------------------------------------------------------------
    # target-specific syntax hooks (subclasses override)
    # ------------------------------------------------------------------

    def device_fn_qualifier(self) -> str:
        raise NotImplementedError

    def kernel_qualifier(self) -> str:
        raise NotImplementedError

    def smem_qualifier(self) -> str:
        raise NotImplementedError

    def sync_statement(self) -> str:
        raise NotImplementedError

    def block_idx(self, axis: int) -> str:
        raise NotImplementedError

    def local_idx(self, axis: int) -> str:
        raise NotImplementedError

    def block_dim(self, axis: int) -> str:
        raise NotImplementedError

    def emit_global_read(self, acc: AccessorInfo, ix: str, iy: str) -> str:
        return f"{acc.name}[({iy}) * {acc.name}_stride + ({ix})]"

    def emit_texture_read(self, acc: AccessorInfo, ix: str, iy: str) -> str:
        raise NotImplementedError

    def emit_hardware_read(self, acc: AccessorInfo, dx: str, dy: str) -> str:
        """Read through hardware boundary handling (2D texture/sampler)."""
        raise NotImplementedError

    def emit_output_write(self, kernel: KernelIR, value: str) -> str:
        raise NotImplementedError

    def kernel_signature(self, kernel: KernelIR) -> str:
        raise NotImplementedError

    def file_preamble(self, kernel: KernelIR) -> List[str]:
        raise NotImplementedError

    def generate_host_code(self, kernel: KernelIR,
                           layout: Optional[RegionLayout]) -> str:
        raise NotImplementedError

    def type_name(self, t: ScalarType) -> str:
        return c_type_name(t, self.backend)

    def supports_goto(self) -> bool:
        """CUDA C supports the Listing-8 goto dispatch; OpenCL C forbids
        goto, so that backend chains if/else region blocks instead."""
        return self.backend == "cuda"

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------

    def entry_name(self, kernel: KernelIR) -> str:
        return f"{kernel.name}_kernel"

    def _hardware_modes(self):
        return (HARDWARE_MODES_CUDA if self.backend == "cuda"
                else HARDWARE_MODES_OPENCL)

    def _check_hardware_support(self, kernel: KernelIR) -> None:
        supported = self._hardware_modes()
        for acc in kernel.accessors:
            mode = Boundary(acc.boundary_mode)
            if mode == Boundary.UNDEFINED:
                continue
            if mode not in supported:
                raise CodegenError(
                    f"hardware boundary handling on {self.backend} does not "
                    f"support mode {mode.value!r} (accessor {acc.name}); "
                    f"supported: "
                    f"{sorted(m.value for m in supported)}")
            if (self.backend == "opencl" and mode == Boundary.CONSTANT
                    and acc.boundary_constant not in (0.0, 1.0)):
                raise CodegenError(
                    "OpenCL samplers only support constant border values "
                    "0.0 or 1.0")

    def _bounded_read(self, acc: AccessorInfo, read, ix: str, iy: str,
                      region: BorderRegion) -> str:
        """Read *acc* with ``read(acc, ix, iy)`` through its boundary
        mode, on the sides *region* can cross."""
        return bounded_read(acc, lambda x, y: read(acc, x, y), ix, iy,
                            region.side_x, region.side_y,
                            f"{acc.name}_width", f"{acc.name}_height")

    def make_read_lowering(self, kernel: KernelIR, region: BorderRegion,
                           smem_accessors: Sequence[str]):
        """Build the AccessorRead lowering hook for one region variant."""

        def lower(name: str, dx: str, dy: str) -> str:
            acc = kernel.accessor(name)
            mode = Boundary(acc.boundary_mode)

            if acc.interpolation is not None:
                if self.options.use_texture:
                    raise CodegenError(
                        "interpolating accessors read linear buffers; "
                        "disable the texture path")
                if self.options.vectorize > 1:
                    raise CodegenError(
                        "interpolating accessors are not supported in "
                        "vectorized kernels")
                return interp_call(name, f"gid_x + ({dx})",
                                   f"gid_y + ({dy})")

            if self.options.vectorize > 1:
                return self._vector_read(region, acc, mode, dx, dy)

            if self.options.border == BorderMode.HARDWARE \
                    and mode != Boundary.UNDEFINED:
                return self.emit_hardware_read(acc, dx, dy)

            if name in smem_accessors:
                # Scratchpad reads are pre-adjusted during staging.
                ly = f"{self.local_idx(1)} + ({dy}) + {name}_HALF_Y"
                lx = f"{self.local_idx(0)} + ({dx}) + {name}_HALF_X"
                return f"_smem{name}[{ly}][{lx}]"

            ix = f"gid_x + ({dx})"
            iy = f"gid_y + ({dy})"
            if self.options.border == BorderMode.NONE:
                return self._plain_read(acc, ix, iy)
            return self._bounded_read(acc, self._plain_read, ix, iy,
                                      region)

        return lower

    def _plain_read(self, acc: AccessorInfo, ix: str, iy: str) -> str:
        if self.options.use_texture:
            return self.emit_texture_read(acc, ix, iy)
        return self.emit_global_read(acc, ix, iy)

    def _vector_read(self, region: BorderRegion, acc: AccessorInfo,
                     mode: Boundary, dx: str, dy: str) -> str:
        """Vectorised read (OpenCL, Section VIII): contiguous vloadN in
        the interior, per-lane scalarised + boundary-adjusted gathers in
        border regions."""
        vec = self.options.vectorize
        name = acc.name
        t = self.type_name(acc.pixel_type)
        iy = f"gid_y + ({dy})"
        ix = f"gid_x + ({dx})"
        interior = (region.side_x == Side.NONE
                    and region.side_y == Side.NONE
                    and (self.options.border != BorderMode.INLINE)
                    and mode != Boundary.CONSTANT)
        if interior or mode == Boundary.UNDEFINED \
                or self.options.border == BorderMode.NONE:
            return (f"vload{vec}(0, {name} + ({iy}) * {name}_stride "
                    f"+ ({ix}))")
        lanes = [self._bounded_read(acc, self.emit_global_read,
                                    f"gid_x + ({dx}) + {lane}", iy, region)
                 for lane in range(vec)]
        return f"({t}{vec})({', '.join(lanes)})"

    def _check_vectorizable(self, kernel: KernelIR) -> None:
        for e in iter_all_exprs(kernel.body):
            if isinstance(e, (GidX, GidY)):
                raise CodegenError(
                    "vectorized code generation does not support "
                    "x()/y() position queries yet")

    def make_mask_lowering(self, kernel: KernelIR):
        def lower(name: str, dx: str, dy: str) -> str:
            mask = kernel.mask(name)
            idx = mask_index(mask, dx, dy)
            # global masks, and OpenCL's dynamically initialised
            # constant memory (Section IV-C), are buffer arguments
            if self.options.mask_memory == MaskMemory.GLOBAL or (
                    self.options.mask_memory == MaskMemory.CONSTANT
                    and not self._mask_is_static(mask)
                    and self.backend == "opencl"):
                return f"{mask.name}_coeffs[{idx}]"
            return f"{mask_symbol(mask)}[{idx}]"

        return lower

    def _mask_is_static(self, mask: MaskInfo) -> bool:
        return mask.compile_time_constant and mask.coefficients is not None

    # -- constant-memory mask declarations ------------------------------

    def emit_mask_declarations(self, kernel: KernelIR) -> List[str]:
        lines: List[str] = []
        # INLINE folds constant masks into literals, but reads at
        # non-constant offsets cannot fold; those fall back to constant
        # memory, so the declarations are still required.
        if self.options.mask_memory not in (MaskMemory.CONSTANT,
                                            MaskMemory.INLINE):
            return lines
        for mask in kernel.masks:
            static = self._mask_is_static(mask)
            # a dynamic mask is declared only on CUDA, initialised at run
            # time via cudaMemcpyToSymbol (Section IV-C); on OpenCL it
            # arrives as a __constant buffer argument
            if static or self.backend == "cuda":
                lines.append(mask_declaration(
                    mask, self.constant_qualifier(),
                    self.type_name(mask.pixel_type), initialise=static))
        return lines

    def constant_qualifier(self) -> str:
        raise NotImplementedError

    # -- scratchpad staging ----------------------------------------------

    def smem_staging_lines(self, kernel: KernelIR, region: BorderRegion,
                           acc: AccessorInfo, indent: int) -> List[str]:
        """Emit Listing-7 staging: cooperative load of the block's input
        tile (with halo) into scratchpad memory, then a barrier."""
        pad = "    " * indent
        bx, by = self.options.block
        name = acc.name
        wx, wy = acc.window
        hx, hy = wx // 2, wy // 2
        tile_w, tile_h = smem_tile_geometry((bx, by), (wx, wy))
        mode = Boundary(acc.boundary_mode)

        lines = [
            f"{pad}// stage {name} tile into scratchpad (Listing 7)",
            f"{pad}{self.smem_qualifier()} "
            f"{self.type_name(acc.pixel_type)} "
            f"_smem{name}[{tile_h}][{tile_w}];",
            f"{pad}for (int _sy = {self.local_idx(1)}; _sy < {tile_h}; "
            f"_sy += {self.block_dim(1)}) {{",
            f"{pad}    for (int _sx = {self.local_idx(0)}; _sx < {tile_w}; "
            f"_sx += {self.block_dim(0)}) {{",
            f"{pad}        int _ix = {self.block_idx(0)} * "
            f"{self.block_dim(0)} + _sx - {hx};",
            f"{pad}        int _iy = {self.block_idx(1)} * "
            f"{self.block_dim(1)} + _sy - {hy};",
        ]
        load = self._plain_read(acc, "_ix", "_iy")
        if self.options.border != BorderMode.NONE:
            if mode == Boundary.CONSTANT:
                load = self._bounded_read(acc, self._plain_read, "_ix",
                                          "_iy", region)
            elif mode != Boundary.UNDEFINED:
                # adjust the staged index in place; the load reads it
                ax = adjust_index("_ix", region.side_x, mode,
                                  f"{name}_width")
                ay = adjust_index("_iy", region.side_y, mode,
                                  f"{name}_height")
                lines += [f"{pad}        _ix = {ax};",
                          f"{pad}        _iy = {ay};"]
        lines += [
            f"{pad}        _smem{name}[_sy][_sx] = {load};",
            f"{pad}    }}",
            f"{pad}}}",
            f"{pad}{self.sync_statement()}",
        ]
        return lines

    # -- region dispatch ---------------------------------------------------

    def effective_block(self) -> Tuple[int, int]:
        """Pixels covered per block: x scales with the vector width, y
        with the pixels-per-thread factor (the OpenCV-style multi-pixel
        mapping, Section VI-A.3)."""
        bx, by = self.options.block
        return (bx * self.options.vectorize,
                by * self.options.pixels_per_thread)

    def _layout(self, kernel: KernelIR,
                launch_geometry: Optional[Tuple[int, int]]
                ) -> Optional[RegionLayout]:
        if launch_geometry is None:
            return None
        return classify_regions(launch_geometry[0], launch_geometry[1],
                                self.effective_block(), max_window(kernel))

    def _dispatch_constants(self, layout: Optional[RegionLayout]
                            ) -> List[str]:
        """Region bounds, as macros (exploration mode) or constants."""
        if layout is None or self.options.emit_config_macros:
            defaults = {"BH_X_LO": 1, "BH_X_HI": 1, "BH_Y_LO": 1,
                        "BH_Y_HI": 1}
            if layout is not None:
                defaults = self._layout_bounds(layout)
            lines = []
            for name, value in defaults.items():
                lines += [f"#ifndef {name}",
                          f"#define {name} {value}",
                          "#endif"]
            return lines
        bounds = self._layout_bounds(layout)
        return [f"#define {k} {v}" for k, v in bounds.items()]

    @staticmethod
    def _layout_bounds(layout: RegionLayout) -> Dict[str, int]:
        grid_x, grid_y = layout.grid
        left = right = top = bottom = 0
        for r in layout.regions:
            if r.side_x == Side.LO:
                left = max(left, r.bx_hi)
            if r.side_x == Side.HI:
                right = max(right, grid_x - r.bx_lo)
            if r.side_y == Side.LO:
                top = max(top, r.by_hi)
            if r.side_y == Side.HI:
                bottom = max(bottom, grid_y - r.by_lo)
        return {
            "BH_X_LO": left,
            "BH_X_HI": grid_x - right,
            "BH_Y_LO": top,
            "BH_Y_HI": grid_y - bottom,
        }

    def _regions_to_emit(self, layout: Optional[RegionLayout]
                         ) -> List[BorderRegion]:
        if self.options.border == BorderMode.SPECIALIZED:
            if layout is not None and layout.degenerate:
                return [BorderRegion(Side.BOTH, Side.BOTH, 0, 0, 0, 0)]
            # all nine variants, interior last (Listing 8 falls through
            # to NO_BH)
            combos = [
                (Side.LO, Side.LO), (Side.NONE, Side.LO),
                (Side.HI, Side.LO),
                (Side.LO, Side.NONE), (Side.HI, Side.NONE),
                (Side.LO, Side.HI), (Side.NONE, Side.HI),
                (Side.HI, Side.HI),
                (Side.NONE, Side.NONE),
            ]
            return [BorderRegion(sx, sy, 0, 0, 0, 0) for sx, sy in combos]
        if self.options.border in (BorderMode.INLINE,):
            return [BorderRegion(Side.BOTH, Side.BOTH, 0, 0, 0, 0)]
        # NONE / HARDWARE: single unguarded variant
        return [BorderRegion(Side.NONE, Side.NONE, 0, 0, 0, 0)]

    # -- main entry ---------------------------------------------------------

    def generate(self, kernel: KernelIR,
                 launch_geometry: Optional[Tuple[int, int]] = None
                 ) -> KernelSource:
        if self.options.border == BorderMode.HARDWARE:
            self._check_hardware_support(kernel)
        if self.options.vectorize > 1:
            self._check_vectorizable(kernel)
            if launch_geometry is not None and \
                    launch_geometry[0] % self.options.vectorize:
                raise CodegenError(
                    f"iteration-space width {launch_geometry[0]} is not "
                    f"divisible by the vector width "
                    f"{self.options.vectorize}")
        kernel = prepare_kernel(kernel, self.options)
        #: accessors the prepared kernel reads (texture path, qualifiers)
        self.read_set = read_accessors(kernel)

        layout = self._layout(kernel, launch_geometry)
        regions = self._regions_to_emit(layout)
        smem_accessors = self._smem_accessors(kernel)

        lines: List[str] = []
        lines += self.file_preamble(kernel)
        lines.append("")
        lines += self._bh_helper_lines(kernel)
        lines += self._interp_helper_lines(kernel)
        lines.append("")
        lines += self.emit_mask_declarations(kernel)
        lines += self._dispatch_constants(layout)
        lines.append("")
        lines += self._smem_constants(kernel, smem_accessors)
        lines.append(self.kernel_signature(kernel) + " {")
        lines += self._index_setup(kernel)

        multi = len(regions) > 1
        use_goto = self.supports_goto()
        if multi and use_goto:
            # Listing 8: dispatch to labelled implementations
            for region in regions:
                if region.is_interior:
                    continue
                pred = region_grid_predicate(region, self.backend)
                lines.append(f"    if ({pred}) goto {region.label};")
            lines.append("    goto NO_BH;")
        lines.append("")

        smem_bytes = 0
        if multi and not use_goto:
            # OpenCL C has no goto: the same nine variants as an
            # if / else-if chain (interior as the final else)
            first = True
            for region in regions:
                body_lines, region_smem = self._emit_region(
                    kernel, region, smem_accessors, labelled=False,
                    chained=True)
                smem_bytes = max(smem_bytes, region_smem)
                if region.is_interior:
                    lines.append(f"    else {{  // {region.label}")
                else:
                    pred = region_grid_predicate(region, self.backend)
                    keyword = "if" if first else "else if"
                    lines.append(f"    {keyword} ({pred}) {{  "
                                 f"// {region.label}")
                    first = False
                lines += body_lines
                lines.append("    }")
        else:
            for region in regions:
                body_lines, region_smem = self._emit_region(
                    kernel, region, smem_accessors, labelled=multi)
                smem_bytes = max(smem_bytes, region_smem)
                lines += body_lines
                lines.append("")
            if multi:
                lines.append("_done: return;")
        lines.append("}")

        device_code = "\n".join(lines) + "\n"
        host_code = self.generate_host_code(kernel, layout)
        texture_refs = tuple(
            f"_tex{a.name}" for a in kernel.accessors
            if self.options.use_texture and a.name in self.read_set)
        constant_symbols = tuple(
            mask_symbol(m) for m in kernel.masks
            if self.options.mask_memory == MaskMemory.CONSTANT)
        return KernelSource(
            entry=self.entry_name(kernel),
            device_code=device_code,
            host_code=host_code,
            backend=self.backend,
            options=self.options,
            smem_bytes=smem_bytes,
            texture_refs=texture_refs,
            constant_symbols=constant_symbols,
            num_variants=len(regions),
        )

    def _smem_accessors(self, kernel: KernelIR) -> List[str]:
        if not self.options.use_smem:
            return []
        return [a.name for a in kernel.accessors
                if a.window != (1, 1)]

    def _smem_constants(self, kernel: KernelIR,
                        smem_accessors: Sequence[str]) -> List[str]:
        lines = []
        for name in smem_accessors:
            acc = kernel.accessor(name)
            lines.append(f"#define {name}_HALF_X {acc.window[0] // 2}")
            lines.append(f"#define {name}_HALF_Y {acc.window[1] // 2}")
        return lines

    def _bh_helper_lines(self, kernel: KernelIR) -> List[str]:
        """The ``bh_*`` helpers, when a guarded or resampled read uses
        them."""
        guarded = self.options.border not in (BorderMode.NONE,
                                              BorderMode.HARDWARE)
        if any(a.interpolation is not None or (
                guarded and Boundary(a.boundary_mode) != Boundary.UNDEFINED)
               for a in kernel.accessors):
            return bh_helper_lines(self.device_fn_qualifier())
        return []

    def _interp_helper_lines(self, kernel: KernelIR) -> List[str]:
        """Per-accessor resampling helpers (HIPAcc interpolation modes)."""
        floor_fn = "floorf" if self.backend == "cuda" else "floor"
        pointer_q = "const " if self.backend == "cuda" else "__global const "
        lines: List[str] = []
        for acc in kernel.accessors:
            if acc.interpolation is not None:
                lines += interp_helper_lines(
                    acc, self.type_name(acc.pixel_type),
                    self.device_fn_qualifier(), pointer_q, floor_fn)
        return lines

    def _index_setup(self, kernel: KernelIR) -> List[str]:
        vec = self.options.vectorize
        ppt = self.options.pixels_per_thread
        if vec > 1:
            x_expr = (f"({self.block_idx(0)} * {self.block_dim(0)} + "
                      f"{self.local_idx(0)}) * {vec} + IS_offset_x")
        else:
            x_expr = (f"{self.block_idx(0)} * {self.block_dim(0)} + "
                      f"{self.local_idx(0)} + IS_offset_x")
        lines = [f"    const int gid_x = {x_expr};"]
        if ppt > 1:
            lines.append(
                f"    const int gid_y_base = ({self.block_idx(1)} * "
                f"{self.block_dim(1)} + {self.local_idx(1)}) * {ppt} "
                f"+ IS_offset_y;")
        else:
            lines.append(
                f"    const int gid_y = {self.block_idx(1)} * "
                f"{self.block_dim(1)} + {self.local_idx(1)} + "
                f"IS_offset_y;")
        return lines

    def _emit_region(self, kernel: KernelIR, region: BorderRegion,
                     smem_accessors: Sequence[str],
                     labelled: bool,
                     chained: bool = False) -> Tuple[List[str], int]:
        lines: List[str] = []
        indent = 1
        if chained:
            pass          # the caller opens the if/else block
        elif labelled:
            lines.append(f"{region.label}: {{")
        else:
            lines.append("    {")

        ppt = self.options.pixels_per_thread

        # iteration-space guard: needed whenever a block may overhang the
        # image (hi-side regions, inline mode, degenerate regions)
        needs_guard = (region.side_x.needs_hi() or region.side_y.needs_hi()
                       or self.options.border in (BorderMode.INLINE,
                                                  BorderMode.HARDWARE,
                                                  BorderMode.NONE))
        if ppt > 1:
            # OpenCV-style multi-pixel mapping: one thread computes ppt
            # vertically adjacent pixels (amortises the thread prologue)
            lines.append(
                f"        for (int _ppt = 0; _ppt < {ppt}; ++_ppt) {{")
            lines.append(
                "        const int gid_y = gid_y_base + _ppt;")
            if needs_guard:
                lines.append(
                    "        if (gid_x >= IS_offset_x + IS_width || "
                    "gid_y >= IS_offset_y + IS_height) continue;")
        elif needs_guard:
            exit_stmt = "goto _done;" if (labelled and not chained) \
                else "return;"
            lines.append(
                "        if (gid_x >= IS_offset_x + IS_width || "
                f"gid_y >= IS_offset_y + IS_height) {exit_stmt}")

        smem_bytes = 0
        for name in smem_accessors:
            acc = kernel.accessor(name)
            lines += self.smem_staging_lines(kernel, region, acc, indent + 1)
            smem_bytes += smem_tile_bytes(self.options.block, acc.window,
                                          acc.pixel_type.size)

        vector_vars = (infer_vector_vars(kernel)
                       if self.options.vectorize > 1 else set())
        exprs = CExprPrinter(
            self.backend,
            lower_read=self.make_read_lowering(kernel, region,
                                               smem_accessors),
            lower_mask=self.make_mask_lowering(kernel),
            fast_math=self.options.fast_math,
            vector_width=self.options.vectorize,
            vector_vars=vector_vars,
        )
        stmts = CStmtPrinter(
            exprs, lower_write=lambda v: self.emit_output_write(kernel, v))
        lines += stmts.print_body(kernel.body, indent + 1)
        if ppt > 1:
            lines.append("        }")      # close the _ppt loop
        if chained:
            return lines, smem_bytes      # caller closes the block
        if labelled:
            lines.append("    goto _done;")
        lines.append("    }" if not labelled else "}")
        return lines, smem_bytes
