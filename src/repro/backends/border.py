"""Boundary handling for every C target (paper Sections IV-B/IV-C, Figure 3).

"Special boundary handling mode is added for each border — resulting in nine
different kernel implementations ... the source-to-source compiler creates
one big kernel that hosts all nine implementations, but executes only the
required one depending on the currently processed image region."

A :class:`BorderRegion` names which image sides a block of threads may cross
(none / low / high per axis).  :func:`classify_regions` computes, for a
given grid/block/window geometry, the nine regions with their block-index
ranges; both the code generators (emitting the Listing-8 dispatch) and the
launch simulator (executing region variants) use it, guaranteeing the
printed code and the simulated semantics agree.

The second half is the target-independent C lowering of boundary
handling, shared by the CUDA, OpenCL and CPU backends: the ``bh_*``
index-adjustment helpers, the bounded read (constant-mode predicate or
adjusted index), constant-memory mask declarations and indexing, and the
resampling helper of interpolating accessors.  Each backend supplies only
its spelling of a load and its qualifiers.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Callable, List, Tuple

import numpy as np

from ..dsl.boundary import Boundary
from ..ir.nodes import AccessorInfo, MaskInfo
from .base import c_float_literal


class Side(enum.Enum):
    """Which side(s) of one axis a region's accesses may cross."""

    NONE = "none"
    LO = "lo"
    HI = "hi"
    BOTH = "both"

    def needs_lo(self) -> bool:
        return self in (Side.LO, Side.BOTH)

    def needs_hi(self) -> bool:
        return self in (Side.HI, Side.BOTH)


#: Canonical label per (side_x, side_y) — matches Figure 3's layout.
_REGION_LABELS = {
    (Side.LO, Side.LO): "TL",
    (Side.NONE, Side.LO): "T",
    (Side.HI, Side.LO): "TR",
    (Side.LO, Side.NONE): "L",
    (Side.NONE, Side.NONE): "NO",
    (Side.HI, Side.NONE): "R",
    (Side.LO, Side.HI): "BL",
    (Side.NONE, Side.HI): "B",
    (Side.HI, Side.HI): "BR",
}


@dataclasses.dataclass(frozen=True)
class BorderRegion:
    """One specialised kernel variant: guarded sides + block-index range.

    Block ranges are half-open: ``bx_lo <= blockIdx.x < bx_hi`` and likewise
    for y.  ``label`` is the goto label used in generated code (``TL_BH``).
    """

    side_x: Side
    side_y: Side
    bx_lo: int
    bx_hi: int
    by_lo: int
    by_hi: int

    @property
    def label(self) -> str:
        return _REGION_LABELS.get((self.side_x, self.side_y), "FULL") + "_BH"

    @property
    def is_interior(self) -> bool:
        return self.side_x == Side.NONE and self.side_y == Side.NONE

    @property
    def num_blocks(self) -> int:
        return max(0, self.bx_hi - self.bx_lo) * max(0, self.by_hi -
                                                     self.by_lo)


@dataclasses.dataclass(frozen=True)
class RegionLayout:
    """Full region decomposition of a launch grid."""

    grid: Tuple[int, int]           # (grid_x, grid_y) in blocks
    block: Tuple[int, int]
    window: Tuple[int, int]
    regions: Tuple[BorderRegion, ...]
    degenerate: bool                # border spans overlap: single BOTH region

    @property
    def total_blocks(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def border_blocks(self) -> int:
        return sum(r.num_blocks for r in self.regions
                   if not r.is_interior)

    @property
    def border_block_fraction(self) -> float:
        total = self.total_blocks
        return self.border_blocks / total if total else 0.0


def grid_for(width: int, height: int,
             block: Tuple[int, int]) -> Tuple[int, int]:
    """Launch grid (in blocks) covering a width x height iteration space."""
    bx, by = block
    return (math.ceil(width / bx), math.ceil(height / by))


def border_block_counts(width: int, height: int, block: Tuple[int, int],
                        window: Tuple[int, int]) -> Tuple[int, int, int, int]:
    """(left, right, top, bottom) block counts whose accesses may cross the
    respective image side, given the local-operator *window*."""
    bx, by = block
    half_x, half_y = window[0] // 2, window[1] // 2
    grid_x, grid_y = grid_for(width, height, block)
    left = min(grid_x, math.ceil(half_x / bx)) if half_x else 0
    top = min(grid_y, math.ceil(half_y / by)) if half_y else 0
    # high-side blocks: those whose last pixel + half crosses width-1;
    # the last block may also be partial (grid overshoot), which always
    # needs a high-side guard to stay inside the iteration space.
    right = 0
    for b in range(grid_x - 1, -1, -1):
        if (b + 1) * bx - 1 + half_x >= width or (b + 1) * bx > width:
            right += 1
        else:
            break
    bottom = 0
    for b in range(grid_y - 1, -1, -1):
        if (b + 1) * by - 1 + half_y >= height or (b + 1) * by > height:
            bottom += 1
        else:
            break
    return left, min(right, grid_x), top, min(bottom, grid_y)


def classify_regions(width: int, height: int, block: Tuple[int, int],
                     window: Tuple[int, int]) -> RegionLayout:
    """Decompose the launch grid into boundary-handling regions.

    Returns the nine Figure-3 regions when the low/high border block spans
    do not overlap.  When they do (image narrower than two border spans),
    falls back to a single degenerate region guarding both sides of both
    axes — semantically always correct, just without the interior fast
    path.
    """
    grid_x, grid_y = grid_for(width, height, block)
    left, right, top, bottom = border_block_counts(width, height, block,
                                                   window)

    if left + right > grid_x or top + bottom > grid_y:
        region = BorderRegion(Side.BOTH, Side.BOTH, 0, grid_x, 0, grid_y)
        return RegionLayout((grid_x, grid_y), block, window, (region,), True)

    x_bands = [
        (Side.LO, 0, left),
        (Side.NONE, left, grid_x - right),
        (Side.HI, grid_x - right, grid_x),
    ]
    y_bands = [
        (Side.LO, 0, top),
        (Side.NONE, top, grid_y - bottom),
        (Side.HI, grid_y - bottom, grid_y),
    ]
    regions: List[BorderRegion] = []
    for sy, ylo, yhi in y_bands:
        for sx, xlo, xhi in x_bands:
            region = BorderRegion(sx, sy, xlo, xhi, ylo, yhi)
            if region.num_blocks > 0 or (sx, sy) == (Side.NONE, Side.NONE):
                regions.append(region)
    return RegionLayout((grid_x, grid_y), block, window, tuple(regions),
                        False)


def region_grid_predicate(region: BorderRegion, backend: str) -> str:
    """C predicate (on block indices) selecting *region* — the conditions
    of the Listing-8 dispatch.  Uses the generated constants ``BH_X_LO``
    etc. that the backend defines from the region layout."""
    if backend == "cuda":
        bid_x, bid_y = "blockIdx.x", "blockIdx.y"
    else:
        bid_x, bid_y = "get_group_id(0)", "get_group_id(1)"
    parts = []
    if region.side_x == Side.LO:
        parts.append(f"{bid_x} < BH_X_LO")
    elif region.side_x == Side.HI:
        parts.append(f"{bid_x} >= BH_X_HI")
    elif region.side_x == Side.NONE:
        parts.append(f"{bid_x} >= BH_X_LO && {bid_x} < BH_X_HI")
    if region.side_y == Side.LO:
        parts.append(f"{bid_y} < BH_Y_LO")
    elif region.side_y == Side.HI:
        parts.append(f"{bid_y} >= BH_Y_HI")
    elif region.side_y == Side.NONE:
        parts.append(f"{bid_y} >= BH_Y_LO && {bid_y} < BH_Y_HI")
    return " && ".join(parts) if parts else "1"


def border_thread_count(width: int, height: int, block: Tuple[int, int],
                        window: Tuple[int, int]) -> int:
    """Number of threads that execute boundary-handling conditionals —
    the quantity Algorithm 2's tiling heuristic minimises."""
    layout = classify_regions(width, height, block, window)
    bx, by = block
    return sum(r.num_blocks for r in layout.regions
               if not r.is_interior) * bx * by


# --------------------------------------------------------------------------
# C lowering shared by the CUDA, OpenCL and CPU backends
# --------------------------------------------------------------------------

#: Index-adjustment helper bodies (plain C99).  ``*_lo``/``*_hi`` are the
#: cheap single-side forms used inside specialised border regions; the
#: suffix-less forms handle both sides and arbitrarily far out-of-bounds
#: indices (degenerate layouts).
BH_HELPERS = [
    ("bh_clamp_lo", "int i", "return i < 0 ? 0 : i;"),
    ("bh_clamp_hi", "int i, int n", "return i >= n ? n - 1 : i;"),
    ("bh_clamp", "int i, int n",
     "return i < 0 ? 0 : (i >= n ? n - 1 : i);"),
    ("bh_repeat_lo", "int i, int n", "return i < 0 ? i + n : i;"),
    ("bh_repeat_hi", "int i, int n", "return i >= n ? i - n : i;"),
    ("bh_repeat", "int i, int n",
     "int m = i % n; return m < 0 ? m + n : m;"),
    ("bh_mirror_lo", "int i", "return i < 0 ? -1 - i : i;"),
    ("bh_mirror_hi", "int i, int n",
     "return i >= n ? 2 * n - 1 - i : i;"),
    ("bh_mirror", "int i, int n",
     "int m = i % (2 * n); m = m < 0 ? m + 2 * n : m; "
     "return m < n ? m : 2 * n - 1 - m;"),
]

#: (low side, high side, both sides) adjustment call per boundary mode
_ADJUST = {
    Boundary.CLAMP: ("bh_clamp_lo({e})", "bh_clamp_hi({e}, {n})",
                     "bh_clamp({e}, {n})"),
    Boundary.REPEAT: ("bh_repeat_lo({e}, {n})", "bh_repeat_hi({e}, {n})",
                      "bh_repeat({e}, {n})"),
    Boundary.MIRROR: ("bh_mirror_lo({e})", "bh_mirror_hi({e}, {n})",
                      "bh_mirror({e}, {n})"),
}

#: a target's load of one pixel at C index expressions ``(ix, iy)``
Load = Callable[[str, str], str]


def bh_helper_lines(qualifier: str) -> List[str]:
    """The ``bh_*`` helper definitions, each declared *qualifier*."""
    return ["// boundary index adjustment helpers"] + [
        f"{qualifier} int {name}({args}) {{ {body} }}"
        for name, args, body in BH_HELPERS]


def adjust_index(expr: str, side: Side, mode: Boundary,
                 extent: str) -> str:
    """Wrap index expression *expr* in the adjustment *mode* requires for
    *side* of one axis of length *extent*.  Undefined and constant modes
    leave the index alone (constant mode guards the read instead)."""
    if side == Side.NONE or mode not in _ADJUST:
        return expr
    lo, hi, both = _ADJUST[mode]
    template = lo if side == Side.LO else hi if side == Side.HI else both
    return template.format(e=expr, n=extent)


def bounded_read(acc: AccessorInfo, load: Load, ix: str, iy: str,
                 side_x: Side, side_y: Side, width: str,
                 height: str) -> str:
    """Read *acc* at ``(ix, iy)`` through its boundary mode, guarding the
    sides *side_x*/*side_y* of a *width* x *height* image.

    Constant mode tests the guarded sides and yields the border literal
    there; the load itself is clamped so the untaken branch cannot
    fault.  Every other mode loads at the adjusted index."""
    mode = Boundary(acc.boundary_mode)
    if mode != Boundary.CONSTANT:
        return load(adjust_index(ix, side_x, mode, width),
                    adjust_index(iy, side_y, mode, height))
    parts = []
    if side_x.needs_lo():
        parts.append(f"({ix}) < 0")
    if side_x.needs_hi():
        parts.append(f"({ix}) >= {width}")
    if side_y.needs_lo():
        parts.append(f"({iy}) < 0")
    if side_y.needs_hi():
        parts.append(f"({iy}) >= {height}")
    read = load(adjust_index(ix, side_x, Boundary.CLAMP, width),
                adjust_index(iy, side_y, Boundary.CLAMP, height))
    if not parts:
        return read
    const = c_float_literal(acc.boundary_constant,
                            acc.pixel_type if acc.pixel_type.is_float
                            else None)
    return f"(({' || '.join(parts)}) ? {const} : {read})"


def mask_symbol(mask: MaskInfo) -> str:
    """The constant-memory array holding *mask*'s coefficients."""
    return f"_const{mask.name}"


def mask_index(mask: MaskInfo, dx: str, dy: str) -> str:
    """Row-major index of offset ``(dx, dy)`` into *mask*'s array."""
    hx, hy = mask.size[0] // 2, mask.size[1] // 2
    return f"(({dy}) + {hy}) * {mask.size[0]} + (({dx}) + {hx})"


def mask_declaration(mask: MaskInfo, qualifier: str, type_name: str,
                     initialise: bool = True) -> str:
    """Declaration of :func:`mask_symbol`, typed *type_name*; with
    *initialise*, holding the mask's coefficients as literals."""
    head = (f"{qualifier} {type_name} {mask_symbol(mask)}"
            f"[{mask.size[0] * mask.size[1]}]")
    if not initialise:
        return head + ";"
    t = mask.pixel_type if mask.pixel_type.is_float else None
    values = ", ".join(c_float_literal(float(v), t)
                       for v in np.asarray(mask.coefficients).reshape(-1))
    return f"{head} = {{ {values} }};"


def interp_call(name: str, ix: str, iy: str) -> str:
    """Read of interpolating accessor *name* for output pixel
    ``(ix, iy)``, through its :func:`interp_helper_lines` helper."""
    return (f"_interp_{name}({name}, {name}_stride, {name}_width, "
            f"{name}_height, {ix}, {iy})")


def interp_helper_lines(acc: AccessorInfo, type_name: str, qualifier: str,
                        pointer_qualifier: str, floor_fn: str
                        ) -> List[str]:
    """The resampling helper ``_interp_<name>`` of an interpolating
    accessor (HIPAcc interpolation modes): maps output pixel ``(ox,
    oy)`` onto the input and samples it, nearest or bilinear, with the
    accessor's boundary mode guarding both sides of both axes."""
    name, t = acc.name, type_name
    out_w, out_h = acc.out_size

    def sample(x: str, y: str) -> str:
        return bounded_read(
            acc, lambda cx, cy: f"img[({cy}) * stride + ({cx})]", x, y,
            Side.BOTH, Side.BOTH, "width", "height")

    lines = [
        f"// resampling accessor {name}: {acc.interpolation} "
        f"interpolation onto {out_w}x{out_h}",
        f"{qualifier} {t} _interp_{name}({pointer_qualifier}{t} * img, "
        f"int stride, int width, int height, int ox, int oy) {{",
        f"    float fx = (ox + 0.5f) * ((float)width / {out_w}.0f) - 0.5f;",
        f"    float fy = (oy + 0.5f) * ((float)height / {out_h}.0f) - 0.5f;",
    ]
    if acc.interpolation == "nearest":
        return lines + [
            f"    int nx = (int){floor_fn}(fx + 0.5f);",
            f"    int ny = (int){floor_fn}(fy + 0.5f);",
            f"    return {sample('nx', 'ny')};",
            "}",
        ]
    return lines + [
        f"    int x0 = (int){floor_fn}(fx);",
        f"    int y0 = (int){floor_fn}(fy);",
        "    float wx = fx - x0;",
        "    float wy = fy - y0;",
        f"    {t} v00 = {sample('x0', 'y0')};",
        f"    {t} v10 = {sample('x0 + 1', 'y0')};",
        f"    {t} v01 = {sample('x0', 'y0 + 1')};",
        f"    {t} v11 = {sample('x0 + 1', 'y0 + 1')};",
        "    return (v00 * (1.0f - wx) + v10 * wx) * (1.0f - wy)",
        "         + (v01 * (1.0f - wx) + v11 * wx) * wy;",
        "}",
    ]
