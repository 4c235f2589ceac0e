"""Block-accurate kernel launch simulation.

Drives the functional executor region by region, using the same
:func:`repro.backends.border.classify_regions` decomposition the code
generators emit as the Listing-8 dispatch.  Validates the launch
configuration against the device model first (invalid configurations raise
:class:`~repro.errors.LaunchError`, the paper's "kernel launch error at
run-time") and applies device-specific global-memory padding to the images.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..backends.base import BorderMode, CodegenOptions
from ..backends.border import RegionLayout, Side, classify_regions
from ..dsl.accessor import Accessor
from ..dsl.iteration_space import IterationSpace
from ..errors import LaunchError, MappingError
from ..hwmodel.device import DeviceSpec
from ..hwmodel.occupancy import Occupancy, compute_occupancy
from ..ir.analysis import max_window
from ..ir.nodes import KernelIR
from .executor import evaluate_body


@dataclasses.dataclass
class LaunchResult:
    """What a simulated kernel launch reports back."""

    grid: tuple
    block: tuple
    occupancy: Occupancy
    layout: RegionLayout
    regions_executed: int
    pixels_written: int
    estimated_ms: Optional[float] = None


def padding_alignment(device: DeviceSpec) -> int:
    """Row-stride alignment (in elements) the runtime pads images to on
    *device* — the Section-II global-memory padding for coalescing.  A
    prepared graph's memory plan pre-pads every arena tenant to its
    writer's alignment, so the launch never swaps the planned view for
    a fresh allocation."""
    return max(1, device.memory.coalesce_segment // 4)


def _index_vectors(x0: int, x1: int, y0: int, y1: int) -> tuple:
    """Pixel coordinates of the rectangle [x0, x1) x [y0, y1) as a row
    vector ``gx`` (1xW) and a column vector ``gy`` (Hx1): they broadcast
    to the rectangle without materialising an HxW index grid."""
    return np.arange(x0, x1)[None, :], np.arange(y0, y1)[:, None]


def _region_sides(options: CodegenOptions, region) -> tuple:
    """Sides the executed variant guards, mirroring
    ``KernelEmitter._regions_to_emit``."""
    if options.border == BorderMode.SPECIALIZED:
        return (region.side_x, region.side_y)
    if options.border in (BorderMode.INLINE, BorderMode.HARDWARE):
        return (Side.BOTH, Side.BOTH)
    return (Side.NONE, Side.NONE)


def simulate_launch(kernel: KernelIR,
                    accessors: Dict[str, Accessor],
                    iteration_space: IterationSpace,
                    options: CodegenOptions,
                    device: DeviceSpec,
                    regs_per_thread: int = 16,
                    smem_per_block: int = 0) -> LaunchResult:
    """Execute *kernel* over *iteration_space* on the simulated *device*.

    Writes results into the iteration space's image and returns launch
    metadata.  Raises:

    * :class:`LaunchError` — configuration invalid for the device,
    * :class:`~repro.errors.DeviceFault` — undefined-boundary kernel read
      out of bounds on a fault-enforcing device (the paper's "crash" rows).
    """
    options.validate()
    if not device.supports_backend(options.backend):
        raise LaunchError(
            f"{device.name} does not support the {options.backend} backend")
    try:
        occ = compute_occupancy(device, options.block[0], options.block[1],
                                regs_per_thread, smem_per_block)
    except MappingError as exc:
        raise LaunchError(str(exc)) from exc

    # device-specific global memory padding for coalescing (Section II)
    alignment = padding_alignment(device)
    for acc in accessors.values():
        acc.image.apply_padding(alignment)
    iteration_space.image.apply_padding(alignment)

    window = max_window(kernel)
    is_ = iteration_space
    layout = classify_regions(is_.width, is_.height, options.block, window)

    use_staging = options.use_smem and window != (1, 1)
    out = is_.image.pixels
    total_written = 0
    regions_executed = 0
    for region in layout.regions:
        bx, by = options.block
        x0 = region.bx_lo * bx
        x1 = min(region.bx_hi * bx, is_.width)
        y0 = region.by_lo * by
        y1 = min(region.by_hi * by, is_.height)
        if x1 <= x0 or y1 <= y0:
            continue
        side_x, side_y = _region_sides(options, region)
        if use_staging:
            written = _execute_region_staged(
                kernel, accessors, is_, options, device, region,
                (x0, x1, y0, y1), (side_x, side_y), window, out)
            total_written += written
            regions_executed += 1
            continue
        gx, gy = _index_vectors(x0 + is_.offset_x, x1 + is_.offset_x,
                                y0 + is_.offset_y, y1 + is_.offset_y)
        values = evaluate_body(kernel, accessors, gx, gy, side_x, side_y,
                               faults_on_oob=device.faults_on_oob)
        out[y0 + is_.offset_y:y1 + is_.offset_y,
            x0 + is_.offset_x:x1 + is_.offset_x] = values
        total_written += values.size
        regions_executed += 1

    return LaunchResult(
        grid=layout.grid,
        block=options.block,
        occupancy=occ,
        layout=layout,
        regions_executed=regions_executed,
        pixels_written=total_written,
    )


def _execute_region_staged(kernel, accessors, is_, options, device,
                           region, pixel_range, sides, window, out) -> int:
    """Block-by-block execution through staged scratchpad tiles —
    Listing 7 semantics (see :mod:`repro.sim.staging`)."""
    from .staging import TileAccessor, stage_tile

    x0, x1, y0, y1 = pixel_range
    side_x, side_y = sides
    bx, by = options.block
    written = 0
    # iterate the region's blocks (block origins in iteration space)
    # region pixel ranges start at block boundaries by construction
    for block_y0 in range(y0, y1, by):
        for block_x0 in range(x0, x1, bx):
            px1 = min(block_x0 + bx, x1)
            py1 = min(block_y0 + by, y1)
            origin = (block_x0 + is_.offset_x, block_y0 + is_.offset_y)
            staged = {}
            for name, acc in accessors.items():
                info_window = kernel.accessor(name).window                     if any(a.name == name for a in kernel.accessors)                     else (1, 1)
                if info_window != (1, 1):
                    tile = stage_tile(acc, origin, (bx, by), window,
                                      region,
                                      faults_on_oob=device.faults_on_oob)
                    staged[name] = TileAccessor(acc, tile, origin, window)
                else:
                    staged[name] = acc
            gx, gy = _index_vectors(origin[0], px1 + is_.offset_x,
                                    origin[1], py1 + is_.offset_y)
            values = evaluate_body(kernel, staged, gx, gy, side_x,
                                   side_y,
                                   faults_on_oob=device.faults_on_oob)
            out[block_y0 + is_.offset_y:py1 + is_.offset_y,
                block_x0 + is_.offset_x:px1 + is_.offset_x] = values
            written += values.size
    return written
