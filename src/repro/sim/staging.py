"""Block-accurate scratchpad-staging simulation (Listing 7).

When a kernel is generated with ``use_smem``, each block first stages its
input tile (block extent + window halo, boundary-adjusted) into scratchpad
memory and the body then reads the tile instead of global memory.  This
module executes exactly those semantics in NumPy, per block:

* :func:`stage_tile` fills the tile with the same index arithmetic the
  emitted staging loops use (``_ix = blockIdx.x * BSX + _sx - HALF_X``
  followed by the region's side-limited adjustment);
* :class:`TileAccessor` redirects the body's reads into the tile, with no
  further boundary handling — mirroring the generated phase-2 reads
  ``_smemIN[threadIdx.y + dy + HALF_Y][threadIdx.x + dx + HALF_X]``.

``simulate_launch`` uses this path for ``use_smem`` kernels, so the test
suite can demand bit-exact agreement between staged and direct execution
for every boundary mode, block shape and region — validating the
Listing-7 lowering the GPU backends emit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..backends.border import BorderRegion
from ..dsl.accessor import Accessor
from ..dsl.boundary import Boundary
from .executor import any_outside, read_pixels, sample_accessor


def stage_tile(accessor: Accessor, block_origin: Tuple[int, int],
               block: Tuple[int, int], window: Tuple[int, int],
               region: BorderRegion,
               faults_on_oob: bool = False) -> np.ndarray:
    """Phase 1: cooperatively load one block's input tile (with halo).

    *block_origin* is the top-left pixel (x0, y0) the block covers.  The
    returned tile has shape (by + wy - 1, bx + wx - 1); the bank-conflict
    padding column of the generated code holds no data and is omitted.
    """
    bx, by = block
    wx, wy = window
    hx, hy = wx // 2, wy // 2
    x0, y0 = block_origin
    tile_w = bx + wx - 1
    tile_h = by + wy - 1
    ix = np.arange(x0 - hx, x0 - hx + tile_w)[None, :]
    iy = np.arange(y0 - hy, y0 - hy + tile_h)[:, None]
    # identical to the generated staging: the region's side-limited
    # adjustment applied to the raw tile indices; the copy is the
    # scratchpad, never a view of the image
    return np.array(sample_accessor(accessor, ix, iy, region.side_x,
                                    region.side_y, faults_on_oob))


class TileAccessor:
    """Phase 2: reads served from the staged tile.

    Duck-types the subset of :class:`Accessor` the executor touches.  Any
    read outside the staged halo is a staging bug — raise loudly instead
    of silently clamping.
    """

    def __init__(self, accessor: Accessor, tile: np.ndarray,
                 block_origin: Tuple[int, int],
                 window: Tuple[int, int]):
        self._accessor = accessor
        self.image = accessor.image
        self._tile = tile
        self._x0, self._y0 = block_origin
        self._hx, self._hy = window[0] // 2, window[1] // 2

    @property
    def boundary_mode(self) -> Boundary:
        # staging already applied the boundary handling
        return Boundary.UNDEFINED

    @property
    def pixel_type(self):
        return self._accessor.pixel_type

    def sample_tile(self, ix, iy) -> np.ndarray:
        tx = np.asarray(ix) - self._x0 + self._hx
        ty = np.asarray(iy) - self._y0 + self._hy
        th, tw = self._tile.shape
        if any_outside(tx, ty, tw, th):
            raise IndexError(
                "kernel read outside the staged scratchpad tile — the "
                "declared window is smaller than the actual access "
                "pattern")
        return read_pixels(self._tile, ty, tx)
