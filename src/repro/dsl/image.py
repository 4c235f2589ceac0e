"""The Image class: typed 2-D pixel storage (paper Section II).

Data is held in a NumPy array, optionally with a padded row *stride* — the
device-specific global-memory padding HIPAcc applies for coalescing ("global
memory padding for memory coalescing and optimal memory bandwidth
utilization", Section II).  The logical image is always ``data[:, :width]``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import DslError
from ..types import TypeLike, as_scalar_type


class Image:
    """A ``width x height`` image of a scalar pixel type.

    Assigning a NumPy array (``img.set_data(a)`` — the C++ ``operator=``)
    copies pixel data in; ``get_data()`` copies it out, mirroring the
    host<->device transfers of Listing 2.
    """

    _counter = 0

    def __init__(self, width: int, height: int, pixel_type: TypeLike = float,
                 name: Optional[str] = None):
        if width < 1 or height < 1:
            raise DslError(f"invalid image size {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.pixel_type = as_scalar_type(pixel_type)
        Image._counter += 1
        self.name = name or f"img{Image._counter}"
        self._stride = self.width
        self._data = np.zeros((self.height, self._stride),
                              dtype=self.pixel_type.np_dtype)

    # -- host <-> device transfer ------------------------------------------

    def set_data(self, array) -> "Image":
        """Copy *array* (height x width) into the image (``operator=``)."""
        array = np.asarray(array)
        if array.shape != (self.height, self.width):
            raise DslError(
                f"data shape {array.shape} does not match image "
                f"{self.height}x{self.width}")
        if not self._data.flags.writeable:
            self.clear()        # storage was released: materialise it
        self._data[:, :self.width] = array.astype(self.pixel_type.np_dtype,
                                                  copy=False)
        return self

    def get_data(self) -> np.ndarray:
        """Copy pixel data out (the C++ ``getData()``)."""
        return self._data[:, :self.width].copy()

    def clear(self) -> "Image":
        """Replace the storage with fresh zeroed pixels at the unpadded
        stride — the state of a newly constructed image."""
        self._stride = self.width
        self._data = np.zeros((self.height, self._stride),
                              dtype=self.pixel_type.np_dtype)
        return self

    def release_data(self) -> None:
        """Drop the pixel storage.  The image keeps reading as zeros (a
        read-only view that occupies no memory) until :meth:`set_data`
        or :meth:`clear` materialises storage again."""
        self._data = np.broadcast_to(
            np.zeros((), dtype=self.pixel_type.np_dtype),
            (self.height, self._stride))

    # -- internal views used by the simulator ------------------------------

    @property
    def pixels(self) -> np.ndarray:
        """Writable logical view (no padding columns), used internally."""
        return self._data[:, :self.width]

    @property
    def stride(self) -> int:
        """Row pitch in elements (>= width when padded for coalescing)."""
        return self._stride

    def apply_padding(self, alignment_elems: int) -> int:
        """Pad the row stride up to a multiple of *alignment_elems*.

        Returns the new stride.  Existing pixel data is preserved.  This is
        the device-specific memory padding the runtime applies when an image
        is bound to a device.
        """
        if alignment_elems < 1:
            raise DslError("alignment must be positive")
        new_stride = -(-self.width // alignment_elems) * alignment_elems
        if new_stride != self._stride:
            fresh = np.zeros((self.height, new_stride),
                             dtype=self.pixel_type.np_dtype)
            fresh[:, :self.width] = self._data[:, :self.width]
            self._data = fresh
            self._stride = new_stride
        return self._stride

    @property
    def bytes(self) -> int:
        """Allocated size in bytes (including padding)."""
        return self._data.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Image({self.name!r}, {self.width}x{self.height}, "
                f"{self.pixel_type.name})")
