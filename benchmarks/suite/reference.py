"""Independent NumPy references for every output the benchmark checks.

The simulator is the program's own oracle, so it cannot referee the
program.  These references never touch the DSL, the compiler or the
executors: the Gaussian, Sobel and bilateral goldens are the filters'
existing explicit-padding NumPy implementations, and the rest (3x3
median, gradient magnitude, scale, gamma) are written out here.

Tolerance: an output matches when its maximum absolute error against
the reference is at most :data:`TOLERANCE`.  The references accumulate
in float32 like the generated code but in a different order, so they
differ from it by a few ULPs (the 13x13 bilateral at 512^2 measures
about 4e-7 on ``[0, 1)`` inputs); 1e-4 leaves two orders of magnitude
of headroom and still catches any wrong pixel.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.dsl import Boundary
from repro.filters.bilateral import bilateral_reference
from repro.filters.gaussian import gaussian_reference
from repro.filters.sobel import sobel_reference

from . import workloads

TOLERANCE = 1e-4

_PAD = {"clamp": "edge", "mirror": "symmetric"}


#: Paeth's 19-exchange median-of-9 network: after these compare-exchanges
#: (min to the first index, max to the second) tap 4 holds the median
_MEDIAN9 = ((1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5),
            (7, 8), (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7),
            (4, 2), (6, 4), (4, 2))


def median3x3(data: np.ndarray, boundary: str = "clamp") -> np.ndarray:
    """Median of each 3x3 neighbourhood; borders padded per *boundary*.

    A sorting network over the nine shifted planes: it selects, so the
    result is exactly ``np.median`` of the taps, at a tenth of the cost
    on the 2048^2 frames the harness checks."""
    data = np.asarray(data, dtype=np.float32)
    h, w = data.shape
    padded = np.pad(data, 1, mode=_PAD[boundary])
    taps = [padded[dy:dy + h, dx:dx + w].copy()
            for dy in range(3) for dx in range(3)]
    low = np.empty_like(data)
    for a, b in _MEDIAN9:
        np.minimum(taps[a], taps[b], out=low)
        np.maximum(taps[a], taps[b], out=taps[b])
        taps[a], low = low, taps[a]
    return taps[4]


def magnitude(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    return np.sqrt(gx * gx + gy * gy, dtype=np.float32)


def scale(data: np.ndarray, factor: float) -> np.ndarray:
    return (data * np.float32(factor)).astype(np.float32)


def gamma(data: np.ndarray, exponent: float) -> np.ndarray:
    return np.power(data, np.float32(exponent), dtype=np.float32)


def edge(data: np.ndarray) -> np.ndarray:
    """median -> Sobel x, y -> magnitude -> scale 0.25 -> gamma 0.8."""
    den = median3x3(data, "clamp")
    gx = sobel_reference(den, "x", Boundary.CLAMP)
    gy = sobel_reference(den, "y", Boundary.CLAMP)
    return gamma(scale(magnitude(gx, gy), 0.25), 0.8)


def denoise(data: np.ndarray) -> np.ndarray:
    """median (mirror) -> Gaussian 5x5 (clamp)."""
    return gaussian_reference(median3x3(data, "mirror"), 5,
                              boundary=Boundary.CLAMP)


def enhance(data: np.ndarray) -> np.ndarray:
    """scale 0.5 -> gamma 2.0."""
    return gamma(scale(data, 0.5), 2.0)


def chain(data: np.ndarray) -> np.ndarray:
    """Gaussian 3x3 (clamp) -> scale 2.0."""
    return scale(gaussian_reference(data, 3, boundary=Boundary.CLAMP), 2.0)


def bilateral13(data: np.ndarray) -> np.ndarray:
    """Listing 5's bilateral with the graph_paper parameters."""
    return bilateral_reference(data, workloads.BILATERAL_SIGMA_D,
                               workloads.BILATERAL_SIGMA_R,
                               boundary=Boundary.CLAMP)


#: serve request kind -> reference
SERVE_REFERENCES: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "edge": edge, "denoise": denoise, "enhance": enhance, "chain": chain,
}


def max_error(output: np.ndarray, expected: np.ndarray) -> float:
    """Max absolute error; ``inf`` on a shape mismatch or a NaN."""
    if output.shape != expected.shape:
        return float("inf")
    err = float(np.max(np.abs(output.astype(np.float64)
                              - expected.astype(np.float64))))
    return err if np.isfinite(err) else float("inf")


def matches(output: np.ndarray, expected: np.ndarray) -> bool:
    return max_error(output, expected) <= TOLERANCE
