"""Access-footprint domain derived from the abstract interpreter.

A *footprint* is, per accessor, the interval hull of every read offset
relative to the output pixel — the exact halo a node needs from its
producer.  It is folded from the :class:`~repro.lint.absint.ReadFact`
set of the IR's one cached fixpoint run (``KernelIR.absint()``), so
masks, separable loop offsets and derived index arithmetic are all
covered by the same interval reasoning.

Consumers:

* ``KernelIR.footprint()`` exposes it as the stable per-kernel API
  (``footprint_from_result(ir, ir.absint())``);
* :mod:`repro.graph.fusion` uses footprints to decide point-op fusion
  and to explain refusals (HIP302/HIP502);
* :mod:`repro.lint.graphlint` emits the HIP501 halo-extent notes;
* :mod:`repro.runtime.native_graph` requires a *proven* footprint
  inside the declared window before admitting a node to the native
  tier.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

from ..ir.nodes import KernelIR
from .absint import AbsintResult


@dataclasses.dataclass(frozen=True)
class AccessorFootprint:
    """The read window of one accessor, relative to the output pixel.

    ``lo_dx .. hi_dx`` × ``lo_dy .. hi_dy`` is the inclusive offset
    hull; any ``None`` bound means the analysis could not bound that
    side (interpolated access, data-dependent index).  ``proven`` is
    True only when every read of this accessor had a bounded integer
    offset interval — the footprint is then an over-approximation of
    the true read set that is safe to build proofs on.
    """

    accessor: str
    window: Tuple[int, int]
    boundary_mode: str
    lo_dx: Optional[int]
    hi_dx: Optional[int]
    lo_dy: Optional[int]
    hi_dy: Optional[int]
    proven: bool

    @property
    def halo(self) -> Optional[Tuple[int, int]]:
        """Maximum reach from the centre pixel per axis, or ``None``
        when unbounded."""
        if not self.proven:
            return None
        return (max(abs(self.lo_dx), abs(self.hi_dx)),
                max(abs(self.lo_dy), abs(self.hi_dy)))

    def in_window(self) -> Optional[bool]:
        """Whether every read stays inside the declared window."""
        if not self.proven:
            return None
        hx = (self.window[0] - 1) // 2
        hy = (self.window[1] - 1) // 2
        return (self.lo_dx >= -hx and self.hi_dx <= hx
                and self.lo_dy >= -hy and self.hi_dy <= hy)

    def is_pointwise(self) -> bool:
        return self.proven and self.lo_dx == self.hi_dx == 0 \
            and self.lo_dy == self.hi_dy == 0

    def describe(self) -> str:
        if not self.proven:
            return f"{self.accessor}: unbounded"
        return (f"{self.accessor}: dx [{self.lo_dx}..{self.hi_dx}], "
                f"dy [{self.lo_dy}..{self.hi_dy}]")

    def to_dict(self) -> Dict[str, object]:
        return {
            "accessor": self.accessor,
            "window": list(self.window),
            "boundary_mode": self.boundary_mode,
            "dx": None if not self.proven else [self.lo_dx, self.hi_dx],
            "dy": None if not self.proven else [self.lo_dy, self.hi_dy],
            "proven": self.proven,
        }


@dataclasses.dataclass(frozen=True)
class KernelFootprint:
    """All accessor footprints of one kernel."""

    kernel: str
    accessors: Tuple[AccessorFootprint, ...]

    def accessor(self, name: str) -> Optional[AccessorFootprint]:
        for fp in self.accessors:
            if fp.accessor == name:
                return fp
        return None

    @property
    def proven(self) -> bool:
        return all(fp.proven for fp in self.accessors)

    def is_pointwise(self) -> bool:
        """True when every read provably hits only the centre pixel."""
        return all(fp.is_pointwise() for fp in self.accessors)

    def halo(self) -> Optional[Tuple[int, int]]:
        """Union halo across all accessors, or ``None`` if any accessor
        is unbounded."""
        hx = hy = 0
        for fp in self.accessors:
            h = fp.halo
            if h is None:
                return None
            hx, hy = max(hx, h[0]), max(hy, h[1])
        return (hx, hy)

    def describe(self) -> str:
        if not self.accessors:
            return "no accessor reads"
        return "; ".join(fp.describe() for fp in self.accessors)

    def to_dict(self) -> Dict[str, object]:
        halo = self.halo()
        return {
            "kernel": self.kernel,
            "halo": None if halo is None else list(halo),
            "pointwise": self.is_pointwise(),
            "accessors": [fp.to_dict() for fp in self.accessors],
        }


def _int_bound(v: float, toward: int) -> Optional[int]:
    if not math.isfinite(v):
        return None
    # offsets are integers; the interval endpoints of integer-typed
    # values are exact, so round toward the safe (outer) side
    return int(math.floor(v)) if toward < 0 else int(math.ceil(v))


def footprint_from_result(ir: KernelIR, result: AbsintResult
                          ) -> KernelFootprint:
    """Fold one fixpoint run's read facts into per-accessor hulls."""
    hulls: Dict[str, Optional[Tuple[int, int, int, int]]] = {}
    read_accessors = set()
    for r in result.reads:
        read_accessors.add(r.accessor)
        lo_dx = _int_bound(r.dx.lo, -1)
        hi_dx = _int_bound(r.dx.hi, +1)
        lo_dy = _int_bound(r.dy.lo, -1)
        hi_dy = _int_bound(r.dy.hi, +1)
        if None in (lo_dx, hi_dx, lo_dy, hi_dy):
            hulls[r.accessor] = None
            continue
        if r.accessor in hulls:
            prev = hulls[r.accessor]
            if prev is None:
                continue
            hulls[r.accessor] = (min(prev[0], lo_dx),
                                 max(prev[1], hi_dx),
                                 min(prev[2], lo_dy),
                                 max(prev[3], hi_dy))
        else:
            hulls[r.accessor] = (lo_dx, hi_dx, lo_dy, hi_dy)

    accessors = []
    for acc in ir.accessors:
        if acc.interpolation is not None:
            # interpolated sampling reads data-dependent coordinates:
            # never a provable footprint
            accessors.append(AccessorFootprint(
                acc.name, acc.window, acc.boundary_mode,
                None, None, None, None, proven=False))
            continue
        hull = hulls.get(acc.name)
        if acc.name not in read_accessors:
            # declared but never read: empty footprint, trivially proven
            accessors.append(AccessorFootprint(
                acc.name, acc.window, acc.boundary_mode,
                0, 0, 0, 0, proven=True))
        elif hull is None:
            accessors.append(AccessorFootprint(
                acc.name, acc.window, acc.boundary_mode,
                None, None, None, None, proven=False))
        else:
            accessors.append(AccessorFootprint(
                acc.name, acc.window, acc.boundary_mode,
                hull[0], hull[1], hull[2], hull[3], proven=True))
    return KernelFootprint(kernel=ir.name, accessors=tuple(accessors))

