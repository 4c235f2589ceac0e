"""Performance passes (HIP2xx) over a single :class:`KernelIR`.

Findings here never make a kernel wrong — they predict the memory-system
behaviour the paper measures: divergence from gid-dependent branches
(Section V-B's configuration discussion), shared-memory staging that
divergent control defeats, and bank conflicts on staged tiles (the
Listing-7 ``+1`` padding exists precisely to break them).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..hwmodel.resources import BANK_CONFLICT_PAD, smem_tile_geometry
from ..ir.analysis import read_offset_bounds
from ..ir.nodes import (
    AccessorRead,
    If,
    IntConst,
    KernelIR,
    Stmt,
)
from ..ir.visitors import stmt_exprs, walk_exprs, walk_stmts
from .correctness import _diag, _first_stmt_reading
from .dataflow import gid_dependent_names, is_gid_dependent
from .diagnostics import Diagnostic

#: shared-memory banks on every modelled device generation (Tesla/Fermi)
SMEM_BANKS = 32


def _gid_branches(ir: KernelIR) -> List[If]:
    tainted = gid_dependent_names(ir.body)
    return [s for s in walk_stmts(ir.body)
            if isinstance(s, If) and is_gid_dependent(s.cond, tainted)]


def check_divergence(ir: KernelIR) -> List[Diagnostic]:
    """HIP201: branches whose condition depends on the thread index
    diverge within a warp — both arms execute serially."""
    out: List[Diagnostic] = []
    for s in _gid_branches(ir):
        out.append(_diag(
            ir, "HIP201",
            "branch condition depends on self.x()/self.y(); threads of a "
            "warp take both arms serially",
            s, hint="prefer a branch-free select "
                    "(a if cond else b) or hoist the branch out of the "
                    "kernel via the iteration space"))
    return out


def _windowed_reads(body: Sequence[Stmt]):
    for s in body:
        for top in stmt_exprs(s):
            for e in walk_exprs(top):
                if isinstance(e, AccessorRead) and not (
                        isinstance(e.dx, IntConst) and e.dx.value == 0
                        and isinstance(e.dy, IntConst) and e.dy.value == 0):
                    yield s, e
        if isinstance(s, If):
            yield from _windowed_reads(s.then_body)
            yield from _windowed_reads(s.else_body)
        elif hasattr(s, "body"):
            yield from _windowed_reads(s.body)


def check_staging_hazards(ir: KernelIR) -> List[Diagnostic]:
    """HIP202: windowed reads nested under a gid-dependent branch.

    Scratchpad staging (Listing 7) loads the block's tile cooperatively
    — every thread must reach the staging barrier.  Reads that only some
    threads execute can't be staged without hoisting, so they fall back
    to global memory."""
    out: List[Diagnostic] = []
    for branch in _gid_branches(ir):
        seen = set()
        for s, e in _windowed_reads(branch.then_body + branch.else_body):
            if e.accessor in seen:
                continue
            seen.add(e.accessor)
            out.append(_diag(
                ir, "HIP202",
                f"windowed read of {e.accessor!r} only executes on one "
                f"side of a thread-index-dependent branch; it cannot be "
                f"staged through shared memory",
                s, hint="hoist the reads above the branch and select "
                        "between the loaded values"))
    return out


def check_bank_conflicts(ir: KernelIR,
                         block: Optional[Tuple[int, int]] = None
                         ) -> List[Diagnostic]:
    """HIP203: staged-tile row stride that is a multiple of the bank
    count.  Column-neighbour accesses (``dy`` varying) then hit one bank
    ``SMEM_BANKS`` ways.  Only meaningful when the block shape is known —
    the compile-time verify passes the resolved configuration."""
    if block is None:
        return []
    out: List[Diagnostic] = []
    for acc in ir.accessors:
        if acc.window == (1, 1) or acc.interpolation is not None:
            continue
        tile_w, _ = smem_tile_geometry(block, acc.window,
                                       bank_pad=BANK_CONFLICT_PAD)
        elem_size = acc.pixel_type.np_dtype.itemsize
        row_words = max(1, tile_w * elem_size // 4)
        if row_words % SMEM_BANKS != 0:
            continue
        out.append(_diag(
            ir, "HIP203",
            f"staged tile rows for {acc.name!r} are {row_words} words "
            f"({tile_w} elements) — a multiple of the {SMEM_BANKS} "
            f"shared-memory banks, so vertically adjacent threads "
            f"conflict",
            _first_stmt_reading(ir, accessor=acc.name),
            hint="change the block width so the padded row length is not "
                 f"a multiple of {SMEM_BANKS}"))
    return out


def check_unbounded_offsets(ir: KernelIR) -> List[Diagnostic]:
    """HIP204: accessor offsets the bounded-offset rule cannot bound.  The
    compiler then cannot size a staging tile or prove border safety, so
    the read takes the slowest (global, border-checked) path."""
    out: List[Diagnostic] = []
    unbounded = {read.accessor for read, b in read_offset_bounds(ir.body)
                 if b is None}
    for acc in ir.accessors:
        if acc.interpolation is not None or acc.name not in unbounded:
            continue
        out.append(_diag(
            ir, "HIP204",
            f"offsets of accessor {acc.name!r} cannot be bounded "
            f"statically; shared-memory staging and border analysis are "
            f"disabled for it",
            _first_stmt_reading(ir, accessor=acc.name),
            hint="index with constants or loop variables with constant "
                 "range(...) bounds"))
    return out


def performance_passes(ir: KernelIR,
                       block: Optional[Tuple[int, int]] = None,
                       use_smem: bool = False) -> List[Diagnostic]:
    """All HIP2xx passes over one kernel.  *block*/*use_smem* come from a
    resolved codegen configuration when linting at compile time; the
    bank-conflict pass needs them and is skipped otherwise."""
    out: List[Diagnostic] = []
    out += check_divergence(ir)
    out += check_staging_hazards(ir)
    if use_smem:
        out += check_bank_conflicts(ir, block=block)
    out += check_unbounded_offsets(ir)
    return out
