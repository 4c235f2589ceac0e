"""Correctness passes (HIP1xx) over a single :class:`KernelIR`.

These run on *unchecked* IR (straight out of the frontend) so that the
CLI can collect every finding instead of stopping at the typechecker's
first exception; the always-on compile-time verify runs them on the same
unchecked IR before typechecking.  HIP107 (reads outside the declared
window) is not here: it comes from the abstract interpreter's read facts
over the typed IR (:func:`repro.lint.absint.range_passes`).  See
``docs/DIAGNOSTICS.md`` for the catalogue with minimal triggering
kernels.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..ir.cfg import build_cfg
from ..ir.nodes import (
    AccessorRead,
    Assign,
    Cast,
    ForRange,
    If,
    KernelIR,
    MaskRead,
    OutputWrite,
    Stmt,
    VarDecl,
)
from ..ir.visitors import iter_all_exprs, stmt_exprs, walk_exprs, walk_stmts
from .dataflow import dead_stores, definite_assignment
from .diagnostics import Diagnostic, Severity


def _loc(ir: KernelIR, stmt: Optional[Stmt]) -> Tuple[Optional[int],
                                                      Optional[str]]:
    """(lineno, source_line) of *stmt* within *ir*'s kernel method."""
    lineno = getattr(stmt, "lineno", None)
    if lineno is None:
        return None, None
    line = None
    if 0 < lineno <= len(ir.source_lines):
        line = ir.source_lines[lineno - 1]
    return lineno, line


def _diag(ir: KernelIR, code: str, message: str,
          stmt: Optional[Stmt] = None, hint: Optional[str] = None,
          severity: Optional[Severity] = None) -> Diagnostic:
    lineno, line = _loc(ir, stmt)
    return Diagnostic(code=code, message=message, severity=severity,
                      kernel=ir.name, lineno=lineno, source_line=line,
                      hint=hint)


def _first_stmt_reading(ir: KernelIR, accessor: Optional[str] = None,
                        mask: Optional[str] = None) -> Optional[Stmt]:
    for s in walk_stmts(ir.body):
        for top in stmt_exprs(s):
            for e in walk_exprs(top):
                if accessor is not None and isinstance(e, AccessorRead) \
                        and e.accessor == accessor:
                    return s
                if mask is not None and isinstance(e, MaskRead) \
                        and e.mask == mask:
                    return s
    return None


# -- HIP101 / HIP102: CFG dataflow -----------------------------------------


def check_dataflow(ir: KernelIR) -> List[Diagnostic]:
    cfg = build_cfg(ir.body)
    initial = [p.name for p in ir.params if not p.baked]
    out: List[Diagnostic] = []
    for stmt, names in definite_assignment(cfg, initial):
        for name in sorted(names):
            out.append(_diag(
                ir, "HIP101",
                f"variable {name!r} may be read before it is assigned",
                stmt, hint=f"assign {name!r} on every path before this "
                           f"statement, or give it an initial value"))
    for stmt in dead_stores(cfg):
        verb = ("initialisation of" if isinstance(stmt, VarDecl)
                else "assignment to")
        out.append(_diag(
            ir, "HIP102",
            f"{verb} {stmt.name!r} is never read",
            stmt, hint=f"remove the store, or use {stmt.name!r} before it "
                       f"is overwritten"))
    return out


# -- HIP103 / HIP104: declared-but-unused metadata -------------------------


def check_unused(ir: KernelIR) -> List[Diagnostic]:
    read_accessors: Set[str] = set()
    read_masks: Set[str] = set()
    for e in iter_all_exprs(ir.body):
        if isinstance(e, AccessorRead):
            read_accessors.add(e.accessor)
        elif isinstance(e, MaskRead):
            read_masks.add(e.mask)
    out: List[Diagnostic] = []
    for a in ir.accessors:
        if a.name not in read_accessors:
            out.append(_diag(
                ir, "HIP103",
                f"accessor {a.name!r} is never read by the kernel body",
                hint=f"drop the accessor, or read it with "
                     f"self.{a.name}(dx, dy)"))
    for m in ir.masks:
        if m.name not in read_masks:
            out.append(_diag(
                ir, "HIP104",
                f"mask {m.name!r} is never read by the kernel body",
                hint=f"drop the mask, or read it with "
                     f"self.{m.name}(dx, dy) or convolve()"))
    return out


# -- HIP105 / HIP106: output-write structure -------------------------------


def _write_bounds(body: Sequence[Stmt]) -> Tuple[int, int]:
    """(min, max) number of output writes over all paths through *body*.
    A write inside a loop counts as 2 on the max side (i.e. "more than
    once") and 0 on the min side (zero-trip loops)."""
    lo = hi = 0
    for s in body:
        if isinstance(s, OutputWrite):
            lo += 1
            hi += 1
        elif isinstance(s, If):
            tlo, thi = _write_bounds(s.then_body)
            elo, ehi = _write_bounds(s.else_body)
            lo += min(tlo, elo)
            hi += max(thi, ehi)
        elif isinstance(s, ForRange):
            _, bhi = _write_bounds(s.body)
            if bhi:
                hi += 2 * bhi
    return lo, hi


def _first_write(body: Sequence[Stmt]) -> Optional[Stmt]:
    for s in walk_stmts(body):
        if isinstance(s, OutputWrite):
            return s
    return None


def check_output_paths(ir: KernelIR) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    lo, hi = _write_bounds(ir.body)
    if lo < 1:
        out.append(_diag(
            ir, "HIP105",
            "some control path through the kernel never calls "
            "self.output(...)" if hi else
            "the kernel never calls self.output(...)",
            hint="every work-item must write its pixel exactly once; add "
                 "an else branch or a write after the conditional"))
    if hi > 1:
        for s in walk_stmts(ir.body):
            if isinstance(s, ForRange) and _first_write(s.body) is not None:
                out.append(_diag(
                    ir, "HIP106",
                    "self.output(...) is called inside a loop",
                    _first_write(s.body),
                    hint="accumulate into a local and write it once after "
                         "the loop"))
                break
        else:
            out.append(_diag(
                ir, "HIP106",
                "some control path calls self.output(...) more than once; "
                "the last write wins",
                _first_write(ir.body),
                hint="merge the writes into one self.output(...) of a "
                     "selected value"))
    return out


# -- HIP108: implicit float-to-int narrowing -------------------------------


def _paired_stmts(unchecked: Sequence[Stmt], typed: Sequence[Stmt]):
    """Walk structurally-identical bodies in parallel (typecheck preserves
    statement structure)."""
    for u, t in zip(unchecked, typed):
        yield u, t
        if isinstance(u, If) and isinstance(t, If):
            yield from _paired_stmts(u.then_body, t.then_body)
            yield from _paired_stmts(u.else_body, t.else_body)
        elif isinstance(u, ForRange) and isinstance(t, ForRange):
            yield from _paired_stmts(u.body, t.body)


def check_narrowing(ir: KernelIR, typed: KernelIR) -> List[Diagnostic]:
    """Flag stores where the typechecker inserted a float→int cast the
    user did not write.  Needs both the unchecked IR (*ir*) and its typed
    counterpart, so the explicit-``int(...)`` case is not reported."""
    out: List[Diagnostic] = []
    for u, t in _paired_stmts(ir.body, typed.body):
        if isinstance(t, (VarDecl, Assign)):
            value = t.init if isinstance(t, VarDecl) else t.value
            u_value = u.init if isinstance(u, VarDecl) else u.value
        elif isinstance(t, OutputWrite):
            value, u_value = t.value, u.value
        else:
            continue
        if not (isinstance(value, Cast) and value.target is not None
                and value.target.is_integer
                and value.operand.type is not None
                and value.operand.type.is_float):
            continue
        if isinstance(u_value, Cast) and not u_value.target.is_float:
            continue    # user wrote int(...) — explicit, not a finding
        if isinstance(t, OutputWrite):
            # float results stored to integer images are idiomatic in
            # imaging (saturating stores); note it, don't warn
            out.append(_diag(
                ir, "HIP108",
                f"float result is implicitly converted to "
                f"{t.value.target.name} at the output write",
                u, hint="wrap the value in int(...) to make the truncation "
                        "explicit", severity=Severity.INFO))
        else:
            name = t.name
            out.append(_diag(
                ir, "HIP108",
                f"float value is implicitly truncated storing to "
                f"integer variable {name!r}",
                u, hint=f"declare {name!r} as float, or write "
                        f"int(...) explicitly"))
    return out


def correctness_passes(ir: KernelIR,
                       typed: Optional[KernelIR] = None
                       ) -> List[Diagnostic]:
    """All HIP1xx passes over one kernel.  *typed* (when available)
    additionally enables the narrowing pass."""
    out: List[Diagnostic] = []
    out += check_dataflow(ir)
    out += check_unused(ir)
    out += check_output_paths(ir)
    if typed is not None:
        out += check_narrowing(ir, typed)
    return out
