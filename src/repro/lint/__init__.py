"""Static-analysis subsystem: kernel and pipeline diagnostics.

The paper's compiler builds a CFG and analyzes kernels to *generate*
code (Section IV-A); this package turns the same analyses around to
*check* kernels, emitting structured :class:`Diagnostic` findings with
stable ``HIPxxx`` codes:

* ``HIP1xx`` correctness — use-before-def, dead stores, unused
  accessors/masks, missing output writes, reads outside the declared
  boundary window, implicit narrowing;
* ``HIP2xx`` performance — gid-dependent divergence, staging hazards,
  bank conflicts, statically-unbounded offsets;
* ``HIP3xx`` pipeline graphs — unconsumed outputs, missed fusion;
* ``HIP4xx`` value-range hazards — interval abstract interpretation
  over the CFG (derived out-of-window reads, possibly-zero divisors,
  overflowing narrowing casts, negative ``sqrt``/``log`` arguments);
* ``HIP5xx`` footprint facts — per-node halo extents and
  footprint-incompatibility notes on fusion refusals.

Entry points: :func:`lint_kernel` (a DSL kernel), :func:`lint_ir`
(already-parsed IR), :func:`lint_graph` (a pipeline graph), and the
:func:`collecting` context manager that captures every diagnostic the
runtime emits while executing arbitrary code.  The catalogue lives in
``docs/DIAGNOSTICS.md``; the ``repro lint`` CLI fronts all of this.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import FrontendError, TypeError_, VerificationError
from ..ir.nodes import KernelIR
from .absint import AbsintResult, interpret, range_passes
from .collect import collecting, emit
from .correctness import check_narrowing, correctness_passes
from .diagnostics import CODES, Diagnostic, LintReport, Severity
from .footprint import AccessorFootprint, KernelFootprint
from .graphlint import graph_passes
from .performance import performance_passes

__all__ = [
    "CODES",
    "AbsintResult",
    "AccessorFootprint",
    "Diagnostic",
    "KernelFootprint",
    "LintReport",
    "Severity",
    "collecting",
    "emit",
    "interpret",
    "lint_graph",
    "lint_ir",
    "lint_kernel",
    "range_passes",
]


def _error_diag(exc, kernel_name: str) -> Diagnostic:
    return Diagnostic(
        code="HIP100",
        message=getattr(exc, "bare_message", str(exc)),
        kernel=kernel_name,
        lineno=getattr(exc, "lineno", None),
        source_line=getattr(exc, "source_line", None),
        hint="fix this before any other finding; later passes assume a "
             "well-formed kernel")


def lint_ir(ir: KernelIR, typed: Optional[KernelIR] = None,
            block: Optional[Tuple[int, int]] = None,
            use_smem: bool = False) -> List[Diagnostic]:
    """Run every kernel-level pass over *ir* (unchecked IR from the
    frontend).  When the typed counterpart is unknown, it is computed
    here; a typecheck failure becomes a ``HIP100`` finding and the
    type-dependent passes are skipped."""
    diags = correctness_passes(ir)
    if typed is None:
        from ..ir.typecheck import typecheck_kernel
        try:
            typed = typecheck_kernel(ir)
        except (TypeError_, VerificationError) as exc:
            # HIP101/HIP105 already explain use-before-def and missing
            # output writes; don't restate them as the typechecker's
            # rejection on top
            if not any(d.code in ("HIP101", "HIP105") for d in diags):
                diags.append(_error_diag(exc, ir.name))
    if typed is not None:
        diags += check_narrowing(ir, typed)
        diags += performance_passes(typed, block=block, use_smem=use_smem)
        diags += range_passes(typed)
    return diags


def lint_kernel(kernel) -> List[Diagnostic]:
    """Parse and lint a DSL :class:`~repro.dsl.kernel.Kernel` instance.
    A frontend rejection becomes a single ``HIP100`` finding."""
    from ..frontend.parser import parse_kernel

    try:
        ir = parse_kernel(kernel)
    except FrontendError as exc:
        return [_error_diag(exc, type(kernel).__name__)]
    return lint_ir(ir)


def lint_graph(graph, notes: bool = False) -> List[Diagnostic]:
    """Run the HIP3xx (and, with ``notes=True``, HIP5xx) passes over a
    :class:`~repro.graph.builder.PipelineGraph`."""
    return graph_passes(graph, notes=notes)
