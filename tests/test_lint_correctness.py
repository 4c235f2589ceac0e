"""Correctness diagnostics (HIP1xx): every shipped code has a positive
test with a minimal triggering kernel and a negative test on a clean
kernel.  See docs/DIAGNOSTICS.md for the catalogue."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    Image,
    IterationSpace,
    Kernel,
    Mask,
)
from repro.lint import CODES, Diagnostic, LintReport, Severity, lint_kernel

W, H = 16, 12


def _space(pixel_type=float):
    return IterationSpace(Image(W, H, pixel_type))


def _acc(wx=1, wy=1, boundary=None, pixel_type=float):
    img = Image(W, H, pixel_type)
    if boundary is None:
        return Accessor(img)
    return Accessor(BoundaryCondition(img, wx, wy, boundary))


def codes(diags):
    return sorted(d.code for d in diags)


# -- kernels under test (bodies must live in a real file) -------------------


class Clean(Kernel):
    """3x3 stencil with an honest boundary window: lints clean."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc(3, 3, Boundary.CLAMP)
        self.add_accessor(self.inp)

    def kernel(self):
        s = 0.0
        for dy in range(-1, 2):
            for dx in range(-1, 2):
                s = s + self.inp(dx, dy)
        self.output(s / 9.0)


class FrontendReject(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        while True:
            self.output(self.inp(0, 0))


def _use_before_def_ir():
    """The frontend's lexical scoping rejects use-before-def at parse
    time, so HIP101 guards *synthesized* IR (graph fusion, compile_ir
    callers) — build such a body directly."""
    from repro.ir.nodes import (
        FloatConst,
        KernelIR,
        OutputWrite,
        VarDecl,
        VarRef,
    )
    from repro.types import FLOAT

    body = [
        VarDecl("a", VarRef("missing")),
        OutputWrite(FloatConst(0.0)),
    ]
    return KernelIR(name="synth", pixel_type=FLOAT, body=body)


class DeadStore(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        a = 1.0
        a = 2.0
        self.output(self.inp(0, 0) * a)


class UnusedAccessor(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.extra = _acc()
        self.add_accessor(self.inp)
        self.add_accessor(self.extra)

    def kernel(self):
        self.output(self.inp(0, 0))


class UnusedMask(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.unused = Mask(3, 3).set(np.ones((3, 3), dtype=np.float32))
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(self.inp(0, 0))


class MissingWrite(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        if self.x() > 4:
            self.output(self.inp(0, 0))


class WriteInLoop(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(self.inp(0, 0))
        for i in range(0, 2):
            self.output(self.inp(0, 0) * 2.0)


class DoubleWrite(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(self.inp(0, 0))
        self.output(self.inp(0, 0) * 2.0)


class OobUndefined(Kernel):
    """Reads a neighbour without any BoundaryCondition."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(self.inp(1, 0))


class OobClamp(Kernel):
    """Window declares radius 1, kernel reads radius 2 — defined
    behaviour under CLAMP, but the staging tile is undersized."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc(3, 3, Boundary.CLAMP)
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(self.inp(2, 0))


class OobClampMixed(Kernel):
    """A literal read outside the window next to a data-dependent read
    of the same accessor, in the same statement."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc(3, 3, Boundary.CLAMP)
        self.add_accessor(self.inp)

    def kernel(self):
        k = int(self.inp(0, 0))
        self.output(self.inp(2, 0) + self.inp(k, 0))


class NarrowLocal(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        v = 1
        v = self.inp(0, 0) * 2.0
        self.output(v)


class NarrowOutput(Kernel):
    def __init__(self):
        super().__init__(_space(int))
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(self.inp(0, 0) * 255.0)


class ExplicitIntCast(Kernel):
    def __init__(self):
        super().__init__(_space(int))
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(int(self.inp(0, 0) * 255.0))


# -- tests ------------------------------------------------------------------


class TestCleanKernel:
    def test_no_findings(self):
        assert lint_kernel(Clean()) == []

    def test_builtin_filters_lint_clean(self):
        from repro.lint.builtin import builtin_kernels

        report = LintReport()
        for kernel in builtin_kernels():
            report.extend(lint_kernel(kernel))
        assert report.errors == 0
        assert report.warnings == 0


class TestHip100:
    def test_frontend_rejection_is_a_finding(self):
        diags = lint_kernel(FrontendReject())
        assert codes(diags) == ["HIP100"]
        assert diags[0].severity == Severity.ERROR
        assert "while" in diags[0].message

    def test_not_duplicated_over_hip105(self):
        # the typechecker also rejects a kernel that doesn't always
        # write output; HIP105 already explains that
        diags = lint_kernel(MissingWrite())
        assert "HIP100" not in codes(diags)


class TestHip101:
    def test_use_before_def_in_synthesized_ir(self):
        from repro.lint import lint_ir

        diags = [d for d in lint_ir(_use_before_def_ir())
                 if d.code == "HIP101"]
        assert len(diags) == 1
        assert "'missing'" in diags[0].message
        assert diags[0].severity == Severity.ERROR

    def test_typecheck_rejection_not_restated(self):
        # the typechecker also rejects this IR; HIP101 already explains
        # the root cause, so no HIP100 on top
        from repro.lint import lint_ir

        assert "HIP100" not in codes(lint_ir(_use_before_def_ir()))

    def test_negative(self):
        assert "HIP101" not in codes(lint_kernel(DeadStore()))


class TestHip102:
    def test_overwritten_store(self):
        diags = [d for d in lint_kernel(DeadStore())
                 if d.code == "HIP102"]
        assert len(diags) == 1
        assert "'a'" in diags[0].message
        # location points at the dead initialisation, with source text
        assert diags[0].lineno is not None
        assert "a = 1.0" in diags[0].source_line

    def test_negative(self):
        assert "HIP102" not in codes(lint_kernel(Clean()))


class TestHip103Hip104:
    def test_unused_accessor(self):
        diags = [d for d in lint_kernel(UnusedAccessor())
                 if d.code == "HIP103"]
        assert len(diags) == 1
        assert "'extra'" in diags[0].message

    def test_unused_mask(self):
        diags = [d for d in lint_kernel(UnusedMask())
                 if d.code == "HIP104"]
        assert len(diags) == 1
        assert "'unused'" in diags[0].message

    def test_negative(self):
        diags = lint_kernel(Clean())
        assert "HIP103" not in codes(diags)
        assert "HIP104" not in codes(diags)


class TestHip105:
    def test_partial_path(self):
        diags = [d for d in lint_kernel(MissingWrite())
                 if d.code == "HIP105"]
        assert len(diags) == 1
        assert diags[0].severity == Severity.ERROR

    def test_negative(self):
        assert "HIP105" not in codes(lint_kernel(Clean()))


class TestHip106:
    def test_write_in_loop(self):
        diags = [d for d in lint_kernel(WriteInLoop())
                 if d.code == "HIP106"]
        assert len(diags) == 1
        assert "loop" in diags[0].message

    def test_double_write(self):
        diags = [d for d in lint_kernel(DoubleWrite())
                 if d.code == "HIP106"]
        assert len(diags) == 1
        assert "more than once" in diags[0].message

    def test_negative(self):
        assert "HIP106" not in codes(lint_kernel(Clean()))


class TestHip107:
    def test_error_under_undefined_boundary(self):
        diags = [d for d in lint_kernel(OobUndefined())
                 if d.code == "HIP107"]
        assert len(diags) == 1
        assert diags[0].severity == Severity.ERROR
        assert "out of bounds" in diags[0].message
        # the hint names the window that would make the read safe
        assert "3x1" in diags[0].hint

    def test_warning_under_defined_boundary(self):
        diags = [d for d in lint_kernel(OobClamp())
                 if d.code == "HIP107"]
        assert len(diags) == 1
        assert diags[0].severity == Severity.WARNING
        assert "5x3" in diags[0].hint

    def test_negative(self):
        assert "HIP107" not in codes(lint_kernel(Clean()))

    def test_literal_read_next_to_unbounded_read(self):
        # each escaping read is classified on its own: the literal read
        # is HIP107 even though another read of the accessor is
        # unbounded; only the data-dependent read is HIP401
        diags = lint_kernel(OobClampMixed())
        hip107 = [d for d in diags if d.code == "HIP107"]
        assert len(hip107) == 1
        assert hip107[0].severity == Severity.WARNING
        assert "[0..2]x[0..0]" in hip107[0].message
        assert "5x3" in hip107[0].hint
        hip401 = [d.message for d in diags if d.code == "HIP401"]
        assert hip401 == ["accessor 'inp' is read at derived offsets "
                          "[-2147483648..2147483647]x[0..0] which escape "
                          "its declared 3x3 window"]


class TestHip108:
    def test_local_narrowing_warns(self):
        diags = [d for d in lint_kernel(NarrowLocal())
                 if d.code == "HIP108"]
        assert len(diags) == 1
        assert diags[0].severity == Severity.WARNING
        assert "'v'" in diags[0].message

    def test_output_narrowing_is_info(self):
        diags = [d for d in lint_kernel(NarrowOutput())
                 if d.code == "HIP108"]
        assert len(diags) == 1
        assert diags[0].severity == Severity.INFO

    def test_explicit_cast_is_clean(self):
        assert "HIP108" not in codes(lint_kernel(ExplicitIntCast()))


class TestDiagnosticModel:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="HIP999", message="nope")

    def test_default_severity_from_registry(self):
        d = Diagnostic(code="HIP102", message="x")
        assert d.severity == CODES["HIP102"][1]

    def test_format_contains_location_and_hint(self):
        d = Diagnostic(code="HIP102", message="dead", kernel="K",
                       lineno=3, source_line="a = 1.0", hint="drop it")
        text = d.format()
        assert "K:3" in text
        assert "warning" in text
        assert "a = 1.0" in text
        assert "hint: drop it" in text

    def test_report_policies(self):
        report = LintReport([
            Diagnostic(code="HIP102", message="w"),
            Diagnostic(code="HIP302", message="i"),
        ])
        assert report.worst() == Severity.WARNING
        assert report.exceeds("warning")
        assert not report.exceeds("error")
        assert not report.exceeds("never")

    def test_renderers(self):
        import json

        report = LintReport([Diagnostic(code="HIP107", message="oob",
                                        kernel="K", lineno=2)])
        assert "HIP107" in report.to_text()
        payload = json.loads(report.to_json())
        assert payload["summary"]["errors"] == 1
        sarif = json.loads(report.to_sarif())
        run = sarif["runs"][0]
        assert run["results"][0]["ruleId"] == "HIP107"
        assert run["results"][0]["level"] == "error"
        assert run["tool"]["driver"]["rules"][0]["id"] == "HIP107"
