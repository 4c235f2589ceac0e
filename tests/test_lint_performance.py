"""Performance diagnostics (HIP2xx): positive and negative tests per
shipped code, plus the compile-time verify wiring (always-on attach,
``strict=`` rejection, collector delivery)."""

from __future__ import annotations

import pytest

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    Image,
    IterationSpace,
    Kernel,
)
from repro.errors import LintError
from repro.frontend import parse_kernel
from repro.ir import typecheck_kernel
from repro.ir.analysis import read_offset_bounds
from repro.lint import Severity, collecting, lint_kernel
from repro.lint.performance import (
    check_bank_conflicts,
    check_unbounded_offsets,
)
from repro.runtime.compile import compile_kernel

from .helpers import (
    MaskConvolution,
    ShiftRead,
    TwoInputKernel,
    box_mask,
)

W, H = 16, 12


def _space():
    return IterationSpace(Image(W, H, float))


def _acc(wx=1, wy=1, boundary=None):
    img = Image(W, H, float)
    if boundary is None:
        return Accessor(img)
    return Accessor(BoundaryCondition(img, wx, wy, boundary))


def codes(diags):
    return sorted(d.code for d in diags)


def _ir(kernel):
    return typecheck_kernel(parse_kernel(kernel))


def _hulls(ir):
    """Per accessor, the hull of its reads' offset bounds; every read
    must be bounded."""
    hulls = {}
    for read, b in read_offset_bounds(ir.body):
        assert b is not None
        h = hulls.get(read.accessor, b)
        hulls[read.accessor] = (min(h[0], b[0]), max(h[1], b[1]),
                                min(h[2], b[2]), max(h[3], b[3]))
    return hulls


# -- kernels ----------------------------------------------------------------


class GidBranch(Kernel):
    """Branches on a value derived from the thread index."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        parity = self.x() - self.x() // 2 * 2
        if parity > 0:
            self.output(self.inp(0, 0) * 2.0)
        else:
            self.output(self.inp(0, 0))


class GidBranchWindowed(Kernel):
    """Windowed reads under a thread-index-dependent branch."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc(3, 3, Boundary.CLAMP)
        self.add_accessor(self.inp)

    def kernel(self):
        if self.x() > 4:
            self.output(self.inp(1, 0) + self.inp(-1, 0))
        else:
            self.output(self.inp(0, 0))


class UniformBranch(Kernel):
    """Branches on data, not the thread index: no divergence finding."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        v = self.inp(0, 0)
        if v > 0.5:
            self.output(1.0)
        else:
            self.output(0.0)


class Stencil3(Kernel):
    """Plain 3x3-windowed kernel for the bank-conflict geometry test."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc(3, 3, Boundary.CLAMP)
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(self.inp(-1, 0) + self.inp(1, 0) + self.inp(0, 0))


class DataDependentOffset(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc(5, 5, Boundary.CLAMP)
        self.add_accessor(self.inp)

    def kernel(self):
        d = int(self.inp(0, 0))
        self.output(self.inp(d, 0))


class MixedOffsets(Kernel):
    """Bounded and unbounded reads of ``inp``; only bounded ones of
    ``other``."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc(5, 5, Boundary.CLAMP)
        self.other = _acc(3, 3, Boundary.CLAMP)
        self.add_accessor(self.inp)
        self.add_accessor(self.other)

    def kernel(self):
        d = int(self.other(1, -1))
        s = self.inp(0, 0) + self.inp(d, 0) + self.inp(1, 1)
        for i in range(-1, 2):
            s += self.inp(0, d + i) + self.other(i, 0)
        self.output(s)


class CleanPoint(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(self.inp(0, 0) * 0.5)


# -- pass tests -------------------------------------------------------------


class TestHip201:
    def test_gid_dependent_branch(self):
        diags = [d for d in lint_kernel(GidBranch())
                 if d.code == "HIP201"]
        assert len(diags) == 1
        assert diags[0].severity == Severity.WARNING

    def test_taint_propagates_through_locals(self):
        # the branch is on `parity`, not on self.x() directly
        assert "HIP201" in codes(lint_kernel(GidBranch()))

    def test_data_dependent_branch_is_clean(self):
        assert "HIP201" not in codes(lint_kernel(UniformBranch()))


class TestHip202:
    def test_windowed_read_under_divergence(self):
        diags = [d for d in lint_kernel(GidBranchWindowed())
                 if d.code == "HIP202"]
        assert len(diags) == 1
        assert "'inp'" in diags[0].message

    def test_centre_reads_only_are_clean(self):
        assert "HIP202" not in codes(lint_kernel(GidBranch()))


class TestHip203:
    def _ir(self):
        from repro.frontend.parser import parse_kernel
        from repro.ir.typecheck import typecheck_kernel

        return typecheck_kernel(parse_kernel(Stencil3()))

    def test_conflicting_stride(self):
        # float32 tile row: block 29 + halo 2 + pad 1 = 32 words, a
        # multiple of the 32 banks
        diags = check_bank_conflicts(self._ir(), block=(29, 4))
        assert codes(diags) == ["HIP203"]
        assert "32" in diags[0].message

    def test_padded_stride_is_clean(self):
        # block 32 + 2 + 1 = 35 words: no common factor with 32
        assert check_bank_conflicts(self._ir(), block=(32, 4)) == []

    def test_needs_block(self):
        assert check_bank_conflicts(self._ir(), block=None) == []

    def test_point_accessors_skipped(self):
        from repro.frontend.parser import parse_kernel
        from repro.ir.typecheck import typecheck_kernel

        ir = typecheck_kernel(parse_kernel(CleanPoint()))
        assert check_bank_conflicts(ir, block=(29, 4)) == []


class TestHip204:
    def test_data_dependent_offset(self):
        diags = [d for d in lint_kernel(DataDependentOffset())
                 if d.code == "HIP204"]
        assert len(diags) == 1
        assert "'inp'" in diags[0].message

    def test_constant_offsets_are_clean(self):
        assert "HIP204" not in codes(lint_kernel(Stencil3()))

    def test_fixed_offset(self):
        ir = _ir(ShiftRead(_space(), _acc(), 2, -1))
        assert _hulls(ir) == {"inp": (2, 2, -1, -1)}
        assert check_unbounded_offsets(ir) == []

    def test_loop_offsets_resolved_from_range_bounds(self):
        ir = _ir(MaskConvolution(_space(), _acc(5, 5, Boundary.CLAMP),
                                 box_mask(5), 2, 2))
        assert _hulls(ir) == {"inp": (-2, 2, -2, 2)}
        assert check_unbounded_offsets(ir) == []

    def test_asymmetric_loops(self):
        ir = _ir(MaskConvolution(_space(), _acc(7, 7, Boundary.CLAMP),
                                 box_mask(3), 1, 3))
        assert _hulls(ir) == {"inp": (-1, 1, -3, 3)}
        assert check_unbounded_offsets(ir) == []

    def test_two_accessors_tracked_separately(self):
        ir = _ir(TwoInputKernel(_space(), _acc(), _acc()))
        assert _hulls(ir) == {"a": (0, 0, 0, 0), "b": (0, 0, 0, 0)}
        assert check_unbounded_offsets(ir) == []

    def test_mixed_reads_of_one_accessor_give_one_finding(self):
        ir = _ir(MixedOffsets())
        bounded = {}
        for read, b in read_offset_bounds(ir.body):
            bounded.setdefault(read.accessor, set()).add(b is not None)
        assert bounded == {"inp": {True, False}, "other": {True}}
        diags = check_unbounded_offsets(ir)
        assert [d.code for d in diags] == ["HIP204"]
        assert "'inp'" in diags[0].message


# -- compile-time verify wiring --------------------------------------------


class DirtyButCompilable(Kernel):
    """Dead store: a warning the typechecker does not reject."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        a = 1.0
        a = 2.0
        self.output(self.inp(0, 0) * a)


class TestCompileVerify:
    def test_diagnostics_attached_without_raising(self):
        compiled = compile_kernel(DirtyButCompilable())
        assert codes(compiled.diagnostics) == ["HIP102"]
        assert "lint_ms" in compiled.stage_timings

    def test_clean_kernel_attaches_nothing(self):
        assert compile_kernel(CleanPoint()).diagnostics == []

    def test_strict_rejects_warnings(self):
        with pytest.raises(LintError) as exc_info:
            compile_kernel(DirtyButCompilable(), strict=True)
        assert codes(exc_info.value.diagnostics) == ["HIP102"]
        assert "HIP102" in str(exc_info.value)

    def test_strict_accepts_clean_kernel(self):
        compiled = compile_kernel(CleanPoint(), strict=True)
        assert compiled.diagnostics == []

    def test_collector_receives_compile_findings(self):
        with collecting() as sink:
            compile_kernel(DirtyButCompilable())
        assert codes(sink) == ["HIP102"]

    def test_cache_hit_still_verifies(self):
        from repro.cache import CompilationCache

        cache = CompilationCache()
        first = compile_kernel(DirtyButCompilable(), cache=cache)
        second = compile_kernel(DirtyButCompilable(), cache=cache)
        assert not first.from_cache
        assert second.from_cache
        assert codes(second.diagnostics) == ["HIP102"]

    def test_oob_under_undefined_still_compiles(self):
        # DeviceFault-style kernels (deliberate out-of-bounds reads)
        # must keep compiling: the verify reports, never blocks
        class_diags = compile_kernel(OobProbe()).diagnostics
        assert codes(class_diags) == ["HIP107"]


class OobProbe(Kernel):
    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(self.inp(1, 0))
