"""The abstract interpreter (``repro.lint.absint``) and its footprint
domain: hypothesis-randomized soundness against brute-force window
enumeration, one mutation kernel per HIP4xx code (each must trip
exactly its code, clean kernels must trip none), SARIF 2.1.0
structural validation, absint observability spans, and the
fingerprint-keyed lint-result cache."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    CompilationCache,
    Image,
    IterationSpace,
    Kernel,
    compile_kernel,
)
from repro.dsl.math import sin, sqrt
from repro.frontend.parser import parse_kernel
from repro.ir.nodes import ForRange
from repro.ir.typecheck import typecheck_kernel
from repro.lint import LintReport, Severity, interpret, lint_kernel

from .helpers import random_image

W, H = 16, 12


def _ir(kernel):
    return typecheck_kernel(parse_kernel(kernel))


def _space(pt=float):
    return IterationSpace(Image(W, H, pt))


def _acc(wx=1, wy=1, boundary=None, pt=float):
    img = Image(W, H, pt)
    if boundary is None:
        return Accessor(img)
    return Accessor(BoundaryCondition(img, wx, wy, boundary))


def hip4(diags):
    return sorted(d.code for d in diags if d.code.startswith("HIP4"))


# -- kernels under test (bodies must live in a real file) -------------------


class AsymStencil(Kernel):
    """Asymmetric loop bounds inside a symmetric (covering) window: the
    proven hull must be exactly the loop product, not the window."""

    def __init__(self, ax, bx, ay, by):
        rx, ry = max(ax, bx), max(ay, by)
        super().__init__(_space())
        self.inp = _acc(2 * rx + 1, 2 * ry + 1, Boundary.CLAMP)
        self.ax, self.bx = int(ax), int(bx)
        self.ay, self.by = int(ay), int(by)
        self.add_accessor(self.inp)

    def kernel(self):
        s = 0.0
        for dy in range(-self.ay, self.by + 1):
            for dx in range(-self.ax, self.bx + 1):
                s = s + self.inp(dx, dy)
        self.output(s)


class ScaledStencil(Kernel):
    """Column offset scaled through a local variable — syntactically
    unbounded (HIP204 territory), provable only by the interpreter."""

    def __init__(self, sx, r):
        super().__init__(_space())
        self.inp = _acc(2 * sx * r + 1, 2 * r + 1, Boundary.CLAMP)
        self.sx, self.r = int(sx), int(r)
        self.add_accessor(self.inp)

    def kernel(self):
        s = 0.0
        for d in range(-self.r, self.r + 1):
            col = self.sx * d
            s = s + self.inp(col, d)
        self.output(s)


class EscapeViaLocal(Kernel):
    """HIP401 (warning): derived offsets [-2..2] escape the 3x3 window,
    but boundary handling is defined so the read is merely clamped."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc(3, 3, Boundary.CLAMP)
        self.add_accessor(self.inp)

    def kernel(self):
        acc = 0.0
        for dy in range(-1, 2):
            d = 2 * dy
            acc = acc + self.inp(d, dy)
        self.output(acc)


class EscapeUndefined(Kernel):
    """HIP401 (error): same escape, but the accessor has no boundary
    condition — out-of-window is out-of-bounds at the border."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        acc = 0.0
        for dy in range(-1, 2):
            d = 2 * dy
            acc = acc + self.inp(d, dy)
        self.output(acc)


class DivZero(Kernel):
    """HIP402 (error): the divisor is a proven-zero singleton."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.scale = 2.0
        self.add_accessor(self.inp)

    def kernel(self):
        d = self.scale - self.scale
        self.output(self.inp(0, 0) / d)


class DivMaybeZero(Kernel):
    """HIP402 (warning): sin() is proven into [-1, 1], which contains
    zero without being it."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc()
        self.add_accessor(self.inp)

    def kernel(self):
        d = sin(self.inp(0, 0))
        self.output(self.inp(0, 0) / d)


class NarrowCast(Kernel):
    """HIP403 (warning): uint8 data scaled to [0..102000] then cast back
    into a uint8 store."""

    def __init__(self):
        super().__init__(_space(np.uint8))
        self.inp = _acc(pt=np.uint8)
        self.add_accessor(self.inp)

    def kernel(self):
        v = int(self.inp(0, 0) * 400.0)
        self.output(v)


class SqrtNeg(Kernel):
    """HIP404 (error): uint8 data shifted to [-300..-45], entirely
    negative under sqrt."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc(pt=np.uint8)
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(sqrt(self.inp(0, 0) - 300.0))


class SqrtMaybeNeg(Kernel):
    """HIP404 (warning): [-100..155] is only partially negative."""

    def __init__(self):
        super().__init__(_space())
        self.inp = _acc(pt=np.uint8)
        self.add_accessor(self.inp)

    def kernel(self):
        self.output(sqrt(self.inp(0, 0) - 100.0))


class CleanSquareSqrt(Kernel):
    """sqrt(x*x + y*y) — squares are proven non-negative, so the
    idiomatic gradient magnitude stays HIP4xx-clean."""

    def __init__(self):
        super().__init__(_space())
        self.a = _acc()
        self.b = _acc()
        self.add_accessor(self.a)
        self.add_accessor(self.b)

    def kernel(self):
        gx = self.a(0, 0)
        gy = self.b(0, 0)
        self.output(sqrt(gx * gx + gy * gy))


# -- footprint soundness vs brute-force enumeration -------------------------


class TestFootprintSoundness:
    @settings(max_examples=30, deadline=None)
    @given(ax=st.integers(0, 3), bx=st.integers(0, 3),
           ay=st.integers(0, 2), by=st.integers(0, 2))
    def test_asymmetric_hull_matches_bruteforce(self, ax, bx, ay, by):
        fp = _ir(AsymStencil(ax, bx, ay, by)).footprint()
        offsets = {(dx, dy) for dy in range(-ay, by + 1)
                   for dx in range(-ax, bx + 1)}
        acc = fp.accessor("inp")
        assert acc.proven
        assert (acc.lo_dx, acc.hi_dx) == (min(o[0] for o in offsets),
                                          max(o[0] for o in offsets))
        assert (acc.lo_dy, acc.hi_dy) == (min(o[1] for o in offsets),
                                          max(o[1] for o in offsets))
        assert acc.in_window()
        assert fp.proven
        assert fp.halo() == (max(ax, bx), max(ay, by))
        assert fp.is_pointwise() == (ax == bx == ay == by == 0)

    @settings(max_examples=20, deadline=None)
    @given(sx=st.integers(1, 3), r=st.integers(0, 3))
    def test_scaled_hull_matches_bruteforce(self, sx, r):
        fp = _ir(ScaledStencil(sx, r)).footprint()
        offsets = {(sx * d, d) for d in range(-r, r + 1)}
        acc = fp.accessor("inp")
        assert acc.proven
        assert (acc.lo_dx, acc.hi_dx) == (min(o[0] for o in offsets),
                                          max(o[0] for o in offsets))
        assert (acc.lo_dy, acc.hi_dy) == (min(o[1] for o in offsets),
                                          max(o[1] for o in offsets))
        assert acc.in_window()

    @settings(max_examples=10, deadline=None)
    @given(ax=st.integers(0, 2), bx=st.integers(0, 2),
           ay=st.integers(0, 2), by=st.integers(0, 2))
    def test_in_window_stencils_lint_and_execute_clean(self, ax, bx,
                                                       ay, by):
        k = AsymStencil(ax, bx, ay, by)
        assert hip4(lint_kernel(k)) == []
        data = np.arange(W * H, dtype=np.float32).reshape(H, W) / 7.0
        k.inp.image.set_data(data)
        compiled = compile_kernel(k)
        assert hip4(compiled.diagnostics) == []
        compiled.execute()
        out = k.iteration_space.image.get_data()
        # interior pixels see no boundary handling: pure window sums
        y, x = H // 2, W // 2
        expect = sum(data[y + dy, x + dx]
                     for dy in range(-ay, by + 1)
                     for dx in range(-ax, bx + 1))
        assert np.isclose(out[y, x], expect, rtol=1e-5)


# -- HIP4xx mutation kernels ------------------------------------------------


class TestMutations:
    def expect(self, kernel, code, severity):
        diags = lint_kernel(kernel)
        assert hip4(diags) == [code]
        d = next(x for x in diags if x.code == code)
        assert d.severity == severity
        return d

    def test_hip401_warning_with_boundary(self):
        d = self.expect(EscapeViaLocal(), "HIP401", Severity.WARNING)
        assert "[-2..2]" in d.message and "3x3" in d.message

    def test_hip401_error_undefined_boundary(self):
        d = self.expect(EscapeUndefined(), "HIP401", Severity.ERROR)
        assert "out of bounds" in d.message

    def test_hip402_proven_zero_is_error(self):
        d = self.expect(DivZero(), "HIP402", Severity.ERROR)
        assert "always zero" in d.message

    def test_hip402_zero_in_range_is_warning(self):
        self.expect(DivMaybeZero(), "HIP402", Severity.WARNING)

    def test_hip403_narrowing_overflow(self):
        self.expect(NarrowCast(), "HIP403", Severity.WARNING)

    def test_hip404_proven_negative_is_error(self):
        self.expect(SqrtNeg(), "HIP404", Severity.ERROR)

    def test_hip404_maybe_negative_is_warning(self):
        self.expect(SqrtMaybeNeg(), "HIP404", Severity.WARNING)

    def test_square_under_sqrt_is_clean(self):
        assert hip4(lint_kernel(CleanSquareSqrt())) == []

    def test_every_builtin_kernel_is_hip4xx_clean(self):
        from repro.lint.builtin import builtin_kernels

        for kernel in builtin_kernels():
            assert hip4(lint_kernel(kernel)) == [], \
                f"{type(kernel).__name__} trips HIP4xx"


# -- unbounded data stays silent (the noise policy) -------------------------


class TestNoisePolicy:
    def test_division_by_float_data_is_silent(self):
        class DivByData(Kernel):
            def __init__(self):
                super().__init__(_space())
                self.inp = _acc()
                self.add_accessor(self.inp)

            def kernel(self):
                self.output(1.0 / self.inp(0, 0))

        assert hip4(lint_kernel(DivByData())) == []

    def test_sqrt_of_float_data_is_silent(self):
        class SqrtData(Kernel):
            def __init__(self):
                super().__init__(_space())
                self.inp = _acc()
                self.add_accessor(self.inp)

            def kernel(self):
                self.output(sqrt(self.inp(0, 0)))

        assert hip4(lint_kernel(SqrtData())) == []


# -- SARIF 2.1.0 structural validation (hand-rolled; no jsonschema) ---------


class TestSarif:
    def _doc(self):
        report = LintReport()
        report.extend(lint_kernel(EscapeUndefined()))
        report.extend(lint_kernel(DivZero()))
        report.extend(lint_kernel(NarrowCast()))
        return json.loads(report.to_sarif())

    def test_document_shape(self):
        doc = self._doc()
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        assert len(doc["runs"]) == 1

    def test_rules_metadata(self):
        run = self._doc()["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert rules, "at least one rule must be used"
        for rule in rules:
            assert rule["id"].startswith("HIP")
            assert rule["name"]
            assert rule["shortDescription"]["text"]
            assert rule["helpUri"].endswith(
                f"DIAGNOSTICS.md#{rule['id'].lower()}")
            assert rule["defaultConfiguration"]["level"] in (
                "note", "warning", "error")

    def test_results_reference_rules_and_regions(self):
        run = self._doc()["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert run["results"], "mutation kernels must produce results"
        for res in run["results"]:
            assert rules[res["ruleIndex"]]["id"] == res["ruleId"]
            assert res["level"] in ("note", "warning", "error")
            assert res["message"]["text"]
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"]
            region = loc.get("region")
            if region is not None:
                assert region["startLine"] >= 1
                assert region["startColumn"] >= 1
                assert region["endLine"] >= region["startLine"]
                assert region["endColumn"] > region["startColumn"]


# -- observability ----------------------------------------------------------


class TestObservability:
    def test_absint_spans_emitted(self):
        from repro.obs import tracing
        from repro.obs.schema import ABSINT_SPANS

        with tracing() as tracer:
            ir = _ir(AsymStencil(1, 1, 1, 1))
            interpret(ir)
            ir.footprint()
        names = {s.name for s in tracer.spans()}
        for span_name in ABSINT_SPANS:
            assert span_name in names, f"missing {span_name} span"

    def test_finding_metrics_counted(self):
        from repro.obs.metrics import get_registry

        def counted():
            counters = get_registry().snapshot().get("counters", {})
            return counters.get("lint.findings.hip402", 0)

        before = counted()
        lint_kernel(DivZero())
        assert counted() == before + 1


# -- the lint-result cache (keyed by IR fingerprint + options) --------------


class TestLintCache:
    def test_second_compile_hits_lint_cache(self):
        cache = CompilationCache()
        compile_kernel(CleanSquareSqrt(), cache=cache)
        compile_kernel(CleanSquareSqrt(), cache=cache)
        assert cache.stats.lint_misses == 1
        assert cache.stats.lint_hits == 1
        metrics = cache.stats.metrics()
        assert metrics["cache.lint.hits"] == 1
        assert metrics["cache.lint.misses"] == 1
        assert metrics["cache.lint.hit_rate"] == 0.5

    def test_cached_diagnostics_equal_fresh(self):
        cache = CompilationCache()
        first = compile_kernel(EscapeViaLocal(), cache=cache)
        second = compile_kernel(EscapeViaLocal(), cache=cache)
        assert [d.code for d in first.diagnostics] == \
            [d.code for d in second.diagnostics]
        assert cache.stats.lint_hits >= 1


# -- one cached fixpoint per IR instance ------------------------------------


class TestAbsintCache:
    def test_one_result_per_instance(self):
        ir = _ir(EscapeViaLocal())
        result = ir.absint()
        assert ir.absint() is result
        assert ir.footprint().accessor("inp").lo_dx == -2

    def test_replaced_ir_gets_fresh_result(self):
        ir = _ir(EscapeViaLocal())
        result = ir.absint()
        assert result.reads
        # drop the loop holding the read: the copy must not see the
        # original's facts
        body = [s for s in ir.body if not isinstance(s, ForRange)]
        rewritten = dataclasses.replace(ir, body=body)
        assert rewritten.absint() is not result
        assert rewritten.absint().reads == []
        assert ir.absint() is result

    @pytest.mark.requires_cc
    def test_cold_prepare_interprets_each_instance_once(self, monkeypatch):
        # lint, native gate and pow strength reduction all read the one
        # cached fixpoint of each IR instance
        from repro.graph.scheduler import prepare_graph
        from repro.lint import absint
        from repro.serve.planner import plan_request

        runs = []
        real = absint.interpret

        def counting(ir):
            runs.append(ir)
            return real(ir)

        monkeypatch.setattr(absint, "interpret", counting)
        plan = plan_request({"pipeline": "edge"},
                            random_image(128, 128, seed=1))
        prepared = prepare_graph(plan.graph, cache=CompilationCache(),
                                 workers=1, engine="auto")
        assert prepared.native_module is not None
        assert runs
        assert len(runs) == len({id(ir) for ir in runs})
