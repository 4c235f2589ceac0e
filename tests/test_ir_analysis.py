"""Instruction-mix estimation."""

import pytest

from repro.frontend import parse_kernel
from repro.ir import count_instruction_mix, typecheck_kernel
from repro.ir import nodes as N
from repro.types import FLOAT

from .helpers import (
    CopyKernel,
    IterationSpace,
    MaskConvolution,
    accessor_for,
    box_mask,
    build_image_pair,
)


def _ir(kernel_cls, *args, window=1):
    src, dst = build_image_pair()
    k = kernel_cls(IterationSpace(dst), accessor_for(src, window), *args)
    return typecheck_kernel(parse_kernel(k))


class TestInstructionMix:
    def test_point_op_small(self):
        mix = count_instruction_mix(_ir(CopyKernel).body)
        assert mix.global_reads == 1
        assert mix.sfu == 0
        assert mix.alu < 10

    def test_convolution_scales_with_taps(self):
        mix3 = count_instruction_mix(
            _ir(MaskConvolution, box_mask(3), 1, 1, window=3).body)
        mix5 = count_instruction_mix(
            _ir(MaskConvolution, box_mask(5), 2, 2, window=5).body)
        assert mix3.global_reads == 9
        assert mix5.global_reads == 25
        assert mix5.alu > mix3.alu

    def test_mask_reads_counted(self):
        mix = count_instruction_mix(
            _ir(MaskConvolution, box_mask(3), 1, 1, window=3).body)
        assert mix.mask_reads == 9

    def test_reads_by_accessor(self):
        mix = count_instruction_mix(
            _ir(MaskConvolution, box_mask(3), 1, 1, window=3).body)
        assert mix.reads_by_accessor == {"inp": 9}

    def test_sfu_weighted(self):
        body = [N.OutputWrite(N.Call("exp", (N.FloatConst(1.0, FLOAT),),
                                     FLOAT))]
        mix = count_instruction_mix(body)
        assert mix.sfu >= 10     # transcendental op costs > 10 ALU equiv

    def test_fma_fusion(self):
        # s = s + a*b should cost 1 op (FMA), not 2
        fma = [N.VarDecl("s", N.BinOp(
            "+", N.VarRef("s", FLOAT),
            N.BinOp("*", N.VarRef("a", FLOAT), N.VarRef("b", FLOAT),
                    FLOAT), FLOAT), FLOAT)]
        plain_add = [N.VarDecl("s", N.BinOp(
            "+", N.VarRef("s", FLOAT), N.VarRef("a", FLOAT), FLOAT),
            FLOAT)]
        assert count_instruction_mix(fma).alu == \
            count_instruction_mix(plain_add).alu

    def test_small_loops_get_unroll_credit(self):
        def loop_body(trips):
            return [N.ForRange("i", N.IntConst(0), N.IntConst(trips),
                               N.IntConst(1),
                               [N.VarDecl("t", N.FloatConst(1.0, FLOAT),
                                          FLOAT)])]
        small = count_instruction_mix(loop_body(8))
        large = count_instruction_mix(loop_body(640))
        # the large loop pays ~2 control ops per iteration; the small one
        # is modelled as unrolled
        assert large.alu / 640 > small.alu / 8

    def test_branches_charge_worst_arm(self):
        heavy = [N.Call("exp", (N.FloatConst(1.0, FLOAT),), FLOAT)]
        body = [
            N.If(N.BoolConst(True, None),
                 [N.VarDecl("a", heavy[0], FLOAT)],
                 [N.VarDecl("b", N.FloatConst(0.0, FLOAT), FLOAT)]),
            N.OutputWrite(N.FloatConst(0.0, FLOAT)),
        ]
        mix = count_instruction_mix(body)
        assert mix.sfu >= 10     # the expensive arm is charged

    def test_scaled_and_add(self):
        mix = count_instruction_mix(_ir(CopyKernel).body)
        doubled = mix.scaled(2.0)
        assert doubled.global_reads == 2 * mix.global_reads
        doubled.add(mix)
        assert doubled.global_reads == 3 * mix.global_reads

    def test_unknown_trip_count_fallback(self):
        body = [N.ForRange("i", N.IntConst(0), N.VarRef("n"),
                           N.IntConst(1),
                           [N.VarDecl("t", N.FloatConst(1.0, FLOAT),
                                      FLOAT)])]
        mix_default = count_instruction_mix(body, unknown_trip_count=8)
        mix_more = count_instruction_mix(body, unknown_trip_count=16)
        assert mix_more.alu > mix_default.alu


class TestOptimizedMix:
    """The device-compiler model (CSE + LICM) must shrink redundancy."""

    def test_bilateral_read_dedup(self):
        from repro.evaluation.variants import _bilateral_ir
        from repro.ir.optimize import optimize_for_device

        ir = _bilateral_ir(False, "clamp", 3, 5.0)
        raw = count_instruction_mix(ir.body)
        opt = count_instruction_mix(optimize_for_device(ir).body)
        # 3 syntactic reads per tap -> 1 shared read + hoisted centre
        assert raw.global_reads == 3 * 169
        assert opt.global_reads == 169 + 1

    def test_licm_hoists_row_invariant_exp(self):
        from repro.evaluation.variants import _bilateral_ir
        from repro.ir.optimize import optimize_for_device

        ir = _bilateral_ir(False, "clamp", 3, 5.0)
        raw = count_instruction_mix(ir.body)
        opt = count_instruction_mix(optimize_for_device(ir).body)
        # 3 exps per tap -> 2 per tap + 1 per row
        assert raw.sfu == pytest.approx(3 * 169 * raw.sfu / (3 * 169))
        assert opt.sfu < raw.sfu * 0.75
