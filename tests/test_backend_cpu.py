"""CPU (C99 + OpenMP) backend: loop-split boundary specialisation."""

import numpy as np
import pytest

from repro import Boundary, CodegenOptions, Mask
from repro.backends import generate
from repro.errors import CodegenError
from repro.evaluation.variants import _bilateral_ir
from repro.frontend import parse_kernel
from repro.ir import typecheck_kernel

from .helpers import (
    CopyKernel,
    IterationSpace,
    MaskConvolution,
    accessor_for,
    box_mask,
    build_image_pair,
)


def _gen(mode=Boundary.CLAMP, geometry=(512, 512), window=5, **opts):
    src, dst = build_image_pair(64, 64)
    k = MaskConvolution(IterationSpace(dst),
                        accessor_for(src, window, mode),
                        box_mask(window), window // 2, window // 2)
    ir = typecheck_kernel(parse_kernel(k))
    return generate(ir, CodegenOptions(backend="cpu", **opts),
                    launch_geometry=geometry)


def _nests(code):
    """(interior loop nests, border-frame loops) in *code*."""
    return code.count("for (int gid_y"), code.count("for (int y = 0")


def _bodies(code):
    """How many times the kernel body (its output write) is emitted."""
    return code.count("OUT[gid_y * OUT_stride + gid_x] =")


class TestStructure:
    def test_balanced_and_named(self):
        srcs = _gen()
        code = srcs.device_code
        assert code.count("{") == code.count("}")
        assert srcs.entry == "MaskConvolution_cpu"
        assert "void MaskConvolution_cpu(" in code

    def test_interior_is_parallel_and_unguarded(self):
        code = _gen().device_code
        interior = code.split("interior fast path")[1] \
            .split("// border frame")[0]
        assert "bh_" not in interior
        assert "_bpx(" not in interior
        assert "#pragma omp parallel for" in interior

    def test_interior_nest_plus_one_border_loop(self):
        src = _gen()
        code = src.device_code
        assert _nests(code) == (1, 1)
        assert src.num_variants == 2
        assert "static __attribute__((noinline, cold)) void " \
            "MaskConvolution_bpx(" in code
        # the kernel body: once in the interior nest, once in the
        # border function — not once per border strip
        assert _bodies(code) == 2

    def test_border_function_uses_two_sided_helpers(self):
        code = _gen(mode=Boundary.MIRROR).device_code
        bpx = code.split("MaskConvolution_bpx(")[1] \
            .split("void MaskConvolution_cpu(")[0]
        assert "bh_mirror(" in bpx
        assert "bh_mirror_lo(" not in bpx and "bh_mirror_hi(" not in bpx

    def test_degenerate_layout_runs_every_pixel_through_border(self):
        # 13x13 window over a 5x40 space: the border strips overlap
        src = _gen(geometry=(5, 40), window=13)
        code = src.device_code
        assert _nests(code) == (0, 1)
        assert src.num_variants == 1
        assert "x == " not in code          # nothing to skip
        assert _bodies(code) == 1

    def test_pixel_exact_border_frame(self):
        # 5x5 window over 512x512 -> a 2-pixel frame around a
        # 508x508 interior
        code = _gen().device_code
        assert "x in 2..510-1, y in 2..510-1" in code
        border = code.split("// border frame")[1]
        assert "for (int y = 0; y < 512; ++y)" in border
        assert "const int skip = (y >= 2 && y < 510) ? 508 : 0;" in border
        assert "for (int x = 0; x < 512; ++x)" in border
        assert "if (x == 2) x += skip;" in border

    def test_constant_mode_predicated(self):
        code = _gen(mode=Boundary.CONSTANT).device_code
        assert "? 0.0f :" in code

    @pytest.mark.parametrize("pixel_type", ["float", "int", "double"])
    def test_masks_are_static_const(self, pixel_type):
        # declared in the mask's own type: an int mask held in float
        # rounds the products of int pixels past 2^24
        src, dst = build_image_pair(16, 16)
        mask = Mask(5, 5, pixel_type=pixel_type).set(np.ones((5, 5)))
        k = MaskConvolution(IterationSpace(dst),
                            accessor_for(src, 5, Boundary.CLAMP), mask,
                            2, 2)
        ir = typecheck_kernel(parse_kernel(k))
        code = generate(ir, CodegenOptions(backend="cpu"),
                        launch_geometry=(16, 16)).device_code
        assert f"static const {pixel_type} _constcmask[25] = {{ " in code

    def test_restrict_qualifiers(self):
        code = _gen().device_code
        assert "float * restrict OUT" in code
        assert "const float * restrict inp" in code

    def test_bilateral_regions(self):
        ir = _bilateral_ir(True, "clamp", 3, 5.0)
        src = generate(ir, CodegenOptions(backend="cpu"),
                       launch_geometry=(4096, 4096))
        assert src.num_variants == 2 == sum(_nests(src.device_code))
        assert _bodies(src.device_code) == 2
        assert "expf(" in src.device_code

    def test_point_operator_single_nest(self):
        src_img, dst = build_image_pair(16, 16)
        k = CopyKernel(IterationSpace(dst), accessor_for(src_img))
        ir = typecheck_kernel(parse_kernel(k))
        code = generate(ir, CodegenOptions(backend="cpu"),
                        launch_geometry=(16, 16))
        assert _nests(code.device_code) == (1, 0)
        assert code.num_variants == 1
        assert "_bpx" not in code.device_code
        assert _bodies(code.device_code) == 1


class TestValidation:
    def test_requires_geometry(self):
        src, dst = build_image_pair(16, 16)
        k = CopyKernel(IterationSpace(dst), accessor_for(src))
        ir = typecheck_kernel(parse_kernel(k))
        with pytest.raises(CodegenError, match="geometry"):
            generate(ir, CodegenOptions(backend="cpu"))

    def test_gpu_only_options_rejected(self):
        for kwargs in (dict(use_texture=True), dict(use_smem=True),
                       dict(vectorize=4)):
            with pytest.raises(CodegenError):
                CodegenOptions(backend="cpu", **kwargs).validate()

    def test_global_masks_rejected(self):
        with pytest.raises(CodegenError, match="global-memory mask"):
            CodegenOptions(backend="cpu", mask_memory="global").validate()

    def test_mask_without_coefficients_rejected(self):
        # a zero-filled array would convolve with zeros; the simulator
        # refuses the same kernel
        src, dst = build_image_pair(16, 16)
        k = MaskConvolution(IterationSpace(dst),
                            accessor_for(src, 3, Boundary.CLAMP),
                            Mask(3, 3), 1, 1)
        ir = typecheck_kernel(parse_kernel(k))
        with pytest.raises(CodegenError, match="cmask.*no coefficients"):
            generate(ir, CodegenOptions(backend="cpu"),
                     launch_geometry=(16, 16))

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(CodegenError):
            CodegenOptions(backend="metal").validate()
