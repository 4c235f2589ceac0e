"""Native end-to-end validation: generated C compiled with the system C
compiler and executed on real hardware, diffed against the Python
simulator.

The CPU backend shares the boundary helpers, region decomposition and
expression printer with the CUDA/OpenCL emitters, so agreement here
validates the whole lowering chain on real silicon.  Every kernel the
native gate admits runs as a one-node graph through
``assert_native_matches_sim`` (byte-identical, and asserted to have run
native); the two kernels the gate keeps on the simulator (``expf`` and
bilinear resampling) are compiled on their own and held to a tolerance.
"""

import numpy as np
import pytest

from repro import (
    Boundary,
    BoundaryCondition,
    Image,
    IterationSpace,
    Mask,
    PipelineGraph,
    compile_kernel,
)
from repro.filters.bilateral import make_bilateral
from repro.filters.gaussian import make_gaussian
from repro.filters.median import make_median
from repro.frontend.parser import accessor_objects, parse_kernel
from repro.ir.typecheck import typecheck_kernel

from .helpers import (
    AddUniform,
    BranchKernel,
    ConvolveSyntax,
    IntArithmetic,
    IntMaskConvolution,
    MaskConvolution,
    accessor_for,
    assert_native_matches_sim,
    box_mask,
    build_image_pair,
    random_image,
    run_c_kernel,
)

pytestmark = pytest.mark.requires_cc

MODES = [Boundary.CLAMP, Boundary.MIRROR, Boundary.REPEAT,
         Boundary.CONSTANT]


@pytest.fixture(autouse=True)
def native_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))


def _native_one_node(build_kernel):
    """Run the kernel built by *build_kernel* (-> ``(kernel, output)``)
    as a one-node graph through the simulator and the native engine,
    assert both byte-identical and that the node ran native; returns the
    native output."""
    outputs = []

    def build():
        kernel, out = build_kernel()
        outputs.append(out)
        g = PipelineGraph("one-node")
        g.add_kernel(kernel, name="kernel")
        g.mark_output(out)
        return g, out

    report = assert_native_matches_sim(build, workers=1)
    assert report.native_nodes == report.launches == 1
    return outputs[-1].get_data()


def _compiled_c(kernel, width, height):
    """The kernel's C lowering, compiled on its own and run."""
    ir = typecheck_kernel(parse_kernel(kernel))
    return run_c_kernel(ir, accessor_objects(kernel), width, height)


class TestNativeVsSimulator:
    @pytest.mark.parametrize("mode", MODES)
    def test_convolution_all_modes(self, mode):
        data = random_image(40, 32, seed=1)

        def build():
            src, dst = build_image_pair(40, 32, data=data)
            k = MaskConvolution(IterationSpace(dst),
                                accessor_for(src, 5, mode, 0.25),
                                box_mask(5), 2, 2)
            return k, dst

        _native_one_node(build)

    def test_bilateral(self):
        # exp() is not bit-exact between libm and NumPy: the gate keeps
        # the bilateral on the simulator, so its C is checked to tolerance
        data = random_image(48, 40, seed=2)
        k, _, _ = make_bilateral(48, 40, sigma_d=1, sigma_r=0.1,
                                 boundary=Boundary.MIRROR, data=data)
        native = _compiled_c(k, 48, 40)

        k2, _, out2 = make_bilateral(48, 40, sigma_d=1, sigma_r=0.1,
                                     boundary=Boundary.MIRROR, data=data)
        compile_kernel(k2, backend="cuda", device="quadro",
                       use_texture=False).execute()
        np.testing.assert_allclose(native, out2.get_data(), atol=2e-6)

    def test_median_network(self):
        data = random_image(24, 24, seed=3)

        def build():
            k, _, out = make_median(24, 24, boundary=Boundary.CLAMP,
                                    data=data)
            return k, out

        _native_one_node(build)

    def test_branch_kernel(self):
        data = random_image(20, 20, seed=4)

        def build():
            src, dst = build_image_pair(20, 20, data=data)
            return BranchKernel(IterationSpace(dst), accessor_for(src),
                                0.5), dst

        _native_one_node(build)

    def test_int_arithmetic_kernel(self):
        data = random_image(20, 20, seed=5)

        def build():
            src, dst = build_image_pair(20, 20, data=data)
            return IntArithmetic(IterationSpace(dst),
                                 accessor_for(src)), dst

        _native_one_node(build)

    def test_convolve_syntax_kernel(self):
        data = random_image(24, 20, seed=6)

        def build():
            src, dst = build_image_pair(24, 20, data=data)
            return ConvolveSyntax(IterationSpace(dst),
                                  accessor_for(src, 3), box_mask(3)), dst

        _native_one_node(build)

    def test_uniform_parameter(self):
        data = random_image(16, 16, seed=7)

        def build():
            src, dst = build_image_pair(16, 16, data=data)
            return AddUniform(IterationSpace(dst), accessor_for(src),
                              2.5), dst

        out = _native_one_node(build)
        np.testing.assert_allclose(out, data + np.float32(2.5),
                                   rtol=1e-6)

    def test_int32_mask_is_exact(self):
        # int32 pixels past 2^24 and an int32 mask: the products and
        # sums are exact integers, which a float-typed mask rounds
        rng = np.random.default_rng(13)
        data = rng.integers(2 ** 24, 2 ** 25, (16, 16), dtype=np.int32)
        coeffs = np.array([[1, 1, 1], [1, 3, 1], [1, 1, 1]], np.int32)

        def build():
            src, dst = build_image_pair(16, 16, data=data,
                                        pixel_type="int")
            mask = Mask(3, 3, pixel_type="int").set(coeffs)
            return IntMaskConvolution(
                IterationSpace(dst), accessor_for(src, 3, Boundary.CLAMP),
                mask, 1, 1), dst

        out = _native_one_node(build)
        padded = np.pad(data.astype(np.int64), 1, mode="edge")
        ref = sum(int(coeffs[dy, dx]) * padded[dy:dy + 16, dx:dx + 16]
                  for dy in range(3) for dx in range(3))
        np.testing.assert_array_equal(out, ref)

    def test_int32_constant_border_is_exact(self):
        # the border literal of an int32 accessor must be an integer: a
        # float one makes every guarded read a float expression, which
        # rounds a pixel past 2^24
        rng = np.random.default_rng(13)
        data = rng.integers(2 ** 24, 2 ** 25, (16, 16), dtype=np.int32)
        coeffs = np.array([[1, 1, 1], [1, 3, 1], [1, 1, 1]], np.int32)

        def build():
            src, dst = build_image_pair(16, 16, data=data,
                                        pixel_type="int")
            mask = Mask(3, 3, pixel_type="int").set(coeffs)
            return IntMaskConvolution(
                IterationSpace(dst),
                accessor_for(src, 3, Boundary.CONSTANT), mask, 1, 1), dst

        out = _native_one_node(build)
        padded = np.pad(data.astype(np.int64), 1)
        ref = sum(int(coeffs[dy, dx]) * padded[dy:dy + 16, dx:dx + 16]
                  for dy in range(3) for dx in range(3))
        np.testing.assert_array_equal(out, ref)

    def test_int32_mask_coefficients_are_exact(self):
        # a coefficient past 2^24 printed as a float literal rounds
        coeffs = np.full((3, 3), 2 ** 24 + 1, np.int32)

        def build():
            src, dst = build_image_pair(
                8, 8, data=np.ones((8, 8), np.int32), pixel_type="int")
            mask = Mask(3, 3, pixel_type="int").set(coeffs)
            return IntMaskConvolution(
                IterationSpace(dst), accessor_for(src, 3, Boundary.CLAMP),
                mask, 1, 1), dst

        out = _native_one_node(build)
        np.testing.assert_array_equal(out, np.full((8, 8), 9 * (2 ** 24 + 1)))

    @pytest.mark.parametrize("interpolation", ["nearest", "linear"])
    @pytest.mark.parametrize("mode", MODES)
    def test_interpolated_accessor_native(self, mode, interpolation):
        # floorf resampling drifts by ULPs: the gate keeps interpolated
        # accessors on the simulator, so the C is checked to tolerance
        # against the accessor's own sampling
        from repro.dsl.interpolate import InterpolatedAccessor
        from .helpers import CopyKernel

        data = random_image(10, 8, seed=8)
        img_in = Image(10, 8).set_data(data)
        img_out = Image(25, 19)
        bc = BoundaryCondition(img_in, 3, 3, mode, constant=0.25)
        acc = InterpolatedAccessor(bc, 25, 19, interpolation)
        k = CopyKernel(IterationSpace(img_out), acc)
        native = _compiled_c(k, 25, 19)
        oy, ox = np.mgrid[0:19, 0:25]
        ref = np.asarray(acc.sample(ox, oy), dtype=np.float32)
        np.testing.assert_allclose(native, ref, atol=2e-6)

    def test_gaussian_against_golden(self):
        from repro.filters.gaussian import gaussian_reference

        data = random_image(64, 64, seed=9)

        def build():
            k, _, out = make_gaussian(64, 64, size=3,
                                      boundary=Boundary.REPEAT, data=data)
            return k, out

        native = _native_one_node(build)
        ref = gaussian_reference(data, 3, boundary=Boundary.REPEAT)
        np.testing.assert_allclose(native, ref, atol=2e-6)
