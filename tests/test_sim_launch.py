"""Launch simulation: region-specialised execution must equal the
whole-image reference for every mode/geometry — the correctness claim
behind the paper's nine-region optimisation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Boundary, BorderMode, CodegenOptions
from repro.backends.border import Side
from repro.errors import DeviceFault, LaunchError
from repro.frontend import parse_kernel
from repro.frontend.parser import accessor_objects
from repro.hwmodel import get_device
from repro.ir import typecheck_kernel
from repro.obs.trace import tracing
from repro.sim.executor import evaluate_body, execute_pixels, sample_accessor
from repro.sim.launch import _region_sides, simulate_launch
from repro.sim.reference import execute_reference

from .helpers import (
    CopyKernel,
    IterationSpace,
    MaskConvolution,
    ShiftRead,
    accessor_for,
    box_mask,
    build_image_pair,
    random_image,
)


def _setup(width, height, window, mode, seed=0, constant=0.25):
    data = random_image(width, height, seed=seed)
    src, dst = build_image_pair(width, height, data=data)
    k = MaskConvolution(IterationSpace(dst),
                        accessor_for(src, window, mode, constant),
                        box_mask(window), window // 2, window // 2)
    ir = typecheck_kernel(parse_kernel(k))
    return k, ir, dst


MODES = [Boundary.CLAMP, Boundary.MIRROR, Boundary.REPEAT,
         Boundary.CONSTANT]


class TestRegionSpecialisationCorrectness:
    @pytest.mark.parametrize("mode", MODES)
    def test_specialized_equals_reference(self, mode):
        k, ir, dst = _setup(40, 28, 5, mode)
        options = CodegenOptions(backend="cuda", block=(16, 4),
                                 border=BorderMode.SPECIALIZED)
        result = simulate_launch(ir, accessor_objects(k),
                                 k.iteration_space, options,
                                 get_device("tesla"))
        ref = execute_reference(ir, accessor_objects(k), 40, 28)
        np.testing.assert_array_equal(dst.get_data(), ref)
        assert result.pixels_written == 40 * 28

    @pytest.mark.parametrize("mode", MODES)
    def test_inline_equals_specialized(self, mode):
        k, ir, dst = _setup(33, 19, 3, mode, seed=4)
        accs = accessor_objects(k)
        dev = get_device("tesla")
        simulate_launch(ir, accs, k.iteration_space,
                        CodegenOptions(backend="cuda", block=(8, 4),
                                       border=BorderMode.SPECIALIZED),
                        dev)
        spec = dst.get_data()
        simulate_launch(ir, accs, k.iteration_space,
                        CodegenOptions(backend="cuda", block=(8, 4),
                                       border=BorderMode.INLINE), dev)
        np.testing.assert_array_equal(spec, dst.get_data())

    @settings(max_examples=20, deadline=None)
    @given(
        width=st.integers(9, 36),
        height=st.integers(9, 36),
        bx=st.sampled_from([8, 16, 32]),
        by=st.sampled_from([1, 2, 4, 8]),
        mode=st.sampled_from(MODES),
        window=st.sampled_from([3, 5, 7]),
    )
    def test_property_specialized_equals_reference(self, width, height,
                                                   bx, by, mode, window):
        k, ir, dst = _setup(width, height, window, mode, seed=1)
        options = CodegenOptions(backend="cuda", block=(bx, by),
                                 border=BorderMode.SPECIALIZED)
        simulate_launch(ir, accessor_objects(k), k.iteration_space,
                        options, get_device("tesla"))
        ref = execute_reference(ir, accessor_objects(k), width, height)
        np.testing.assert_array_equal(dst.get_data(), ref)

    def test_degenerate_layout_still_correct(self):
        # window wider than the whole image: degenerate single region
        k, ir, dst = _setup(10, 10, 7, Boundary.MIRROR)
        options = CodegenOptions(backend="cuda", block=(8, 8),
                                 border=BorderMode.SPECIALIZED)
        result = simulate_launch(ir, accessor_objects(k),
                                 k.iteration_space, options,
                                 get_device("tesla"))
        assert result.layout.degenerate
        ref = execute_reference(ir, accessor_objects(k), 10, 10)
        np.testing.assert_array_equal(dst.get_data(), ref)

    def test_iteration_space_offset_respected(self):
        data = random_image(24, 24, seed=2)
        src, dst = build_image_pair(24, 24, data=data)
        space = IterationSpace(dst, 10, 8, offset_x=4, offset_y=6)
        k = MaskConvolution(space, accessor_for(src, 3, Boundary.CLAMP),
                            box_mask(3), 1, 1)
        ir = typecheck_kernel(parse_kernel(k))
        options = CodegenOptions(backend="cuda", block=(8, 2))
        result = simulate_launch(ir, accessor_objects(k), space, options,
                                 get_device("tesla"))
        assert result.pixels_written == 80
        out = dst.get_data()
        # untouched pixels remain zero
        assert np.all(out[:6, :] == 0)
        assert np.all(out[:, :4] == 0)
        assert np.any(out[6:14, 4:14] != 0)


class TestLaunchValidation:
    def test_block_exceeding_device_raises(self):
        k, ir, _ = _setup(16, 16, 3, Boundary.CLAMP)
        options = CodegenOptions(backend="cuda", block=(1024, 2))
        with pytest.raises(LaunchError):
            simulate_launch(ir, accessor_objects(k), k.iteration_space,
                            options, get_device("tesla"))

    def test_amd_does_not_run_cuda(self):
        k, ir, _ = _setup(16, 16, 3, Boundary.CLAMP)
        options = CodegenOptions(backend="cuda", block=(32, 2))
        with pytest.raises(LaunchError):
            simulate_launch(ir, accessor_objects(k), k.iteration_space,
                            options, get_device("hd5870"))

    def test_excess_registers_raise(self):
        k, ir, _ = _setup(16, 16, 3, Boundary.CLAMP)
        options = CodegenOptions(backend="cuda", block=(128, 1))
        with pytest.raises(LaunchError):
            simulate_launch(ir, accessor_objects(k), k.iteration_space,
                            options, get_device("tesla"),
                            regs_per_thread=200)

    def test_undefined_oob_faults_on_tesla(self):
        k, ir, _ = _setup(16, 16, 3, Boundary.UNDEFINED)
        options = CodegenOptions(backend="cuda", block=(8, 2),
                                 border=BorderMode.NONE)
        with pytest.raises(DeviceFault):
            simulate_launch(ir, accessor_objects(k), k.iteration_space,
                            options, get_device("tesla"))

    def test_undefined_oob_tolerated_on_quadro(self):
        k, ir, dst = _setup(16, 16, 3, Boundary.UNDEFINED)
        options = CodegenOptions(backend="cuda", block=(8, 2),
                                 border=BorderMode.NONE)
        result = simulate_launch(ir, accessor_objects(k),
                                 k.iteration_space, options,
                                 get_device("quadro"))
        assert result.pixels_written == 256

    def test_memory_padding_applied(self):
        k, ir, _ = _setup(17, 16, 3, Boundary.CLAMP)
        options = CodegenOptions(backend="cuda", block=(8, 2))
        simulate_launch(ir, accessor_objects(k), k.iteration_space,
                        options, get_device("tesla"))
        acc = next(iter(accessor_objects(k).values()))
        # Fermi: 128-byte segments = 32 floats -> stride padded to 32
        assert acc.image.stride == 32

    def test_occupancy_reported(self):
        k, ir, _ = _setup(32, 32, 3, Boundary.CLAMP)
        options = CodegenOptions(backend="cuda", block=(32, 6))
        result = simulate_launch(ir, accessor_objects(k),
                                 k.iteration_space, options,
                                 get_device("tesla"))
        assert result.occupancy.occupancy == 1.0
        assert result.grid == (1, 6)


class TestViewReadsMatchGather:
    """A launch hands the executor broadcast index vectors, so in-image
    reads become slices; they must be byte-identical to the gather a full
    index grid takes."""

    ALL_MODES = MODES + [Boundary.UNDEFINED]
    #: window offsets escaping the image on each side and at each corner
    SHIFTS = [(-3, 0), (3, 0), (0, -3), (0, 3), (-3, -2), (3, 2),
              (2, -3), (-1, 1)]

    @staticmethod
    def _gathered_launch(ir, accs, layout, options, width, height):
        """simulate_launch's region loop fed full index grids."""
        bx, by = options.block
        expected = np.zeros((height, width), ir.pixel_type.np_dtype)
        for region in layout.regions:
            x0, x1 = region.bx_lo * bx, min(region.bx_hi * bx, width)
            y0, y1 = region.by_lo * by, min(region.by_hi * by, height)
            if x1 <= x0 or y1 <= y0:
                continue
            gx, gy = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
            expected[y0:y1, x0:x1] = execute_pixels(
                ir, accs, gx, gy, _region_sides(options, region))
        return expected

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("border", [BorderMode.SPECIALIZED,
                                        BorderMode.INLINE])
    @pytest.mark.parametrize("shift", SHIFTS)
    def test_launch_equals_gather(self, mode, border, shift):
        width, height = 29, 19
        data = random_image(width, height, seed=7)
        src, dst = build_image_pair(width, height, data=data)
        # a plain Accessor declares no window: parse with a windowed one
        # so the launch has a halo, then run on plain accessors
        declared = Boundary.CONSTANT if mode == Boundary.UNDEFINED \
            else mode
        k = ShiftRead(IterationSpace(dst),
                      accessor_for(src, 7, declared, 0.25), *shift)
        ir = typecheck_kernel(parse_kernel(k))
        accs = accessor_objects(k)
        if mode == Boundary.UNDEFINED:
            accs = {name: accessor_for(src) for name in accs}
        options = CodegenOptions(backend="cuda", block=(8, 4),
                                 border=border)
        result = simulate_launch(ir, accs, k.iteration_space, options,
                                 get_device("quadro"))
        expected = self._gathered_launch(ir, accs, result.layout, options,
                                         width, height)
        assert dst.get_data().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("faults", [False, True])
    def test_every_side_combination_equals_gather(self, mode, faults):
        """Rectangles escaping low, high or neither side of each axis,
        under every pair of guarded sides: the vector read returns the
        grid read's bytes, or raises what it raises."""
        data = random_image(9, 7, seed=5)
        src = build_image_pair(9, 7, data=data)[0]
        acc = accessor_for(src, 3, mode, 0.25)
        sides = [Side.NONE, Side.LO, Side.HI, Side.BOTH]
        for x0, y0 in itertools.product((-3, 2, 6), (-2, 1, 5)):
            xs, ys = np.arange(x0, x0 + 5), np.arange(y0, y0 + 4)
            gx, gy = np.meshgrid(xs, ys)
            for side_x, side_y in itertools.product(sides, sides):
                args = (side_x, side_y, faults)
                try:
                    want = sample_accessor(acc, gx, gy, *args)
                except (IndexError, DeviceFault) as exc:
                    with pytest.raises(type(exc)):
                        sample_accessor(acc, xs[None, :], ys[:, None],
                                        *args)
                    continue
                got = sample_accessor(acc, xs[None, :], ys[:, None], *args)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_interior_read_is_a_view(self, mode):
        data = random_image(12, 10, seed=1)
        src = build_image_pair(12, 10, data=data)[0]
        acc = accessor_for(src, 3, mode, 0.25)
        ix = np.arange(2, 9)[None, :]
        iy = np.arange(1, 8)[:, None]
        for sides in ((Side.NONE, Side.NONE), (Side.BOTH, Side.BOTH)):
            got = sample_accessor(acc, ix, iy, *sides, True)
            assert np.shares_memory(got, src.pixels)
            np.testing.assert_array_equal(got, data[1:8, 2:9])

    def test_border_read_gathers(self):
        data = random_image(12, 10, seed=1)
        src = build_image_pair(12, 10, data=data)[0]
        acc = accessor_for(src, 3, Boundary.CLAMP)
        ix = np.arange(-1, 5)[None, :]
        iy = np.arange(0, 4)[:, None]
        got = sample_accessor(acc, ix, iy, Side.LO, Side.NONE, False)
        assert not np.shares_memory(got, src.pixels)
        np.testing.assert_array_equal(got[:, 0], data[0:4, 0])

    def test_permuted_vector_gathers(self):
        # in range with run-like endpoints, but not a run
        data = random_image(12, 10, seed=1)
        src = build_image_pair(12, 10, data=data)[0]
        ix = np.array([[0, 2, 1, 3]])
        iy = np.arange(4, 7)[:, None]
        got = sample_accessor(accessor_for(src), ix, iy, Side.NONE,
                              Side.NONE, True)
        np.testing.assert_array_equal(got, data[iy, ix])

    def test_output_never_aliases_input(self):
        data = random_image(12, 10, seed=2)
        src, dst = build_image_pair(12, 10, data=data)
        k = CopyKernel(IterationSpace(dst), accessor_for(src))
        ir = typecheck_kernel(parse_kernel(k))
        out = evaluate_body(ir, accessor_objects(k),
                            np.arange(12)[None, :], np.arange(10)[:, None],
                            Side.NONE, Side.NONE)
        assert not np.shares_memory(out, src.pixels)
        np.testing.assert_array_equal(out, data)

    def test_evaluate_span_counts_region_pixels(self):
        k, ir, _ = _setup(29, 19, 5, Boundary.MIRROR)
        options = CodegenOptions(backend="cuda", block=(8, 4),
                                 border=BorderMode.SPECIALIZED)
        with tracing() as tracer:
            result = simulate_launch(ir, accessor_objects(k),
                                     k.iteration_space, options,
                                     get_device("tesla"))
        pixels = [sp.attrs["pixels"] for sp in tracer.spans()
                  if sp.name == "sim.evaluate"]
        bx, by = options.block
        sizes = []
        for r in result.layout.regions:
            w = min(r.bx_hi * bx, 29) - r.bx_lo * bx
            h = min(r.by_hi * by, 19) - r.by_lo * by
            if w > 0 and h > 0:
                sizes.append(w * h)
        assert pixels == sizes
        assert sum(pixels) == result.pixels_written == 29 * 19
