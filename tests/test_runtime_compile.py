"""End-to-end compilation driver: compile_kernel and CompiledKernel."""

import numpy as np
import pytest

from repro import (
    Boundary,
    BorderMode,
    MaskMemory,
    compile_kernel,
    get_device,
)
from repro.errors import DslError

from .helpers import (
    AddUniform,
    CopyKernel,
    GeneratorKernel,
    IterationSpace,
    MaskConvolution,
    accessor_for,
    box_mask,
    build_image_pair,
    random_image,
)


def _kernel(width=32, height=32, window=3, mode=Boundary.CLAMP, seed=0):
    data = random_image(width, height, seed=seed)
    src, dst = build_image_pair(width, height, data=data)
    k = MaskConvolution(IterationSpace(dst),
                        accessor_for(src, window, mode),
                        box_mask(window), window // 2, window // 2)
    return k, data, dst


class TestCompile:
    def test_defaults(self):
        k, _, _ = _kernel()
        compiled = compile_kernel(k)
        assert compiled.device.name == "Tesla C2050"
        assert compiled.source.backend == "cuda"
        assert compiled.options.border == BorderMode.SPECIALIZED
        assert compiled.window == (3, 3)

    def test_device_by_alias(self):
        k, _, _ = _kernel()
        compiled = compile_kernel(k, device="hd6970", backend="opencl")
        assert compiled.device.name == "Radeon HD 6970"

    def test_device_by_spec(self):
        k, _, _ = _kernel()
        compiled = compile_kernel(k, device=get_device("quadro"))
        assert compiled.device.name == "Quadro FX 5800"

    def test_backend_mismatch_rejected(self):
        k, _, _ = _kernel()
        with pytest.raises(DslError):
            compile_kernel(k, backend="cuda", device="hd5870")

    def test_non_kernel_rejected(self):
        with pytest.raises(DslError):
            compile_kernel("nope")

    def test_algorithm2_runs_when_block_unset(self):
        k, _, _ = _kernel()
        compiled = compile_kernel(k)
        assert compiled.selected_occupancy > 0
        bx, by = compiled.options.block
        assert (bx * by) % 32 == 0

    def test_explicit_block_respected(self):
        k, _, _ = _kernel()
        compiled = compile_kernel(k, block=(64, 2))
        assert compiled.options.block == (64, 2)
        assert compiled.selected_occupancy == 0.0   # heuristic skipped

    def test_optdb_texture_decision_used(self):
        k, _, _ = _kernel()
        compiled = compile_kernel(k, device="quadro")
        # micro-benchmarks find texture beneficial on GT200
        assert compiled.options.use_texture

    def test_texture_override(self):
        k, _, _ = _kernel()
        compiled = compile_kernel(k, device="quadro", use_texture=False)
        assert not compiled.options.use_texture

    def test_undefined_mode_skips_border_codegen(self):
        k, _, _ = _kernel(mode=Boundary.UNDEFINED)
        compiled = compile_kernel(k, device="quadro")
        assert compiled.options.border == BorderMode.NONE
        assert compiled.source.num_variants == 1

    def test_border_as_string(self):
        k, _, _ = _kernel()
        compiled = compile_kernel(k, border="inline")
        assert compiled.options.border == BorderMode.INLINE

    def test_mask_memory_as_string(self):
        k, _, _ = _kernel()
        compiled = compile_kernel(k, mask_memory="constant")
        assert compiled.options.mask_memory == MaskMemory.CONSTANT

    def test_code_properties(self):
        k, _, _ = _kernel()
        cu = compile_kernel(k, backend="cuda")
        assert "__global__" in cu.cuda_code
        with pytest.raises(ValueError):
            cu.opencl_code
        cl = compile_kernel(k, backend="opencl")
        assert "__kernel" in cl.opencl_code
        with pytest.raises(ValueError):
            cl.cuda_code


class TestExecute:
    def test_execute_writes_output(self):
        from scipy.ndimage import correlate
        k, data, dst = _kernel()
        compile_kernel(k).execute()
        ref = correlate(data, np.full((3, 3), 1 / 9, np.float32),
                        mode="nearest")
        np.testing.assert_allclose(dst.get_data(), ref, atol=1e-5)

    def test_report_contents(self):
        k, _, _ = _kernel()
        report = compile_kernel(k).execute()
        assert report.time_ms > 0
        assert report.launch.pixels_written == 32 * 32
        assert report.launch.estimated_ms == report.timing.total_ms

    def test_kernel_execute_shortcut(self):
        k, data, dst = _kernel(seed=3)
        report = k.execute(device="Tesla C2050", backend="cuda")
        assert report.time_ms > 0
        assert dst.get_data().any()

    def test_estimate_time_overrides(self):
        k, _, _ = _kernel()
        compiled = compile_kernel(k)
        base = compiled.estimate_time()
        double = compiled.estimate_time(framework_overhead=2.0)
        # launch overhead dominates tiny images; compare the execution
        # component, which the framework factor multiplies
        assert (double.total_ms - double.launch_ms) == pytest.approx(
            2.0 * (base.total_ms - base.launch_ms), rel=0.01)

    def test_rerun_after_input_update(self):
        k, data, dst = _kernel()
        compiled = compile_kernel(k)
        compiled.execute()
        first = dst.get_data()
        acc = next(iter(compiled.accessors.values()))
        acc.image.set_data(data * np.float32(2.0))
        compiled.execute()
        np.testing.assert_allclose(dst.get_data(), first * 2.0,
                                   rtol=1e-5)

    def test_backend_equivalence(self):
        """CUDA and OpenCL compilations must produce identical pixels."""
        k1, data, d1 = _kernel(seed=7)
        k2, _, d2 = _kernel(seed=7)
        compile_kernel(k1, backend="cuda").execute()
        compile_kernel(k2, backend="opencl").execute()
        np.testing.assert_array_equal(d1.get_data(), d2.get_data())

    def test_uniform_param_flows_to_execution(self):
        data = random_image(16, 16, seed=9)
        src, dst = build_image_pair(16, 16, data=data)
        k = AddUniform(IterationSpace(dst), accessor_for(src), 3.25)
        compile_kernel(k).execute()
        np.testing.assert_allclose(dst.get_data(),
                                   data + np.float32(3.25), rtol=1e-6)

    def test_point_operator_pipeline(self):
        data = random_image(16, 16, seed=10)
        src, dst = build_image_pair(16, 16, data=data)
        k = CopyKernel(IterationSpace(dst), accessor_for(src))
        compiled = compile_kernel(k)
        compiled.execute()
        np.testing.assert_array_equal(dst.get_data(), data)

    def test_generator_kernel_without_accessors(self):
        """Pure generator kernels (no inputs) compile and execute."""
        import numpy as np
        from repro import Image

        dst = Image(16, 12)
        k = GeneratorKernel(IterationSpace(dst))
        compiled = compile_kernel(k, use_texture=False)
        compiled.execute()
        yy, xx = np.mgrid[0:12, 0:16].astype(np.float32)
        ref = xx * np.float32(0.01) + yy * np.float32(0.1)
        np.testing.assert_allclose(dst.get_data(), ref, atol=1e-6)
        assert compiled.source.num_variants == 1

    def test_dominant_boundary_mode(self):
        k, _, _ = _kernel(mode=Boundary.MIRROR)
        assert compile_kernel(k).dominant_boundary_mode() == \
            Boundary.MIRROR
        k2, _, _ = _kernel(mode=Boundary.UNDEFINED)
        assert compile_kernel(k2, device="quadro") \
            .dominant_boundary_mode() == Boundary.UNDEFINED


class TestStageTimingsSchema:
    """Fresh and cache-hit compiles emit the identical timings schema.

    Historically the cache-hit early return carried only
    ``lint_ms``/``cache_lookup_ms``/``total_ms`` while the fresh path
    carried the codegen stages and neither carried the other's keys, so
    consumers summing stages against ``total_ms`` silently disagreed
    between the two paths.  Every compile now normalizes onto
    :data:`repro.obs.TIMING_KEYS` with skipped stages present as 0.0.
    """

    def test_fresh_and_cached_share_one_schema(self):
        from repro import CompilationCache
        from repro.obs import TIMING_KEYS, stage_sum_ms

        cache = CompilationCache()
        fresh = compile_kernel(_kernel()[0], cache=cache)
        cached = compile_kernel(_kernel()[0], cache=cache)
        assert not fresh.from_cache and cached.from_cache
        assert set(fresh.stage_timings) == set(TIMING_KEYS)
        assert set(cached.stage_timings) == set(TIMING_KEYS)
        for compiled in (fresh, cached):
            timings = compiled.stage_timings
            assert all(v >= 0.0 for v in timings.values())
            assert stage_sum_ms(timings) <= timings["total_ms"] + 0.05
        # codegen never ran on the hit — present, but zero
        assert cached.stage_timings["codegen_final_ms"] == 0.0
        assert cached.stage_timings["select_ms"] == 0.0
        assert fresh.stage_timings["codegen_final_ms"] > 0.0
        assert cached.stage_timings["cache_lookup_ms"] >= 0.0

    def test_uncached_compile_is_normalized_too(self):
        from repro.obs import TIMING_KEYS

        timings = compile_kernel(_kernel()[0]).stage_timings
        assert set(timings) == set(TIMING_KEYS)
        # no cache attached: lookup/store are schema-present zeros
        assert timings["cache_lookup_ms"] == 0.0
        assert timings["store_ms"] == 0.0
        assert timings["frontend_ms"] > 0.0

    def test_timings_property_aliases_stage_timings(self):
        compiled = compile_kernel(_kernel()[0])
        assert compiled.timings == compiled.stage_timings
