"""Shared kernel classes and builders for the test suite.

Kernel bodies must live in a real source file for the frontend to parse
them (``inspect.getsource``), so every kernel class used by more than one
test module is defined here.
"""

from __future__ import annotations

import random

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
    Reduce,
    Uniform,
)


class CopyKernel(Kernel):
    """Identity point operator."""

    def __init__(self, iteration_space, inp):
        super().__init__(iteration_space)
        self.inp = inp
        self.add_accessor(inp)

    def kernel(self):
        self.output(self.inp(0, 0))


class AddScalar(Kernel):
    """Point operator with a baked scalar parameter."""

    def __init__(self, iteration_space, inp, value):
        super().__init__(iteration_space)
        self.inp = inp
        self.value = float(value)
        self.add_accessor(inp)

    def kernel(self):
        self.output(self.inp(0, 0) + self.value)


class AddUniform(Kernel):
    """Point operator with a runtime (non-baked) scalar parameter."""

    def __init__(self, iteration_space, inp, value):
        super().__init__(iteration_space)
        self.inp = inp
        self.value = Uniform(float(value), float)
        self.add_accessor(inp)

    def kernel(self):
        self.output(self.inp(0, 0) + self.value)


class ShiftRead(Kernel):
    """Reads a fixed offset — minimal local operator."""

    def __init__(self, iteration_space, inp, dx, dy):
        super().__init__(iteration_space)
        self.inp = inp
        self.dx = int(dx)
        self.dy = int(dy)
        self.add_accessor(inp)

    def kernel(self):
        self.output(self.inp(self.dx, self.dy))


class MaskConvolution(Kernel):
    """Generic odd-window convolution with explicit loops."""

    def __init__(self, iteration_space, inp, mask, rx, ry):
        super().__init__(iteration_space)
        self.inp = inp
        self.cmask = mask
        self.rx = int(rx)
        self.ry = int(ry)
        self.add_accessor(inp)

    def kernel(self):
        s = 0.0
        for dy in range(-self.ry, self.ry + 1):
            for dx in range(-self.rx, self.rx + 1):
                s += self.cmask(dx, dy) * self.inp(dx, dy)
        self.output(s)


class IntMaskConvolution(Kernel):
    """Convolution with an integer accumulator: in an int32 pipeline
    every product and sum is exact, so a mask held in float shows."""

    def __init__(self, iteration_space, inp, mask, rx, ry):
        super().__init__(iteration_space)
        self.inp = inp
        self.cmask = mask
        self.rx = int(rx)
        self.ry = int(ry)
        self.add_accessor(inp)

    def kernel(self):
        s = 0
        for dy in range(-self.ry, self.ry + 1):
            for dx in range(-self.rx, self.rx + 1):
                s += self.cmask(dx, dy) * self.inp(dx, dy)
        self.output(s)


class ConvolveSyntax(Kernel):
    """Same convolution via the Section-VIII convolve() lambda syntax."""

    def __init__(self, iteration_space, inp, mask):
        super().__init__(iteration_space)
        self.inp = inp
        self.cmask = mask
        self.add_accessor(inp)

    def kernel(self):
        self.output(self.convolve(self.cmask, Reduce.SUM,
                                  lambda: self.cmask()
                                  * self.inp(self.cmask)))


class MinReduce(Kernel):
    """Neighbourhood minimum via convolve(..., Reduce.MIN, ...)."""

    def __init__(self, iteration_space, inp, mask):
        super().__init__(iteration_space)
        self.inp = inp
        self.dmask = mask
        self.add_accessor(inp)

    def kernel(self):
        self.output(self.convolve(self.dmask, Reduce.MIN,
                                  lambda: self.inp(self.dmask)))


class BranchKernel(Kernel):
    """Divergent if/else over pixel values."""

    def __init__(self, iteration_space, inp, threshold):
        super().__init__(iteration_space)
        self.inp = inp
        self.threshold = float(threshold)
        self.add_accessor(inp)

    def kernel(self):
        v = self.inp(0, 0)
        # declarations are block-scoped (C semantics): declare before
        # branching when the value is needed after the join
        r = 0.0
        if v > self.threshold:
            r = v * 2.0
        else:
            r = v * 0.5
        self.output(r)


class GeneratorKernel(Kernel):
    """Kernel with no accessors: writes a ramp from x()/y() alone."""

    def __init__(self, iteration_space):
        super().__init__(iteration_space)

    def kernel(self):
        self.output(float(self.x()) * 0.01 + float(self.y()) * 0.1)


class PositionKernel(Kernel):
    """Uses self.x()/self.y() coordinates."""

    def __init__(self, iteration_space, inp):
        super().__init__(iteration_space)
        self.inp = inp
        self.add_accessor(inp)

    def kernel(self):
        self.output(self.inp(0, 0) + float(self.x()) * 0.001
                    + float(self.y()) * 0.002)


class TwoInputKernel(Kernel):
    """Point operator over two accessors."""

    def __init__(self, iteration_space, a, b):
        super().__init__(iteration_space)
        self.a = a
        self.b = b
        self.add_accessor(a)
        self.add_accessor(b)

    def kernel(self):
        self.output(self.a(0, 0) - self.b(0, 0))


class IntArithmetic(Kernel):
    """Integer division/modulo semantics (C truncation)."""

    def __init__(self, iteration_space, inp):
        super().__init__(iteration_space)
        self.inp = inp
        self.add_accessor(inp)

    def kernel(self):
        ix = self.x() - 5
        q = ix / 3
        r = ix % 3
        self.output(self.inp(0, 0) + float(q) + 0.125 * float(r))


def build_image_pair(width=16, height=16, data=None, pixel_type=float):
    src = Image(width, height, pixel_type)
    dst = Image(width, height, pixel_type)
    if data is not None:
        src.set_data(data)
    return src, dst


def accessor_for(image, window=1, mode=Boundary.CLAMP, constant=0.0):
    """Accessor with boundary handling (or without, mode=UNDEFINED)."""
    if mode == Boundary.UNDEFINED or window == 1:
        return Accessor(image)
    bc = BoundaryCondition(image, window, window, mode, constant=constant)
    return Accessor(bc)


def box_mask(size, dtype=np.float32):
    return Mask(size, size).set(
        np.full((size, size), 1.0 / (size * size), dtype))


def random_image(width=16, height=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((height, width)).astype(np.float32)


@pytest.fixture
def repro_seed(request):
    """Seed the global RNGs from ``--repro-seed`` (registered in the
    repo-level ``conftest.py``) so any randomised test replays exactly;
    returns the seed for tests that want their own generators."""
    seed = int(request.config.getoption("--repro-seed"))
    random.seed(seed)
    np.random.seed(seed % (2 ** 32))
    return seed


@pytest.fixture
def native_env(tmp_path, monkeypatch):
    """Hermetic native workdir + fresh compiler probes per test
    (registered for every module by the repo-level ``conftest.py``)."""
    from repro.runtime.native import clear_compiler_cache

    monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
    clear_compiler_cache()
    yield tmp_path
    clear_compiler_cache()


def assert_native_matches_sim(build, engine="native", **run_kwargs):
    """Differential oracle: run the graph built by *build* through both
    the Python simulator and the native engine and assert every output
    byte-identical (NaN pixels must agree, but not their NaN bits).

    *build* is a zero-argument callable returning ``(graph, outputs)``
    where *outputs* is an output :class:`Image` or a sequence of them.
    It must produce deterministic input data on every call — the graph
    is rebuilt fresh per engine so one run cannot leak buffer state into
    the other.  Returns the native run's
    :class:`~repro.graph.report.GraphReport` so callers can assert on
    engine-specific facts (per-node engines, fallback reason, metrics).
    """
    from repro.graph.scheduler import execute_graph

    def run(engine_name):
        graph, outputs = build()
        if isinstance(outputs, Image):
            outputs = [outputs]
        report = execute_graph(graph, engine=engine_name, **run_kwargs)
        return [np.array(o.pixels, copy=True) for o in outputs], report

    sim_outs, _ = run("sim")
    nat_outs, nat_report = run(engine)
    assert len(sim_outs) == len(nat_outs)
    for i, (ref, got) in enumerate(zip(sim_outs, nat_outs)):
        np.testing.assert_array_equal(
            ref, got,
            err_msg=f"output {i} differs between sim and {engine}")
        # equal values are not equal bits (-0.0 == 0.0): compare every
        # non-NaN pixel bitwise.  A NaN's sign and payload are not
        # pinned — C lets the compiler commute ``a + b``, and x86 keeps
        # the first operand's NaN
        if ref.dtype.kind == "f":
            number = ~np.isnan(ref)
            assert ref[number].tobytes() == got[number].tobytes(), \
                f"output {i}: sim and {engine} differ in sign or bits"
    return nat_report


def run_c_kernel(ir, accessors, width, height):
    """Compile one kernel's CPU lowering on its own, with the native
    tier's compile flags, and run it over a *width* x *height*
    iteration space; returns the output array.

    For kernels the native gate keeps on the simulator (so
    :func:`assert_native_matches_sim` cannot reach their C) and for raw
    IR.  *ir* is a typed :class:`~repro.ir.nodes.KernelIR`, *accessors*
    maps its accessor names to :class:`Accessor` objects; non-baked
    parameters pass their construction-time values.  Skips the test
    when no C compiler is on PATH.
    """
    import ctypes
    import hashlib
    import os
    import subprocess

    from repro import CodegenOptions
    from repro.backends import generate
    from repro.runtime.native import find_c_compiler, native_workdir
    from repro.runtime.native_graph import CC_FLAGS

    cc = find_c_compiler()
    if cc is None:
        pytest.skip("no C compiler on PATH")
    src = generate(ir, CodegenOptions(backend="cpu"),
                   launch_geometry=(width, height))
    tag = hashlib.sha1(" ".join(CC_FLAGS + (src.device_code,))
                       .encode()).hexdigest()[:12]
    stem = os.path.join(native_workdir(), f"{src.entry}_{tag}")
    if not os.path.exists(stem + ".so"):
        with open(stem + ".c", "w") as fh:
            fh.write(src.device_code)
        result = subprocess.run(
            [cc, *CC_FLAGS, stem + ".c", "-o", stem + ".so", "-lm"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
    fn = getattr(ctypes.CDLL(stem + ".so"), src.entry)
    fn.restype = None

    out = np.zeros((height, width), dtype=ir.pixel_type.np_dtype)
    argv = [out.ctypes.data_as(ctypes.c_void_p), ctypes.c_int(width)]
    keepalive = []
    for acc in ir.accessors:
        image = accessors[acc.name].image
        pixels = np.ascontiguousarray(image.pixels,
                                      dtype=acc.pixel_type.np_dtype)
        keepalive.append(pixels)
        argv += [pixels.ctypes.data_as(ctypes.c_void_p),
                 ctypes.c_int(image.width), ctypes.c_int(image.height),
                 ctypes.c_int(pixels.shape[1])]
    argv += [ctypes.c_int(v) for v in (width, height, 0, 0)]
    for p in ir.params:
        if not p.baked:
            argv.append(ctypes.c_float(float(p.value)) if p.type.is_float
                        else ctypes.c_int(int(p.value)))
    fn(*argv)
    return out


def build_convolution(size=16, mask_size=3, boundary=Boundary.CLAMP,
                      coefficient_scale=1.0):
    """Deterministic MaskConvolution instance — same bytes in every
    process, so cache keys computed from it must agree across runs."""
    data = np.linspace(0.0, 1.0, size * size,
                       dtype=np.float32).reshape(size, size)
    src, dst = build_image_pair(size, size, data)
    acc = accessor_for(src, mask_size, boundary)
    coeffs = np.linspace(-1.0, float(coefficient_scale),
                         mask_size * mask_size,
                         dtype=np.float32).reshape(mask_size, mask_size)
    mask = Mask(mask_size, mask_size).set(coeffs)
    half = mask_size // 2
    return MaskConvolution(IterationSpace(dst), acc, mask, half, half)
