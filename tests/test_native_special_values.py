"""Special floating-point values through vectorised native code, and the
target-ISA part of the native artifact key.

The native tier builds for the host ISA (``-O3 -march=native``), so its
interior loops run as SIMD code.  NaN, infinities, signed zeros and
subnormals are where a vector ``min``/``max``, a fused multiply-add or
a flush-to-zero mode would part from the simulator's NumPy semantics;
every non-NaN result must match the simulator bit for bit.
Widths that are not a multiple of any vector width leave a scalar
remainder in every row.  The sizes span both sides of
:data:`~repro.backends.cpu.PARALLEL_MIN_PIXELS`, so serial and OpenMP
interiors are both covered.
"""

import os
import stat

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
    PipelineGraph,
)
from repro.backends.cpu import PARALLEL_MIN_PIXELS
from repro.dsl.math import fabs, fmax, fmin, sqrt  # noqa: F401
from repro.filters.median import Median3x3
from repro.errors import CodegenError
from repro.graph import compile_graph
from repro.runtime.native import clear_compiler_cache, compiler_signature
from repro.runtime.native_graph import (
    CC_FLAGS,
    graph_fingerprint,
    compile_native_graph,
    plan_native_graph,
)

from .helpers import MaskConvolution, assert_native_matches_sim

requires_cc = pytest.mark.requires_cc

#: (width, height): widths prime to every vector width, interiors on
#: both sides of the parallel gate
SIZES = [(257, 9), (263, 263), (1031, 5), (1031, 70)]

SPECIALS = np.array([
    np.nan, np.inf, -np.inf, -0.0, 0.0,
    1e-40, -1e-40, 1.4e-45, -1.4e-45,          # subnormals
    np.finfo(np.float32).tiny, np.finfo(np.float32).max,
    -np.finfo(np.float32).max,
], dtype=np.float32)


class RootAbs(Kernel):
    """Point operator over the exact intrinsics ``sqrt`` and ``fabs``."""

    def __init__(self, iteration_space, inp):
        super().__init__(iteration_space)
        self.inp = inp
        self.add_accessor(inp)

    def kernel(self):
        v = self.inp(0, 0)
        self.output(sqrt(v) + fabs(v) * 0.5)


class ClampFminFmax(Kernel):
    """``fmin``/``fmax`` clamp: NumPy propagates a NaN through both,
    libm's ``fminf``/``fmaxf`` would return the other operand."""

    def __init__(self, iteration_space, inp):
        super().__init__(iteration_space)
        self.inp = inp
        self.add_accessor(inp)

    def kernel(self):
        self.output(fmax(fmin(self.inp(0, 0), 0.25), -0.25))


def _frame(width, height, seed):
    """Random signed pixels with about a quarter replaced by specials."""
    rng = np.random.default_rng(seed)
    frame = rng.uniform(-2.0, 2.0, (height, width)).astype(np.float32)
    hit = rng.random((height, width)) < 0.25
    frame[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return frame


def test_sizes_straddle_the_parallel_gate():
    # interior of the widest window used below (5x5)
    areas = [(w - 4) * (h - 4) for w, h in SIZES]
    assert min(areas) < PARALLEL_MIN_PIXELS <= max(areas)


@requires_cc
@pytest.mark.parametrize("width,height", SIZES)
def test_special_values_match_simulator(native_env, width, height):
    frame = _frame(width, height, seed=width * height)
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(-1.0, 1.0, (5, 5)).astype(np.float32)

    def build():
        src = Image(width, height, float, name="src").set_data(frame)
        outs = [Image(width, height, float, name=n)
                for n in ("median", "conv", "rootabs", "clamp")]
        g = PipelineGraph(f"specials-{width}x{height}")
        g.add_kernel(Median3x3(IterationSpace(outs[0]), Accessor(
            BoundaryCondition(src, 3, 3, Boundary.MIRROR))), name="median")
        g.add_kernel(MaskConvolution(
            IterationSpace(outs[1]),
            Accessor(BoundaryCondition(src, 5, 5, Boundary.CLAMP)),
            Mask(5, 5).set(coeffs), 2, 2), name="conv")
        g.add_kernel(RootAbs(IterationSpace(outs[2]), Accessor(src)),
                     name="rootabs")
        g.add_kernel(ClampFminFmax(IterationSpace(outs[3]), Accessor(src)),
                     name="clamp")
        for o in outs:
            g.mark_output(o)
        return g, outs

    # bit-exact in every pixel but a NaN's sign and payload
    report = assert_native_matches_sim(build, workers=1)
    assert report.native_nodes == report.launches == 4


# --------------------------------------------------------------------------
# The target ISA is part of the artifact key
# --------------------------------------------------------------------------


_FAKE_CC = """#!/bin/sh
echo "$*" >> "{log}"
case "$*" in
  *--version*) echo "fakecc (Fake) 1.0" ;;
  *-dM*) [ -n "$FAKE_DM_FAIL" ] && exit 1
         printf '#define __FAKE_ISA__ %s\\n#define __STDC__ 1\\n' \
"$FAKE_ISA" ;;
esac
"""


@pytest.fixture
def fake_cc(tmp_path, monkeypatch):
    """A compiler stand-in: fixed ``--version``, ``-dM -E`` output from
    ``$FAKE_ISA`` (or exit status 1 when ``$FAKE_DM_FAIL`` is set);
    every invocation is logged."""
    log = tmp_path / "cc.log"
    path = tmp_path / "fakecc"
    path.write_text(_FAKE_CC.format(log=log))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setenv("FAKE_ISA", "avx2")
    clear_compiler_cache()
    yield str(path), log
    clear_compiler_cache()


def _graph():
    src = Image(24, 16, float, name="src").set_data(_frame(24, 16, 1))
    out = Image(24, 16, float, name="out")
    g = PipelineGraph("isa-key")
    g.add_kernel(RootAbs(IterationSpace(out), Accessor(src)),
                 name="rootabs")
    g.mark_output(out)
    compile_graph(g, cache=False, workers=1)
    return g


def _plan():
    return plan_native_graph(_graph())


def _probes(log):
    calls = log.read_text().splitlines() if os.path.exists(log) else []
    return (sum("--version" in c for c in calls),
            sum("-dM" in c for c in calls))


def test_isa_change_changes_fingerprint(fake_cc, monkeypatch):
    cc, log = fake_cc
    plan = _plan()
    avx2 = graph_fingerprint(plan, cc)
    clear_compiler_cache()                 # a new process on another host
    monkeypatch.setenv("FAKE_ISA", "avx512f")
    avx512 = graph_fingerprint(plan, cc)
    assert avx2 != avx512
    clear_compiler_cache()
    monkeypatch.setenv("FAKE_ISA", "avx2")
    assert graph_fingerprint(plan, cc) == avx2
    # the version line alone cannot tell the hosts apart
    assert compiler_signature(cc) == "fakecc (Fake) 1.0"


def test_isa_probe_runs_once_per_process(fake_cc):
    cc, log = fake_cc
    plan = _plan()
    first = graph_fingerprint(plan, cc)
    assert graph_fingerprint(plan, cc) == first
    signature = compiler_signature(cc, CC_FLAGS)
    assert signature.startswith("fakecc (Fake) 1.0 macros:")
    assert _probes(log) == (1, 1)
    probe = [c for c in log.read_text().splitlines() if "-dM" in c][0]
    assert probe.startswith(" ".join(CC_FLAGS))


def test_failed_isa_probe_keys_no_artifact(fake_cc, monkeypatch):
    cc, log = fake_cc
    graph = _graph()
    plan = plan_native_graph(graph)
    monkeypatch.setenv("FAKE_DM_FAIL", "1")
    with pytest.raises(CodegenError, match="target ISA"):
        graph_fingerprint(plan, cc)
    # the graph stays on the simulator rather than compiling under a
    # key that cannot tell this host from another whose probe failed
    with pytest.raises(CodegenError, match="target ISA"):
        compile_native_graph(graph, cc=cc)
    # a failed probe is not cached: the next compile probes again
    assert _probes(log)[1] == 2
    monkeypatch.delenv("FAKE_DM_FAIL")
    assert compiler_signature(cc, CC_FLAGS).startswith(
        "fakecc (Fake) 1.0 macros:")
    assert _probes(log)[1] == 3
