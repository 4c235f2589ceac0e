"""Native graph tier vs the simulator oracle.

Every test here is differential: the same graph runs through the Python
simulator (the oracle) and through the compiled C tier, and the outputs
must be **byte-identical** — the native tier only admits nodes whose
lowering is provably bit-exact, and hybrid graphs interleave compiled
segments with simulator launches (``tests/helpers.py``'s
``assert_native_matches_sim`` is the shared harness).

The artifact tests pin the warm-start contract: a second compilation of
the same graph must not invoke the C compiler at all (workdir, then
artifact store), corrupt or stale artifacts heal transparently, and a
compiler-version change misses the cache.
"""

import ctypes
import dataclasses
import os

import numpy as np
import pytest

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    CompilationCache,
    Image,
    IterationSpace,
    Mask,
    PipelineGraph,
)
from repro.cli import build_edge_pipeline
from repro.data import impulse_noise_image
from repro.errors import CodegenError, GraphError
from repro.filters.gaussian import GaussianFilter, gaussian_mask_2d
from repro.filters.point_ops import AddConstant, Scale, Threshold
from repro.filters.sobel import SOBEL_X, SobelX
from repro.graph import compile_graph, execute_graph
from repro.graph.pool import plan_memory
from repro.runtime import native, native_graph
from repro.runtime.native import clear_compiler_cache, find_c_compiler
from repro.runtime.native_graph import (
    CC_FLAGS,
    EXACT_POW_EXPONENTS,
    NATIVE_GRAPH_FORMAT,
    compile_native_graph,
    emit_graph_source,
    graph_fingerprint,
    native_ineligibility,
    plan_native_graph,
)

from .helpers import assert_native_matches_sim, random_image

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

requires_cc = pytest.mark.requires_cc

W, H = 24, 16


def _img(data=None, name=None, w=W, h=H):
    img = Image(w, h, float, name=name)
    if data is not None:
        img.set_data(data)
    return img


def _sobel(space, acc_img):
    return SobelX(space,
                  Accessor(BoundaryCondition(acc_img, 3, 3,
                                             Boundary.CLAMP)),
                  Mask(3, 3).set(SOBEL_X))


def _simple_graph(frame):
    """Scale -> SobelX: one arena intermediate, fully native."""
    src = _img(frame, "src")
    a, out = _img(name="a"), _img(name="out")
    g = PipelineGraph("native-simple")
    g.add_kernel(Scale(IterationSpace(a), Accessor(src), 2.0),
                 name="scale")
    g.add_kernel(_sobel(IterationSpace(out), a), name="sobel")
    g.mark_output(out)
    return g, out


# --------------------------------------------------------------------------
# Example pipelines, differentially
# --------------------------------------------------------------------------


@requires_cc
def test_edge_example_pipeline_fully_native(native_env):
    from examples.edge_pipeline import build_chain

    size = 48
    frame = impulse_noise_image(size, size, seed=11, density=0.03)

    def build():
        kernels, out = build_chain(frame, size)
        g = PipelineGraph("edge-example")
        for k, name in zip(kernels, ["median", "sobel_x", "sobel_y",
                                     "magnitude"]):
            g.add_kernel(k, name=name, backend="cuda",
                         device="Tesla C2050")
        g.mark_output(out)
        return g, out

    report = assert_native_matches_sim(build, workers=1)
    # median/sobel/sqrt-magnitude are all bit-exact lowerings: the whole
    # chain runs in compiled segments
    assert report.engine_used == "native"
    assert report.fallback_reason is None
    assert report.native_nodes == report.launches
    assert all(n.engine == "native" for n in report.nodes)


@requires_cc
def test_cli_edge_pipeline_is_hybrid(native_env):
    # median -> sobel x2 -> magnitude -> scale -> gamma: fusion folds the
    # pow() of gamma into the tail point-op node, which must stay on the
    # simulator (pow is not bit-exact between libm and NumPy)
    def build():
        return build_edge_pipeline(48, "Tesla C2050", "cuda")

    report = assert_native_matches_sim(build, workers=1)
    assert report.engine_used == "native"
    assert 0 < report.native_nodes < report.launches
    sim_nodes = [n for n in report.nodes if n.engine == "sim"]
    assert sim_nodes and all("gamma" in n.name for n in sim_nodes)


@requires_cc
def test_enhance_pipeline_square_gamma_native(native_env):
    # scale -> gamma(2.0): pow(x, 2.0) strength-reduces to x*x, which the
    # abstract interpreter proves bit-exact, so the node is admitted and
    # the emitted TU never calls powf.
    from repro.serve.planner import plan_request

    frame = random_image(48, 48)

    def build():
        plan = plan_request({"pipeline": "enhance"}, frame)
        return plan.graph, plan.output

    report = assert_native_matches_sim(build, workers=1)
    assert report.engine_used == "native"
    assert report.fallback_reason is None
    assert report.native_nodes == report.launches
    assert all(n.engine == "native" for n in report.nodes)

    plan = plan_request({"pipeline": "enhance"}, frame)
    compile_graph(plan.graph, cache=False, workers=1)
    gamma = next(n for n in plan.graph.nodes if "gamma" in n.name)
    assert native_ineligibility(gamma) is None
    native_plan = plan_native_graph(plan.graph)
    assert native_plan.native_count == len(plan.graph.nodes)
    assert "powf" not in emit_graph_source(native_plan)


@requires_cc
def test_dsa_frontend_is_hybrid(native_env):
    from examples.dsa_pipeline import build_frontend

    size = 32
    rng = np.random.default_rng(7)
    mask_frame = rng.random((size, size), dtype=np.float32)
    fill_frame = rng.random((size, size), dtype=np.float32)

    def build():
        stages, img_den = build_frontend(size, mask_frame, fill_frame)
        g = PipelineGraph("dsa-frontend")
        for kernel, name, opts in stages:
            g.add_kernel(kernel, name=name, **opts)
        g.mark_output(img_den)
        return g, img_den

    report = assert_native_matches_sim(build, workers=1)
    assert report.engine_used == "native"
    # subtract + median compile; the bilateral's exp() keeps it on sim
    assert report.node("subtract").engine == "native"
    assert report.node("median").engine == "native"
    assert report.node("bilateral").engine == "sim"


@requires_cc
def test_multiresolution_style_chain(native_env):
    # blur -> detail gain -> threshold -> blur: the Gaussian smoothing /
    # point-op alternation of the multiresolution example
    frame = random_image(W, H, seed=5)

    def build():
        src = _img(frame, "src")
        b1, s1, t1 = _img(name="b1"), _img(name="s1"), _img(name="t1")
        out = _img(name="out")
        g = PipelineGraph("multires")
        g.add_kernel(GaussianFilter(
            IterationSpace(b1),
            Accessor(BoundaryCondition(src, 5, 5, Boundary.MIRROR)),
            gaussian_mask_2d(5), 2), name="blur0")
        g.add_kernel(Scale(IterationSpace(s1), Accessor(b1), 1.8),
                     name="gain")
        g.add_kernel(Threshold(IterationSpace(t1), Accessor(s1), 0.75),
                     name="clip")
        g.add_kernel(GaussianFilter(
            IterationSpace(out),
            Accessor(BoundaryCondition(t1, 5, 5, Boundary.MIRROR)),
            gaussian_mask_2d(5), 2), name="blur1")
        g.mark_output(out)
        return g, out

    report = assert_native_matches_sim(build, workers=1)
    assert report.engine_used == "native"
    assert report.native_nodes == report.launches


# --------------------------------------------------------------------------
# Randomized point-op chains (same generators as the fusion suite)
# --------------------------------------------------------------------------

_OPS = st.sampled_from(["add", "scale", "threshold", "gamma"])
_PARAM = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                   width=32)


def _make_op(op, param, space, acc):
    from repro.filters.point_ops import GammaCorrection

    if op == "add":
        return AddConstant(space, acc, param)
    if op == "scale":
        return Scale(space, acc, param, offset=0.125)
    if op == "threshold":
        return Threshold(space, acc, param)
    return GammaCorrection(space, acc, abs(param) + 0.5)


@requires_cc
@settings(max_examples=15, deadline=None)
@given(ops=st.lists(st.tuples(_OPS, _PARAM), min_size=1, max_size=5),
       seed=st.integers(min_value=0, max_value=2**16),
       fuse=st.booleans())
def test_randomized_point_chain_native(ops, seed, fuse):
    rng = np.random.default_rng(seed)
    frame = rng.random((H, W), dtype=np.float32)   # [0, 1): gamma-safe

    def build():
        src = _img(frame, "src")
        g = PipelineGraph("rand-chain")
        current = src
        for i, (op, param) in enumerate(ops):
            out = _img(name=f"t{i}")
            g.add_kernel(_make_op(op, param, IterationSpace(out),
                                  Accessor(current)))
            current = out
        g.mark_output(current)
        return g, current

    report = assert_native_matches_sim(build, workers=1, fuse=fuse)
    exponents = [abs(p) + 0.5 for op, p in ops if op == "gamma"]
    if all(e in EXACT_POW_EXPONENTS for e in exponents):
        # add/scale/threshold always lower bit-exactly, and every
        # gamma's pow() exponent was proven exact (strength-reduced to
        # 1, sqrt, x, x*x or 1/x) — the whole chain runs native
        assert report.engine_used == "native"
        assert report.native_nodes == report.launches
    else:
        # an inexact pow() exponent pins its node (or the whole fused
        # chain) to the simulator; output equality held either way
        assert report.native_nodes < report.launches


# --------------------------------------------------------------------------
# Eligibility, fallback, engine plumbing
# --------------------------------------------------------------------------


def test_native_ineligibility_reasons():
    frame = random_image(W, H)
    src = _img(frame, "src")
    a, out = _img(name="a"), _img(name="out")
    g = PipelineGraph("elig")
    g.add_kernel(Scale(IterationSpace(a), Accessor(src), 2.0),
                 name="scale")
    from repro.filters.point_ops import GammaCorrection
    g.add_kernel(GammaCorrection(IterationSpace(out), Accessor(a), 1.4),
                 name="gamma")
    g.mark_output(out)
    compile_graph(g, cache=False, workers=1)
    by_name = {n.name: n for n in g.nodes}
    assert native_ineligibility(by_name["scale"]) is None
    reason = native_ineligibility(by_name["gamma"])
    assert reason is not None and "pow" in reason


def test_plan_segments_and_slots():
    g, _ = _simple_graph(random_image(W, H))
    compile_graph(g, cache=False, workers=1)
    order = g.topological_order()
    plan = plan_native_graph(g, order)
    assert plan.native_count == 2
    assert plan.segments == [[0, 1]]          # one contiguous segment
    assert plan.schedule == [("native", 0)]
    # src, the intermediate and out each take one ext[] slot; the
    # intermediate is the memory plan's one arena tenant
    assert len(plan.ext_images) == 3
    memory = plan_memory(g, order, plan.schedule, plan)
    assert [w.image.name for w in memory.tenants] == ["a"]
    assert memory.stats.allocs == 1 and memory.stats.peak_bytes > 0


def test_uncompiled_graph_rejected():
    g, _ = _simple_graph(random_image(W, H))
    with pytest.raises(CodegenError, match="not compiled"):
        plan_native_graph(g)


def test_unknown_engine_rejected():
    g, _ = _simple_graph(random_image(W, H))
    with pytest.raises(GraphError, match="unknown engine"):
        execute_graph(g, engine="gpu")


def test_auto_engine_without_compiler_falls_back(monkeypatch):
    clear_compiler_cache()
    native._PROBE_CACHE["cc"] = None          # simulate a bare machine
    try:
        def build():
            return _simple_graph(random_image(W, H, seed=3))

        report = assert_native_matches_sim(build, engine="auto",
                                           workers=1)
        assert report.engine == "auto"
        assert report.engine_used == "sim"
        assert "no C compiler" in report.fallback_reason
        assert all(n.engine == "sim" for n in report.nodes)
    finally:
        clear_compiler_cache()


@requires_cc
def test_ineligibility_on_interpreter_failure(native_env, monkeypatch):
    # a kernel the abstract interpreter cannot analyze is ineligible:
    # there is no syntactic fallback that could admit it unproven
    from repro.lint import absint
    from repro.serve.planner import plan_request

    frame = random_image(32, 32, seed=4)
    cache = CompilationCache()

    def build():
        plan = plan_request({"pipeline": "denoise"}, frame)
        return plan.graph, plan.output

    # compile first: kernel verification runs the interpreter too, and
    # the cached compiles below must not reach it (their lint is memoised)
    graph, _ = build()
    compile_graph(graph, cache=cache, workers=1)
    victim_name = next(n.compiled.ir.name for n in graph.nodes
                       if "gaussian" in n.name)
    real = absint.interpret
    real_frontend_get = cache.frontend_get

    def interpret(ir, *args, **kwargs):
        if ir.name == victim_name:
            raise RuntimeError("injected interpreter failure")
        return real(ir, *args, **kwargs)

    def frontend_get(fingerprint):
        # a fresh IR instance per compile: the fixpoint cached on the
        # memoised IR above must not answer for it
        hit = real_frontend_get(fingerprint)
        return hit and (hit[0], dataclasses.replace(hit[1]))

    monkeypatch.setattr(absint, "interpret", interpret)
    monkeypatch.setattr(cache, "frontend_get", frontend_get)
    graph, _ = build()
    compile_graph(graph, cache=cache, workers=1)
    victim = next(n for n in graph.nodes if "gaussian" in n.name)
    reason = native_ineligibility(victim)
    assert reason == ("abstract interpreter failed: "
                      "RuntimeError: injected interpreter failure")

    report = assert_native_matches_sim(build, workers=1, cache=cache)
    assert report.engine_used == "native"
    assert report.node(victim.name).engine == "sim"
    assert report.native_nodes == report.launches - 1


@requires_cc
def test_native_engine_with_nothing_eligible_falls_back(native_env):
    from repro.filters.point_ops import GammaCorrection

    frame = random_image(W, H, seed=9)

    def build():
        src = _img(frame, "src")
        out = _img(name="out")
        g = PipelineGraph("all-sim")
        g.add_kernel(GammaCorrection(IterationSpace(out), Accessor(src),
                                     1.3), name="gamma")
        g.mark_output(out)
        return g, out

    report = assert_native_matches_sim(build, workers=1)
    assert report.engine_used == "sim"
    assert "no native-eligible nodes" in report.fallback_reason
    assert "pow" in report.fallback_reason


# --------------------------------------------------------------------------
# Artifact round-trips: warm starts never invoke the compiler
# --------------------------------------------------------------------------


def _compiled_simple(cache, seed=0):
    g, out = _simple_graph(random_image(W, H, seed=seed))
    compile_graph(g, cache=cache, workers=1)
    return g, out


class _CcSpy:
    """Counting (or forbidding) stand-in for ``subprocess.run``."""

    def __init__(self, real=None):
        self.calls = 0
        self.real = real

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.real is None:
            raise AssertionError(
                "C compiler invoked on a warm start")
        return self.real(*args, **kwargs)


@requires_cc
def test_warm_start_zero_compiler_invocations(native_env, tmp_path,
                                              monkeypatch):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    g, _ = _compiled_simple(cache)
    mod1 = compile_native_graph(g, cache=cache)
    assert mod1.origin == "fresh"

    # from here on, *any* subprocess is a failure (compiler probes are
    # memoized, so only a cc invocation could reach it)
    spy = _CcSpy(real=None)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)

    mod2 = compile_native_graph(g, cache=cache)
    assert mod2.origin == "workdir"
    assert mod2.fingerprint == mod1.fingerprint
    assert spy.calls == 0

    # drop the materialised .so: the artifact store must satisfy the
    # next start, still without a compiler
    os.unlink(mod1.library_path)
    mod3 = compile_native_graph(g, cache=cache)
    assert mod3.origin == "store"
    assert mod3.fingerprint == mod1.fingerprint
    assert spy.calls == 0

    # and the store-restored library actually executes
    run = ctypes.CDLL(mod3.library_path)
    assert all(hasattr(run, e) for e in mod3.entries)


@requires_cc
def test_warm_execute_graph_end_to_end(native_env, tmp_path, monkeypatch):
    # the scheduler path: second execute_graph(engine="native") with the
    # same shared cache must not compile anything
    cache = CompilationCache(directory=str(tmp_path / "store"))
    frame = random_image(W, H, seed=21)

    g1, out1 = _simple_graph(frame)
    execute_graph(g1, cache=cache, workers=1, engine="native")
    ref = out1.get_data().copy()

    spy = _CcSpy(real=None)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)
    g2, out2 = _simple_graph(frame)
    report = execute_graph(g2, cache=cache, workers=1, engine="native")
    assert report.engine_used == "native"
    assert spy.calls == 0
    assert np.array_equal(ref, out2.get_data())


@requires_cc
def test_corrupt_workdir_so_heals_from_store(native_env, tmp_path,
                                             monkeypatch):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    g, _ = _compiled_simple(cache)
    mod1 = compile_native_graph(g, cache=cache)
    # plant a garbage .so in a *fresh* workdir (dlopen caches loaded
    # paths per process, so corrupting mod1's own path is invisible)
    wd2 = tmp_path / "wd2"
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(wd2))
    corrupt = (wd2 / "hipacc_py_native_graph"
               / os.path.basename(mod1.library_path))
    corrupt.parent.mkdir(parents=True)
    corrupt.write_bytes(b"\x00garbage, not ELF\x00")
    mod2 = compile_native_graph(g, cache=cache)
    assert mod2.origin == "store"          # healed without a compiler
    assert mod2.library_path == str(corrupt)


@requires_cc
def test_corrupt_store_entry_heals_to_fresh(native_env, tmp_path,
                                            monkeypatch):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    g, _ = _compiled_simple(cache)
    mod1 = compile_native_graph(g, cache=cache)
    key = f"ng_{mod1.fingerprint}"
    os.unlink(mod1.library_path)
    # blob is not valid base64: get_artifact must invalidate the entry
    cache.put(key, {"kind": "native-graph",
                    "format": NATIVE_GRAPH_FORMAT,
                    "blob_b64": "!!! not base64 !!!"})
    spy = _CcSpy(real=native_graph.subprocess.run)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)
    mod2 = compile_native_graph(g, cache=cache)
    assert mod2.origin == "fresh" and spy.calls == 1
    assert cache.get_artifact(key) is not None   # re-stored


@requires_cc
def test_stale_format_entry_misses(native_env, tmp_path, monkeypatch):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    g, _ = _compiled_simple(cache)
    mod1 = compile_native_graph(g, cache=cache)
    key = f"ng_{mod1.fingerprint}"
    os.unlink(mod1.library_path)
    entry = cache.get(key)
    entry = dict(entry, format=NATIVE_GRAPH_FORMAT + 1)
    cache.put(key, entry)
    spy = _CcSpy(real=native_graph.subprocess.run)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)
    mod2 = compile_native_graph(g, cache=cache)
    assert mod2.origin == "fresh" and spy.calls == 1


@requires_cc
def test_compiler_version_change_misses_cache(native_env, tmp_path,
                                              monkeypatch):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    g, _ = _compiled_simple(cache)
    mod1 = compile_native_graph(g, cache=cache)

    cc = find_c_compiler()
    native._PROBE_CACHE[f"sig:{cc}"] = "fake-cc (Fake) 99.9.9"
    spy = _CcSpy(real=native_graph.subprocess.run)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)
    mod2 = compile_native_graph(g, cache=cache)
    assert mod2.fingerprint != mod1.fingerprint
    assert mod2.origin == "fresh" and spy.calls == 1


@requires_cc
def test_fresh_compile_is_atomic(native_env, monkeypatch):
    # cc writes beside the final path and the result is renamed onto
    # it: a process probing so_path meanwhile never loads (or heals
    # away) a half-written object
    g, _ = _compiled_simple(None)
    fingerprint = graph_fingerprint(plan_native_graph(g), find_c_compiler())
    so_path = os.path.join(str(native_env), "hipacc_py_native_graph",
                           f"graph_{fingerprint[:16]}.so")
    commands = []

    class _AtomicSpy(_CcSpy):
        def __call__(self, cmd, *args, **kwargs):
            commands.append(cmd)
            assert not os.path.exists(so_path)
            result = super().__call__(cmd, *args, **kwargs)
            assert not os.path.exists(so_path)
            return result

    spy = _AtomicSpy(real=native_graph.subprocess.run)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)
    mod = compile_native_graph(g)
    assert mod.origin == "fresh" and spy.calls == 1
    assert mod.library_path == so_path and os.path.exists(so_path)
    assert commands[0][1:1 + len(CC_FLAGS)] == list(CC_FLAGS)
    name = os.path.basename(so_path)
    assert sorted(os.listdir(os.path.dirname(so_path))) == [
        name[:-3] + ".c", name]      # no temporary left behind


def test_compile_flags_pinned_and_fingerprinted(monkeypatch):
    # -ffp-contract=off is load-bearing: FMA contraction would break
    # byte-identity with the simulator
    assert CC_FLAGS == ("-fopenmp", "-O3", "-march=native",
                        "-ffp-contract=off", "-shared", "-fPIC", "-std=c99")
    g, _ = _simple_graph(random_image(W, H))
    compile_graph(g, cache=False, workers=1)
    plan = plan_native_graph(g)
    before = graph_fingerprint(plan, "cc")
    monkeypatch.setattr(native_graph, "CC_FLAGS",
                        tuple(f for f in CC_FLAGS
                              if f != "-ffp-contract=off"))
    assert graph_fingerprint(plan, "cc") != before


def test_artifact_store_roundtrip(tmp_path):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    blob = bytes(range(256)) * 3
    cache.put_artifact("ng_x", {"kind": "native-graph", "format": 1},
                       blob)
    hit = cache.get_artifact("ng_x")
    assert hit is not None
    payload, restored = hit
    assert restored == blob
    assert payload["kind"] == "native-graph"
    assert "blob_b64" not in payload
    # a fresh process sees it through the disk tier too
    cache2 = CompilationCache(directory=str(tmp_path / "store"))
    payload2, restored2 = cache2.get_artifact("ng_x")
    assert restored2 == blob

    # an entry without a blob is not an artifact
    cache.put("ng_y", {"kind": "native-graph"})
    assert cache.get_artifact("ng_y") is None


# --------------------------------------------------------------------------
# Reporting and observability
# --------------------------------------------------------------------------


@requires_cc
def test_report_and_spans(native_env):
    from repro.obs import tracing
    from repro.obs.schema import NATIVE_SPANS

    g, out = _simple_graph(random_image(W, H, seed=13))
    with tracing() as tracer:
        report = execute_graph(g, cache=False, workers=1,
                               engine="native")
    assert report.engine == "native"
    assert report.engine_used == "native"
    assert report.metrics()["graph.native_nodes"] == report.launches
    assert "engine:  native" in report.summary()
    names = {s.name for s in tracer.spans()}
    for span_name in NATIVE_SPANS:
        assert span_name in names, f"missing {span_name} span"
