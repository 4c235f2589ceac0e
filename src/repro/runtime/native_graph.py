"""Native JIT execution of whole pipeline graphs.

One C translation unit per graph: every native-eligible node's CPU
lowering (:mod:`repro.backends.cpu`) and one exported segment function
per contiguous run of native nodes.  A segment takes every image it
reads or writes through a pointer table and a row-stride table, one
slot per image, and works on the image in place, in its own storage —
for an intermediate, its view of the prepared graph's arena piece
(:mod:`repro.graph.pool`, which also zeroes what a writer leaves
unwritten).  No memory layout is compiled in.  The TU compiles once
with the system C compiler and :data:`CC_FLAGS` (``-O3
-march=native``: the interior loop nests vectorise for the host ISA)
and executes through ctypes — OpenMP parallelises the interior loop
nest of each kernel large enough to pay for it
(:data:`repro.backends.cpu.PARALLEL_MIN_PIXELS`).  This is the only
route from generated C to machine code.

**The simulator stays the oracle.**  A node joins the native tier only
when its C lowering is provably byte-identical to the simulator.  The
gate is *prove-based*: the abstract interpreter
(:mod:`repro.lint.absint`) must prove

* every accessor read stays inside its declared boundary window (and
  an ``undefined``-boundary accessor reads only the centre pixel — the
  C lowering does raw reads there, the simulator clamps);
* every intrinsic call is in its bit-exact range:
  :data:`EXACT_INTRINSICS` always are, and ``pow`` qualifies when its
  exponent is a proven singleton in :data:`EXACT_POW_EXPONENTS`, in
  which case the lowering strength-reduces it (``x*x``, ``sqrtf(x)``,
  ``1/x``, ...) — NumPy special-cases exactly those exponents, so
  ``powf`` (1-2 ULP off NumPy's SIMD polynomials) is never emitted;

plus the structural conditions: no interpolated accessors (``floorf``
resampling drifts by ULPs), no dynamic masks, no casting accessors and
no explicit border-mode overrides.  A kernel the interpreter cannot
analyze is ineligible: it runs through the simulator.

Ineligible nodes keep running through the simulator *inside* the native
engine (the scheduler interleaves segment calls with simulator
launches), so a hybrid run is still byte-identical to a pure simulator
run — which is what the differential harness in ``tests/helpers.py``
asserts for every graph.  Byte-identical covers every pixel but a NaN's
sign and payload: NaNs land in the same pixels, but C lets the compiler
commute ``a + b``, and x86 keeps the first operand's NaN.

Compiled artifacts are content-addressed through the artifact store:
the graph fingerprint folds every canonical IR, the topology, segment
structure and pointer-table slots, the codegen options, the compiler
version and the target ISA :data:`CC_FLAGS` resolve to on this host.  Warm
starts resolve the ``.so`` from the materialised workdir or the artifact
store and never invoke the C compiler (proven by test via a
monkeypatched ``subprocess.run``).
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import re
import subprocess
from typing import Dict, List, Optional, Tuple

from .. import __version__
from ..atomic import replacing, write_atomic
from ..backends.base import CodegenOptions, c_float_literal
from ..backends.cpu import CpuBackend, CpuKernelUnit, cpu_common_preamble
from ..cache.key import canonical_ir
from ..cache.store import CompilationCache
from ..dsl.image import Image
from ..errors import CodegenError
from ..graph.fusion import _renamed_ir
from ..ir.nodes import (
    Assign,
    BinOp,
    Call,
    Expr,
    FloatConst,
    ForRange,
    If,
    KernelIR,
    MaskRead,
    OutputWrite,
    Stmt,
    VarDecl,
)
from ..ir.visitors import map_exprs
from ..obs import span
from .native import compiler_signature, find_c_compiler, native_workdir

#: bump when the emitted TU shape or the ABI of segment entry points
#: changes — stored entries with another format are ignored.  Any change
#: to C emission needs this bump: graph_fingerprint hashes IR and
#: pointer-table slots, not the emitted source.
NATIVE_GRAPH_FORMAT = 7

#: the one compile command's flags (``cc <flags> tu.c -o tu.so -lm``),
#: folded into :func:`graph_fingerprint` together with the target ISA
#: they resolve to (:func:`~repro.runtime.native.compiler_signature`).
#: ``-O3 -march=native`` vectorises the interior loop nests for this
#: host; nothing enables ``-ffast-math``, so vector code rounds exactly
#: like scalar code.  ``-ffp-contract=off`` is explicit because only
#: GCC's ``-std=c99`` implies it: a compiler that contracts ``a*b+c``
#: into an FMA breaks byte-identity with the simulator, which rounds the
#: product first.
CC_FLAGS = ("-fopenmp", "-O3", "-march=native", "-ffp-contract=off",
            "-shared", "-fPIC", "-std=c99")

#: intrinsics whose C lowering is bit-identical to the NumPy
#: simulator.  IEEE 754 requires correctly-rounded sqrt; fabs/floor/
#: ceil/trunc/fmod are exact libm operations; min/max, and fmin/fmax
#: with them, lower to the NaN-propagating comparison macros rather
#: than libm (whose fminf drops a NaN).  Transcendentals (exp, pow,
#: sin, ...) are correctly rounded in *neither* library and differ by
#: ULPs, `round` differs in tie-breaking (NumPy banker's vs C
#: half-away), and clamp/rsqrt have no libm spelling — all excluded.
EXACT_INTRINSICS = frozenset({
    "sqrt", "fabs", "abs", "floor", "ceil", "trunc",
    "fmin", "fmax", "min", "max", "fmod",
})

#: ``pow`` exponents NumPy special-cases with exact arithmetic, each
#: with a bit-identical C strength reduction (``pow`` with any other
#: exponent goes through SIMD polynomials that differ from ``powf`` by
#: ULPs — verified empirically, including that even ``powf(x, 2.0f)``
#: does NOT match ``np.power(x, 2.0)`` while ``x*x`` does)
EXACT_POW_EXPONENTS = frozenset({0.0, 0.5, 1.0, 2.0, -1.0})


# --------------------------------------------------------------------------
# Eligibility
# --------------------------------------------------------------------------


def native_ineligibility(node) -> Optional[str]:
    """Why *node* cannot join the native tier, or None when it can.

    The rules are exactly the bit-exactness argument in the module
    docstring: structural rejects first, then the abstract interpreter
    runs over the node's typed IR and every access and intrinsic needs
    a proof.  Returns the first unproven fact as the reason; anything
    rejected here runs through the simulator instead, keeping hybrid
    output byte-identical by construction.
    """
    from ..lint.absint import _fmt, _fmt_bound

    if node.compiled is None:
        raise CodegenError(
            f"node {node.name!r} is not compiled; run compile_graph "
            "before planning native execution")
    if "border" in node.options:
        return "explicit border-mode override"
    ir = node.compiled.ir
    out_img = node.iteration_space.image
    if ir.pixel_type.name != out_img.pixel_type.name:
        return "output cast: kernel and image pixel types differ"
    for acc in ir.accessors:
        if acc.interpolation is not None:
            return f"interpolated accessor {acc.name!r}"
        image = node.accessor_objs[acc.name].image
        if acc.pixel_type.name != image.pixel_type.name:
            return f"casting accessor {acc.name!r}"
    for mask in ir.masks:
        if mask.coefficients is None:
            return f"dynamic mask {mask.name!r}"

    try:
        result = ir.absint()
    except Exception as exc:
        return (f"abstract interpreter failed: "
                f"{type(exc).__name__}: {exc}")
    for r in result.reads:
        if r.in_window is not True:
            return (f"unproven access: accessor {r.accessor!r} offsets "
                    f"{_fmt(r.dx)}x{_fmt(r.dy)} not proven inside its "
                    f"{r.window[0]}x{r.window[1]} window")
        if r.boundary_mode == "undefined" and not (
                r.dx.lo >= 0 >= r.dx.hi and r.dy.lo >= 0 >= r.dy.hi):
            # the C lowering reads raw memory where the simulator
            # clamps: only centre-pixel reads are provably identical
            return (f"unproven access: accessor {r.accessor!r} reads a "
                    f"halo under undefined boundary handling")
    for c in result.calls:
        if c.func in EXACT_INTRINSICS:
            continue
        if c.func == "pow":
            exponent = c.singleton_arg(1)
            if exponent in EXACT_POW_EXPONENTS:
                continue
            shown = "unproven" if exponent is None else _fmt_bound(exponent)
            return (f"inexact intrinsic 'pow' (exponent {shown}; only "
                    f"proven-constant exponents "
                    f"{sorted(EXACT_POW_EXPONENTS)} strength-reduce to "
                    f"bit-exact forms)")
        return f"inexact intrinsic {c.func!r}"
    return None


# --------------------------------------------------------------------------
# Planning
# --------------------------------------------------------------------------


@dataclasses.dataclass
class NodeLowering:
    """One node's place in the native plan."""

    index: int                    # position in topological order
    node: object                  # GraphNode
    native: bool
    reason: Optional[str] = None  # ineligibility reason when not native
    ir: Optional[KernelIR] = None         # renamed IR (call-site truth)
    unit: Optional[CpuKernelUnit] = None
    acc_objs: Optional[Dict[str, object]] = None  # renamed name -> Accessor


@dataclasses.dataclass
class NativeGraphPlan:
    """Everything the emitter and the executor need, precomputed."""

    graph_name: str
    lowerings: List[NodeLowering]
    #: node indices per exported segment function, in execution order
    segments: List[List[int]]
    #: interleaved execution plan: ("native", segment) | ("sim", node idx)
    schedule: List[Tuple[str, int]]
    #: every image a native node reads or writes, in ext[] slot order
    ext_images: List[Image]
    slots: Dict[int, int]                 # id(image) -> ext[] slot
    reasons: Dict[str, str]               # node name -> fallback reason

    @property
    def native_count(self) -> int:
        return sum(1 for lw in self.lowerings if lw.native)


def _sanitize(name: str) -> str:
    return re.sub(r"[^0-9A-Za-z_]", "_", name)


def _rename_masks(ir: KernelIR, prefix: str) -> KernelIR:
    """Prefix mask names (``_renamed_ir`` leaves them alone — fine for
    fusion's single-kernel output, a collision hazard in a shared TU)."""
    mask_map = {m.name: prefix + m.name for m in ir.masks}
    if not mask_map:
        return ir

    def rename(e):
        if isinstance(e, MaskRead) and e.mask in mask_map:
            return dataclasses.replace(e, mask=mask_map[e.mask])
        return e

    return dataclasses.replace(
        ir,
        body=map_exprs(ir.body, rename),
        masks=[dataclasses.replace(m, name=mask_map[m.name])
               for m in ir.masks])


def _strength_reduce_pow(ir: KernelIR) -> KernelIR:
    """Replace ``pow`` calls whose exponent the abstract interpreter
    proves to be a singleton in :data:`EXACT_POW_EXPONENTS` with their
    bit-exact forms (``1.0``, ``sqrtf(x)``, ``x``, ``x*x``, ``1/x``).

    This is what makes the prove-based gate's ``pow`` admission sound:
    the emitted C never contains ``powf`` (which is ULPs away from
    NumPy), only operations that are IEEE-exact on both sides.  The
    facts come from *ir*'s cached fixpoint — the one the native gate
    read — and match back to its expressions by identity; the rewrite
    is top-down so that map stays valid for nested calls."""
    exponents: Dict[int, float] = {}
    for c in ir.absint().calls:
        if c.func == "pow":
            exponent = c.singleton_arg(1)
            if exponent in EXACT_POW_EXPONENTS:
                exponents[id(c.expr)] = exponent
    if not exponents:
        return ir

    def rewrite(e: Expr) -> Expr:
        exponent = exponents.get(id(e))
        if exponent is not None:
            base = rewrite(e.args[0])
            if exponent == 0.0:
                return FloatConst(1.0, type=e.type)
            if exponent == 0.5:
                return Call("sqrt", (base,), type=e.type)
            if exponent == 1.0:
                return base
            if exponent == 2.0:
                return BinOp("*", base, base, type=e.type)
            return BinOp("/", FloatConst(1.0, type=e.type), base,
                         type=e.type)
        kids = e.children()
        if not kids:
            return e
        new = [rewrite(k) for k in kids]
        if all(n is k for n, k in zip(new, kids)):
            return e
        return e.with_children(*new)

    def rewrite_stmt(s: Stmt) -> Stmt:
        if isinstance(s, VarDecl):
            return dataclasses.replace(s, init=rewrite(s.init))
        if isinstance(s, Assign):
            return dataclasses.replace(s, value=rewrite(s.value))
        if isinstance(s, OutputWrite):
            return dataclasses.replace(s, value=rewrite(s.value))
        if isinstance(s, If):
            return dataclasses.replace(
                s, cond=rewrite(s.cond),
                then_body=[rewrite_stmt(t) for t in s.then_body],
                else_body=[rewrite_stmt(t) for t in s.else_body])
        if isinstance(s, ForRange):
            return dataclasses.replace(
                s, start=rewrite(s.start), stop=rewrite(s.stop),
                step=rewrite(s.step),
                body=[rewrite_stmt(t) for t in s.body])
        return s

    return dataclasses.replace(
        ir, body=[rewrite_stmt(s) for s in ir.body])


def _lower_node(node, index: int) -> NodeLowering:
    """Namespace one node's IR into the shared TU and lower it."""
    prefix = f"g{index}_"
    reduced = _strength_reduce_pow(node.compiled.ir)
    renamed, acc_map = _renamed_ir(reduced, prefix)
    renamed = _rename_masks(renamed, prefix)
    renamed = dataclasses.replace(
        renamed, name=_sanitize(f"n{index}_{node.compiled.ir.name}"))
    acc_objs = {new: node.accessor_objs[old]
                for old, new in acc_map.items()}
    space = node.iteration_space
    backend = CpuBackend(CodegenOptions(backend="cpu"))
    unit = backend.kernel_unit(renamed, (space.width, space.height),
                               export=False)
    return NodeLowering(index=index, node=node, native=True,
                        ir=renamed, unit=unit, acc_objs=acc_objs)


def plan_native_graph(graph, order=None) -> NativeGraphPlan:
    """Partition *graph* into native segments and simulator launches,
    and give every image a native node touches an ``ext[]`` slot."""
    order = list(order if order is not None else graph.topological_order())
    lowerings: List[NodeLowering] = []
    reasons: Dict[str, str] = {}
    for i, node in enumerate(order):
        reason = native_ineligibility(node)
        if reason is None:
            try:
                lowerings.append(_lower_node(node, i))
                continue
            except CodegenError as exc:
                reason = f"cpu lowering failed: {exc}"
        reasons[node.name] = reason
        lowerings.append(NodeLowering(index=i, node=node, native=False,
                                      reason=reason))

    # maximal contiguous runs of native nodes become segments
    segments: List[List[int]] = []
    schedule: List[Tuple[str, int]] = []
    for lw in lowerings:
        if lw.native:
            if segments and schedule and schedule[-1][0] == "native":
                segments[-1].append(lw.index)
            else:
                segments.append([lw.index])
                schedule.append(("native", len(segments) - 1))
        else:
            schedule.append(("sim", lw.index))

    slots: Dict[int, int] = {}
    ext_images: List[Image] = []
    for lw in lowerings:
        if not lw.native:
            continue
        for img in [lw.node.output] + [a.image for a in
                                       lw.acc_objs.values()]:
            if id(img) not in slots:
                slots[id(img)] = len(ext_images)
                ext_images.append(img)

    return NativeGraphPlan(
        graph_name=graph.name,
        lowerings=lowerings,
        segments=segments,
        schedule=schedule,
        ext_images=ext_images,
        slots=slots,
        reasons=reasons,
    )


# --------------------------------------------------------------------------
# Emission
# --------------------------------------------------------------------------


def _call_line(lw: NodeLowering, slots: Dict[int, int]) -> str:
    node, ir = lw.node, lw.ir
    space = node.iteration_space
    out = slots[id(node.output)]
    out_t = ir.pixel_type.cuda_name
    args = [f"({out_t} *)ext[{out}]", f"ext_stride[{out}]"]
    for acc in ir.accessors:
        img = lw.acc_objs[acc.name].image
        slot = slots[id(img)]
        t = acc.pixel_type.cuda_name
        args += [f"(const {t} *)ext[{slot}]",
                 str(img.width), str(img.height), f"ext_stride[{slot}]"]
    args += [str(space.width), str(space.height),
             str(space.offset_x), str(space.offset_y)]
    for p in ir.params:
        if not p.baked:
            if p.type.is_float:
                args.append(c_float_literal(float(p.value), p.type))
            else:
                args.append(str(int(p.value)))
    return f"    {lw.unit.entry}({', '.join(args)});"


def emit_graph_source(plan: NativeGraphPlan) -> str:
    """The whole graph as one C99 translation unit."""
    lines: List[str] = [
        f"// pipeline graph {plan.graph_name!r}: generated by hipacc-py "
        "(native graph tier)",
        f"// {plan.native_count} native node(s), "
        f"{len(plan.segments)} segment(s), "
        f"{len(plan.ext_images)} image(s)",
    ]
    lines += cpu_common_preamble()
    lines.append("")
    for lw in plan.lowerings:
        if not lw.native:
            continue
        lines.append(f"// node {lw.node.name!r} ({lw.node.label()})")
        lines += lw.unit.decl_lines
        lines += lw.unit.func_lines
        lines.append("")
    for k, seg in enumerate(plan.segments):
        lines.append(f"void repro_graph_seg{k}(void * const *ext, "
                     "const int *ext_stride) {")
        for idx in seg:
            lw = plan.lowerings[idx]
            lines.append(f"    // node {lw.node.name!r}")
            lines.append(_call_line(lw, plan.slots))
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Fingerprinting
# --------------------------------------------------------------------------


def graph_fingerprint(plan: NativeGraphPlan, cc: str) -> str:
    """sha256 content address of the native compilation: canonical IRs,
    topology/segments, pointer-table slots, codegen options, compiler
    version, flags and the target ISA the flags resolve to.
    Any change that could alter the emitted TU or its ABI changes the
    fingerprint, so stale ``.so`` artifacts can never be resurrected."""
    nodes = []
    for lw in plan.lowerings:
        if not lw.native:
            continue
        space = lw.node.iteration_space
        images = [[plan.slots[id(img)], img.width, img.height,
                   img.pixel_type.name]
                  for img in ([lw.node.output]
                              + [lw.acc_objs[a.name].image
                                 for a in lw.ir.accessors])]
        params = [[p.name, repr(float(p.value) if p.type.is_float
                                else int(p.value))]
                  for p in lw.ir.params if not p.baked]
        nodes.append([lw.index, canonical_ir(lw.ir),
                      [space.width, space.height,
                       space.offset_x, space.offset_y],
                      images, params])
    doc = {
        "kind": "native-graph",
        "format": NATIVE_GRAPH_FORMAT,
        "version": __version__,
        "cc": compiler_signature(cc, CC_FLAGS),
        "flags": list(CC_FLAGS),
        "nodes": nodes,
        "segments": plan.segments,
    }
    blob = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------
# Compilation (workdir -> artifact store -> fresh compile)
# --------------------------------------------------------------------------


@dataclasses.dataclass
class NativeGraphModule:
    """A compiled-and-loaded native graph, ready to execute."""

    plan: NativeGraphPlan
    fingerprint: str
    library_path: str
    source: str
    #: where the loaded ``.so`` came from: "workdir" (materialised file
    #: from an earlier run), "store" (artifact cache), or "fresh"
    #: (C compiler invoked this call)
    origin: str
    entries: List[str]
    _lib: ctypes.CDLL = dataclasses.field(repr=False, default=None)

    def executor(self) -> "NativeGraphExecutor":
        """Per-run state: the pointer and row-stride tables."""
        return NativeGraphExecutor(self)


class NativeGraphExecutor:
    """Per-execution state: a pointer table and a row stride table over
    the plan's images, which segments read and write in their own
    storage.  Both tables are refilled before every call: a memory plan
    binds an intermediate to its arena view, between segments a
    simulator launch may re-pad an image
    (:meth:`~repro.dsl.image.Image.apply_padding`), and
    ``set_data``/``clear`` replace its storage."""

    def __init__(self, module: NativeGraphModule):
        self.module = module
        slots = len(module.plan.ext_images)
        self._ptrs = (ctypes.c_void_p * slots)()
        self._strides = (ctypes.c_int * slots)()

    def run_segment(self, k: int) -> None:
        for j, img in enumerate(self.module.plan.ext_images):
            pixels = img.pixels
            if not pixels.flags.writeable:
                # released storage (a zero-stride broadcast view) reads
                # as zeros; fresh zeroed storage reads the same and is a
                # whole frame C may address
                pixels = img.clear().pixels
            self._ptrs[j] = pixels.ctypes.data
            self._strides[j] = img.stride
        fn = getattr(self.module._lib, self.module.entries[k])
        fn(self._ptrs, self._strides)


def compile_native_graph(graph, order=None,
                         cache: Optional[CompilationCache] = None,
                         cc: Optional[str] = None) -> NativeGraphModule:
    """Plan, fingerprint and load the native module for *graph*.

    Resolution order — materialised ``.so`` in the workdir, then the
    artifact *cache*, then a fresh ``cc`` invocation; the first two
    never spawn a subprocess, which is what keeps warm starts free of
    compiler invocations.
    Raises :class:`CodegenError` when no compiler is on PATH or no node
    is native-eligible (callers fall back to the simulator).
    """
    cc = cc or find_c_compiler()
    if cc is None:
        raise CodegenError("no C compiler found on PATH")
    with span("native.compile", graph=graph.name) as sp:
        plan = plan_native_graph(graph, order)
        if plan.native_count == 0:
            raise CodegenError(
                "no native-eligible nodes in graph "
                f"{graph.name!r}: " + "; ".join(
                    f"{n}: {r}" for n, r in sorted(plan.reasons.items())))
        source = emit_graph_source(plan)
        fingerprint = graph_fingerprint(plan, cc)
        key = f"ng_{fingerprint}"
        entries = [f"repro_graph_seg{k}"
                   for k in range(len(plan.segments))]
        workdir = native_workdir("hipacc_py_native_graph")
        so_path = os.path.join(workdir, f"graph_{fingerprint[:16]}.so")

        lib = None
        origin = "fresh"
        if os.path.exists(so_path):
            try:
                lib = ctypes.CDLL(so_path)
                origin = "workdir"
            except OSError:
                # stale or truncated .so: heal by falling through
                try:
                    os.unlink(so_path)
                except OSError:
                    pass
        if lib is None and cache is not None:
            hit = cache.get_artifact(key)
            if hit is not None:
                payload, blob = hit
                if (payload.get("kind") == "native-graph"
                        and payload.get("format") == NATIVE_GRAPH_FORMAT):
                    write_atomic(so_path, blob)
                    try:
                        lib = ctypes.CDLL(so_path)
                        origin = "store"
                    except OSError:
                        cache.invalidate(key)
                        try:
                            os.unlink(so_path)
                        except OSError:
                            pass
                else:
                    cache.invalidate(key)
        if lib is None:
            c_path = so_path[:-3] + ".c"
            write_atomic(c_path, source)
            # a half-written so_path would fail another process's CDLL
            # and be healed away (unlinked) while cc is still writing it
            with replacing(so_path) as tmp:
                result = subprocess.run(
                    [cc, *CC_FLAGS, c_path, "-o", tmp, "-lm"],
                    capture_output=True, text=True, timeout=240)
                if result.returncode != 0:
                    raise CodegenError(
                        "native graph compilation failed:\n"
                        f"{result.stderr}")
            lib = ctypes.CDLL(so_path)
            origin = "fresh"
            if cache is not None:
                with open(so_path, "rb") as fh:
                    blob = fh.read()
                cache.put_artifact(key, {
                    "kind": "native-graph",
                    "format": NATIVE_GRAPH_FORMAT,
                    "cc": compiler_signature(cc, CC_FLAGS),
                    "entries": entries,
                    "source_sha256":
                        hashlib.sha256(source.encode()).hexdigest(),
                }, blob)

        for entry in entries:
            fn = getattr(lib, entry)
            fn.restype = None
            fn.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                           ctypes.POINTER(ctypes.c_int)]
        sp.attrs.update(origin=origin, segments=len(plan.segments),
                        native_nodes=plan.native_count)
        return NativeGraphModule(plan=plan, fingerprint=fingerprint,
                                 library_path=so_path, source=source,
                                 origin=origin, entries=entries,
                                 _lib=lib)
