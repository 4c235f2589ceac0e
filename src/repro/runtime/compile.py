"""The compilation driver — the ``hipacc`` compiler invocation.

Pipeline (paper Sections IV-V):

1. parse the kernel body (Clang stand-in: Python ``ast``) and type check;
2. apply IR optimizations (constant propagation, optional unrolling);
3. consult the optimization-selection database for the target
   (texture path, scratchpad staging, padding) unless overridden;
4. generate code once with default dispatch constants, estimate resource
   usage (the nvcc stand-in);
5. run Algorithm 2 to select block configuration and tiling;
6. regenerate the final code for the selected configuration.

With ``cache=`` the driver becomes content-addressed: the canonicalised
kernel IR, the resolved codegen options, the device model, the backend
and the package version are hashed into a key (:mod:`repro.cache.key`),
and a hit skips stages 2-6 entirely — the paper's framework re-generates
and re-tunes per kernel/device pair on every run, which auto-tuning
stacks such as ImageCL and IPMACC memoize for exactly this reason.  A
pre-parse kernel fingerprint additionally memoizes stage 1, so a warm
compile costs a hash and a dictionary lookup.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Optional, Tuple, Union

from ..backends.base import (
    BorderMode,
    CodegenOptions,
    MaskMemory,
    generate,
)
from ..cache.key import (
    compute_key,
    ir_digest,
    kernel_fingerprint,
)
from ..cache.serialize import entry_from_dict, entry_to_dict
from ..cache.store import CompilationCache, get_default_cache
from ..dsl.boundary import Boundary
from ..dsl.kernel import Kernel
from ..errors import DslError, MappingError
from ..frontend.parser import accessor_objects, parse_kernel
from ..hwmodel.database import get_device
from ..hwmodel.device import DeviceSpec
from ..hwmodel.occupancy import compute_occupancy
from ..hwmodel.resources import estimate_resources, smem_tile_bytes
from ..ir.analysis import max_window
from ..ir.typecheck import typecheck_kernel
from ..mapping.heuristic import select_configuration
from ..mapping.optdb import TunedDatabase, default_database
from ..obs import normalize_stage_timings, span
from .program import CompiledKernel

_DEFAULT_DEVICE = {"cuda": "Tesla C2050", "opencl": "Tesla C2050"}


def _lint_key(ir_dig: str, options) -> str:
    """Memo key for one lint run: the canonical-IR digest plus every
    input the passes are sensitive to (block shape, smem staging)."""
    block = options.block
    return f"{ir_dig}:b{block[0]}x{block[1]}:s{int(options.use_smem)}"


def _verify(ir, options, *, strict: bool, timings,
            store=None, ir_dig=None) -> list:
    """The always-on compile-time verify (:mod:`repro.lint`).

    Runs the cheap kernel-level passes against the resolved
    configuration, delivers the findings to any active
    :func:`repro.lint.collecting` sinks, and — only with
    ``strict=True`` — rejects the compile when anything at warning
    severity or above fired.  By default findings are attached to the
    :class:`CompiledKernel` without affecting compilation: kernels that
    lint dirty (e.g. deliberate out-of-bounds reads under UNDEFINED
    boundary handling) must still compile exactly as before.

    With a *store* and *ir_dig*, results memoise per
    :func:`_lint_key` in the :class:`CompilationCache`, so repeat
    compiles of a known kernel (above all, cache hits) skip the whole
    pipeline; the memoised findings are still emitted and still gate a
    ``strict`` compile.
    """
    from ..errors import LintError
    from ..lint import Severity, lint_ir
    from ..lint.collect import emit

    with span("compile.lint", kernel=ir.name) as sp:
        key = _lint_key(ir_dig, options) \
            if store is not None and ir_dig is not None else None
        diags = store.lint_get(key) if key is not None else None
        if diags is None:
            # the driver's IR is already typed: pass it as its own typed
            # counterpart so the verify never re-runs the typechecker
            diags = lint_ir(ir, typed=ir, block=options.block,
                            use_smem=options.use_smem)
            if key is not None:
                store.lint_put(key, diags)
        emit(diags)
    timings["lint_ms"] = sp.duration_ms
    if strict:
        worst = [d for d in diags if d.severity >= Severity.WARNING]
        if worst:
            raise LintError(
                "strict compile rejected kernel "
                f"{ir.name!r}: {len(worst)} finding(s) at warning "
                "severity or above:\n"
                + "\n".join(d.format() for d in worst),
                diagnostics=diags)
    return diags


def _resolve_device(device: Union[None, str, DeviceSpec],
                    backend: str) -> DeviceSpec:
    if isinstance(device, DeviceSpec):
        return device
    if device is None:
        device = _DEFAULT_DEVICE[backend]
    return get_device(device)


def _resolve_cache(cache: Union[None, bool, CompilationCache]
                   ) -> Optional[CompilationCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return get_default_cache()
    return cache


def compile_kernel(kernel: Kernel,
                   backend: str = "cuda",
                   device: Union[None, str, DeviceSpec] = None,
                   block: Optional[Tuple[int, int]] = None,
                   border: Union[str, BorderMode, None] = None,
                   use_texture: Optional[bool] = None,
                   use_smem: Optional[bool] = None,
                   mask_memory: Union[str, MaskMemory] = MaskMemory.CONSTANT,
                   unroll: bool = False,
                   fold_constants: bool = True,
                   fast_math: bool = False,
                   emit_config_macros: bool = False,
                   vectorize: int = 1,
                   pixels_per_thread: int = 1,
                   bake_params: bool = True,
                   cache: Union[None, bool, CompilationCache] = None,
                   strict: bool = False,
                   tuned: Union[None, bool, TunedDatabase] = None,
                   tuned_engine: str = "sim"
                   ) -> CompiledKernel:
    """Compile *kernel* for *backend*/*device* (see module docstring).

    Parameters left ``None`` are decided by the optimization database
    (texture, scratchpad) or — when no measured winner is on file — by
    Algorithm 2 (block configuration).

    *tuned* selects the measured-winner store consulted before
    Algorithm 2 (docs/TUNING.md): ``None``/``True`` use the
    process-wide :func:`repro.mapping.optdb.default_tuned_database`,
    ``False`` disables the lookup, or pass a
    :class:`~repro.mapping.optdb.TunedDatabase` directly.
    *tuned_engine* names the execution tier the compile is for
    (``"sim"``/``"native"``) so a winner tuned for that tier is
    preferred.

    Every compile runs the cheap :mod:`repro.lint` verify passes and
    attaches the findings to ``CompiledKernel.diagnostics``; with
    ``strict=True`` any finding at warning severity or above raises
    :class:`~repro.errors.LintError` instead of producing a kernel.

    *cache* enables the content-addressed compilation cache: ``True``
    uses the process-wide default (:func:`repro.cache.get_default_cache`,
    honoring ``REPRO_CACHE_DIR``), or pass a
    :class:`~repro.cache.CompilationCache` directly.  Cached artifacts
    are byte-identical to fresh compiles; ``CompiledKernel.from_cache``
    and ``.stage_timings`` report what happened.
    """
    t_start = time.perf_counter()
    if not isinstance(kernel, Kernel):
        raise DslError("compile_kernel expects a Kernel instance")
    dev = _resolve_device(device, backend)
    if not dev.supports_backend(backend):
        raise DslError(
            f"{dev.name} does not support the {backend} backend")
    store = _resolve_cache(cache)

    timings: Dict[str, float] = {}

    with span("compile", backend=backend, device=dev.name) as root:
        # ---- stage 1: frontend (memoised by kernel fingerprint) -----------
        with span("compile.frontend") as sp:
            ir = None
            ir_dig = None
            fingerprint = None
            if store is not None:
                fingerprint = kernel_fingerprint(kernel,
                                                 bake_params=bake_params)
                if fingerprint is not None:
                    memo = store.frontend_get(fingerprint)
                    if memo is not None:
                        ir_dig, ir = memo
            if ir is None:
                ir = typecheck_kernel(
                    parse_kernel(kernel, bake_params=bake_params))
                if store is not None:
                    ir_dig = ir_digest(ir)
                    if fingerprint is not None:
                        store.frontend_put(fingerprint, ir_dig, ir)
        timings["frontend_ms"] = sp.duration_ms
        root.attrs["kernel"] = ir.name

        return _compile_from_ir(
            ir, accessor_objects(kernel), kernel.iteration_space,
            dev=dev, backend=backend, block=block, border=border,
            use_texture=use_texture, use_smem=use_smem,
            mask_memory=mask_memory, unroll=unroll,
            fold_constants=fold_constants, fast_math=fast_math,
            emit_config_macros=emit_config_macros, vectorize=vectorize,
            pixels_per_thread=pixels_per_thread, bake_params=bake_params,
            store=store, ir_dig=ir_dig, timings=timings, t_start=t_start,
            strict=strict, root_span=root, tuned=tuned,
            tuned_engine=tuned_engine)


def compile_ir(ir,
               accessors: Dict[str, "Accessor"],
               iteration_space,
               backend: str = "cuda",
               device: Union[None, str, DeviceSpec] = None,
               block: Optional[Tuple[int, int]] = None,
               border: Union[str, BorderMode, None] = None,
               use_texture: Optional[bool] = None,
               use_smem: Optional[bool] = None,
               mask_memory: Union[str, MaskMemory] = MaskMemory.CONSTANT,
               unroll: bool = False,
               fold_constants: bool = True,
               fast_math: bool = False,
               emit_config_macros: bool = False,
               vectorize: int = 1,
               pixels_per_thread: int = 1,
               cache: Union[None, bool, CompilationCache] = None,
               strict: bool = False,
               tuned: Union[None, bool, TunedDatabase] = None,
               tuned_engine: str = "sim"
               ) -> CompiledKernel:
    """Compile a *type-checked* :class:`~repro.ir.nodes.KernelIR` directly,
    skipping the Python frontend.

    This is the entry point for synthesized kernels — notably the graph
    runtime's fused point operators (:mod:`repro.graph.fusion`), whose IR
    never existed as a ``Kernel.kernel()`` method.  *accessors* binds the
    IR's accessor names to live :class:`~repro.dsl.Accessor` objects and
    *iteration_space* supplies the launch geometry and output image.
    Caching is content-addressed on the IR digest, exactly as in
    :func:`compile_kernel`.
    """
    t_start = time.perf_counter()
    dev = _resolve_device(device, backend)
    if not dev.supports_backend(backend):
        raise DslError(
            f"{dev.name} does not support the {backend} backend")
    store = _resolve_cache(cache)
    with span("compile", kernel=ir.name, backend=backend,
              device=dev.name) as root:
        ir_dig = ir_digest(ir) if store is not None else None
        return _compile_from_ir(
            ir, dict(accessors), iteration_space,
            dev=dev, backend=backend, block=block, border=border,
            use_texture=use_texture, use_smem=use_smem,
            mask_memory=mask_memory, unroll=unroll,
            fold_constants=fold_constants, fast_math=fast_math,
            emit_config_macros=emit_config_macros, vectorize=vectorize,
            pixels_per_thread=pixels_per_thread, bake_params=True,
            store=store, ir_dig=ir_dig, timings={}, t_start=t_start,
            strict=strict, root_span=root, tuned=tuned,
            tuned_engine=tuned_engine)


def _compile_from_ir(ir, accessor_objs, iteration_space, *,
                     dev: DeviceSpec, backend: str,
                     block, border, use_texture, use_smem, mask_memory,
                     unroll, fold_constants, fast_math, emit_config_macros,
                     vectorize, pixels_per_thread, bake_params,
                     store, ir_dig, timings, t_start,
                     strict=False, root_span=None,
                     tuned=None, tuned_engine="sim") -> CompiledKernel:
    """Stages 2-6 of the driver, shared by :func:`compile_kernel` (after
    its frontend stage) and :func:`compile_ir` (no frontend at all).

    Stage wall-clocks are measured by :mod:`repro.obs` spans; *timings*
    is the dict view over them, normalised to the full
    :data:`~repro.obs.schema.STAGE_KEYS` schema before it reaches the
    :class:`CompiledKernel` so the cache-hit and fresh paths can never
    emit different key sets again.
    """
    # Algorithm 2 and CompiledKernel.window also cover the mask extents
    window = max_window(ir, *(m.size for m in ir.masks))
    geometry = (iteration_space.width, iteration_space.height)

    # optimization database decisions (Section V-B)
    entry = default_database().lookup(dev, backend)
    if use_texture is None:
        use_texture = bool(entry.texture_beneficial) if entry else False
        if vectorize > 1:
            use_texture = False   # vloadN needs buffers, not images
    if use_smem is None:
        use_smem = bool(entry.smem_beneficial) if entry else False
        if vectorize > 1:
            use_smem = False

    if border is None:
        has_bh = any(Boundary(a.boundary_mode) != Boundary.UNDEFINED
                     for a in ir.accessors)
        border_mode = BorderMode.SPECIALIZED if has_bh else BorderMode.NONE
    elif isinstance(border, BorderMode):
        border_mode = border
    else:
        border_mode = BorderMode(border)
    if isinstance(mask_memory, str):
        mask_memory = MaskMemory(mask_memory)

    # ---- tuned-configuration lookup (docs/TUNING.md) ----------------------
    # a measured winner for this exact kernel beats Algorithm 2's static
    # model.  Resolved *before* the cache key is formed and folded into
    # the request with "tuned" provenance, so a database change can never
    # serve a stale artifact through the cache and a tuned compile never
    # shares an entry with an explicit-block one (their select paths
    # differ).  The common case — empty default database — costs one
    # length check and nothing else.
    tuned_block = None
    if block is None and tuned is not False:
        tdb = tuned if isinstance(tuned, TunedDatabase) else None
        if tdb is None:
            from ..mapping.optdb import default_tuned_database
            tdb = default_tuned_database()
        if len(tdb):
            from ..mapping.tuner import TUNER_STATS
            fp = ir_dig if ir_dig is not None else ir_digest(ir)
            with span("tune.lookup", kernel=ir.name,
                      engine=tuned_engine) as sp:
                t_entry = tdb.lookup(fp, dev.name, backend, tuned_engine)
                hit = (t_entry is not None
                       and dev.valid_block(*t_entry.block))
                sp.attrs["hit"] = hit
            TUNER_STATS.bump("lookups")
            TUNER_STATS.bump("hits" if hit else "misses")
            if hit:
                tuned_block = (int(t_entry.block[0]),
                               int(t_entry.block[1]))

    # ---- cache lookup (single-flight per key) -----------------------------
    # the key lock held through *flight* serialises the miss -> compile
    # -> store window: when N threads race on one key, the first in
    # compiles while the rest block inside their cache_lookup span and
    # then read its stored entry as a hit — exactly one fresh compile
    key = None
    with contextlib.ExitStack() as flight:
        if store is not None:
            with span("compile.cache_lookup") as sp:
                from .. import __version__
                request = {
                    "geometry": list(geometry),
                    # "auto" = Algorithm 2 decides; a tuned block keeps
                    # its provenance in the key because the tuned select
                    # path (occupancy re-validation, possible fallback)
                    # is not the explicit-block path
                    "block": (list(block) if block is not None
                              else ["tuned"] + list(tuned_block)
                              if tuned_block is not None else "auto"),
                    "border": border_mode.value,
                    "use_texture": use_texture,
                    "use_smem": use_smem,
                    "mask_memory": (mask_memory.value
                                    if isinstance(mask_memory, MaskMemory)
                                    else mask_memory),
                    "unroll": unroll,
                    "fold_constants": fold_constants,
                    "fast_math": fast_math,
                    "emit_config_macros": emit_config_macros,
                    "vectorize": vectorize,
                    "pixels_per_thread": pixels_per_thread,
                    "bake_params": bake_params,
                }
                key = compute_key(ir_dig, dev, backend, request,
                                  __version__)
                flight.enter_context(store.locked(key))
                payload = store.get(key)
            timings["cache_lookup_ms"] = sp.duration_ms
            if payload is not None:
                try:
                    final, options, resources, selected_occ = \
                        entry_from_dict(payload)
                except (KeyError, TypeError, ValueError):
                    # an entry this build cannot decode (hand-edited
                    # file, foreign layout) is a miss: evict it so the
                    # recompile below re-stores a good one
                    store.invalidate(key)
                    payload = None
            if payload is not None:
                diags = _verify(ir, options, strict=strict,
                                timings=timings, store=store,
                                ir_dig=ir_dig)
                timings["total_ms"] = (time.perf_counter() - t_start) * 1e3
                timings = normalize_stage_timings(timings)
                if root_span is not None:
                    root_span.attrs["from_cache"] = True
                return CompiledKernel(
                    ir=ir,
                    source=final,
                    options=options,
                    device=dev,
                    resources=resources,
                    accessors=accessor_objs,
                    iteration_space=iteration_space,
                    window=window,
                    selected_occupancy=selected_occ,
                    cache_key=key,
                    from_cache=True,
                    stage_timings=timings,
                    diagnostics=diags,
                )

        options = CodegenOptions(
            backend=backend,
            use_texture=use_texture,
            border=border_mode,
            use_smem=use_smem,
            mask_memory=mask_memory,
            block=block or (128, 1),
            unroll=unroll,
            fold_constants=fold_constants,
            fast_math=fast_math,
            emit_config_macros=emit_config_macros,
            vectorize=vectorize,
            pixels_per_thread=pixels_per_thread,
        )

        # first pass: default configuration, to learn resource usage
        with span("compile.codegen_provisional") as sp:
            provisional = generate(ir, options, launch_geometry=geometry)
        timings["codegen_provisional_ms"] = sp.duration_ms
        smem_bytes = provisional.smem_bytes
        with span("compile.resources") as sp:
            resources = estimate_resources(
                ir, dev,
                use_texture=use_texture,
                use_smem=use_smem,
                border_variants=provisional.num_variants,
                smem_bytes=smem_bytes,
                unrolled=unroll,
            )
        timings["resources_ms"] = sp.duration_ms

        selected_occ = 0.0
        if block is None:
            with span("compile.select") as sp:
                if use_smem:
                    # staging tile size depends on the block; pass the
                    # default block's demand as the constraint
                    smem_for_select = smem_tile_bytes(options.block,
                                                      window, 4)
                else:
                    smem_for_select = 0
                if tuned_block is not None:
                    # measured winner from the tuned database: re-validate
                    # against this compile's actual resource usage (the
                    # entry is keyed per kernel, not per codegen options);
                    # an unlaunchable winner falls back to Algorithm 2 —
                    # a deterministic function of the keyed inputs, so
                    # the cache key stays sound
                    try:
                        occ = compute_occupancy(
                            dev, tuned_block[0], tuned_block[1],
                            resources.registers_per_thread,
                            smem_for_select)
                        options.block = tuned_block
                        selected_occ = occ.occupancy
                        sp.attrs["tuned"] = True
                    except MappingError:
                        tuned_block = None
                if tuned_block is None:
                    # Algorithm 2
                    selection = select_configuration(
                        dev, resources.registers_per_thread,
                        smem_for_select,
                        border_handling=(border_mode
                                         == BorderMode.SPECIALIZED
                                         and window != (1, 1)),
                        image_size=geometry,
                        window=window,
                    )
                    options.block = selection.block
                    selected_occ = selection.occupancy
            timings["select_ms"] = sp.duration_ms
            # regenerate with the final configuration (the paper
            # regenerates because the dispatch constants depend on the
            # tiling)
            with span("compile.codegen_final") as sp:
                final = generate(ir, options, launch_geometry=geometry)
            timings["codegen_final_ms"] = sp.duration_ms
        else:
            final = provisional

        if store is not None and key is not None:
            with span("compile.store") as sp:
                store.put(key,
                          entry_to_dict(final, resources, selected_occ))
            timings["store_ms"] = sp.duration_ms

        diags = _verify(ir, options, strict=strict, timings=timings,
                        store=store, ir_dig=ir_dig)
        timings["total_ms"] = (time.perf_counter() - t_start) * 1e3
        timings = normalize_stage_timings(timings)
        if root_span is not None:
            root_span.attrs["from_cache"] = False
        return CompiledKernel(
            ir=ir,
            source=final,
            options=options,
            device=dev,
            resources=resources,
            accessors=accessor_objs,
            iteration_space=iteration_space,
            window=window,
            selected_occupancy=selected_occ,
            cache_key=key,
            from_cache=False,
            stage_timings=timings,
            diagnostics=diags,
        )
