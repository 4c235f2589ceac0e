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

:func:`compile_kernel` runs stage 1 and :func:`compile_ir` starts from
an already type-checked IR; both then run the same body.  The lowering
options are :class:`~repro.backends.base.CodegenOptions` fields, passed
by name and listed nowhere else: the driver decides the four a caller
may leave ``None`` (``block``, ``border``, ``use_texture``,
``use_smem``) in one place, and the cache key and the stored entry walk
the dataclass's fields.

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
import dataclasses
import time
from typing import Any, Dict, Optional, Union

from ..backends.base import BorderMode, CodegenOptions, generate
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

#: the device of a compile that names none, whatever the backend; the
#: backend check then rejects a backend it lacks with the usual error
_DEFAULT_DEVICE = "Tesla C2050"


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
        device = _DEFAULT_DEVICE
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
                   *,
                   cache: Union[None, bool, CompilationCache] = None,
                   strict: bool = False,
                   tuned: Union[None, bool, TunedDatabase] = None,
                   tuned_engine: str = "sim",
                   bake_params: bool = True,
                   **options: Any) -> CompiledKernel:
    """Compile *kernel* for *backend*/*device* (see module docstring).

    *options* are :class:`~repro.backends.base.CodegenOptions` fields;
    an unknown name raises :class:`TypeError`.  ``block``, ``border``,
    ``use_texture`` and ``use_smem`` may be left ``None``: the
    optimization database decides texture and scratchpad, the
    accessors' boundary modes decide border handling, and — when no
    measured winner is on file — Algorithm 2 decides the block.

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
    if not isinstance(kernel, Kernel):
        raise DslError("compile_kernel expects a Kernel instance")
    return _compile(kernel, backend, device, cache, strict, tuned,
                    tuned_engine, bake_params, options)


def compile_ir(ir,
               accessors: Dict[str, "Accessor"],
               iteration_space,
               backend: str = "cuda",
               device: Union[None, str, DeviceSpec] = None,
               *,
               cache: Union[None, bool, CompilationCache] = None,
               strict: bool = False,
               tuned: Union[None, bool, TunedDatabase] = None,
               tuned_engine: str = "sim",
               **options: Any) -> CompiledKernel:
    """Compile a *type-checked* :class:`~repro.ir.nodes.KernelIR` directly,
    skipping the Python frontend.

    This is the entry point for synthesized kernels — notably the graph
    runtime's fused point operators (:mod:`repro.graph.fusion`), whose IR
    never existed as a ``Kernel.kernel()`` method.  *accessors* binds the
    IR's accessor names to live :class:`~repro.dsl.Accessor` objects and
    *iteration_space* supplies the launch geometry and output image.
    Every other argument means what it means for :func:`compile_kernel`;
    caching is content-addressed on the IR digest.
    """
    return _compile((ir, dict(accessors), iteration_space), backend,
                    device, cache, strict, tuned, tuned_engine, True,
                    options)


def _resolve_options(ir, dev: DeviceSpec, backend: str, block=None,
                     border=None, use_texture=None, use_smem=None,
                     **given: Any) -> CodegenOptions:
    """Decide the options a caller left ``None``; every other option
    goes to :class:`CodegenOptions` as given.  Texture and scratchpad
    come from the optimization database (Section V-B), border handling
    from the accessors' boundary modes, and the block stays at the
    dataclass default until Algorithm 2 or a tuned winner picks one."""
    options = CodegenOptions(backend=backend, **given)
    entry = default_database().lookup(dev, backend)
    scalar = options.vectorize <= 1   # vloadN needs plain buffers
    if use_texture is None:
        use_texture = bool(entry and entry.texture_beneficial) and scalar
    if use_smem is None:
        use_smem = bool(entry and entry.smem_beneficial) and scalar
    if border is None:
        border = (BorderMode.SPECIALIZED
                  if any(Boundary(a.boundary_mode) != Boundary.UNDEFINED
                         for a in ir.accessors)
                  else BorderMode.NONE)
    return dataclasses.replace(options, block=block or options.block,
                               border=border, use_texture=use_texture,
                               use_smem=use_smem)


def _compile(source, backend: str, device, cache, strict: bool, tuned,
             tuned_engine: str, bake_params: bool,
             given: Dict[str, Any]) -> CompiledKernel:
    """The driver behind both entry points.  *source* is a
    :class:`Kernel` (stage 1 runs, memoised by kernel fingerprint) or an
    ``(ir, accessors, iteration_space)`` triple (no frontend).

    Stage wall-clocks are measured by :mod:`repro.obs` spans; *timings*
    is the dict view over them, normalised to the full
    :data:`~repro.obs.schema.STAGE_KEYS` schema at the one exit the
    cache-hit and fresh paths share.
    """
    t_start = time.perf_counter()
    dev = _resolve_device(device, backend)
    if not dev.supports_backend(backend):
        raise DslError(
            f"{dev.name} does not support the {backend} backend")
    store = _resolve_cache(cache)
    timings: Dict[str, float] = {}

    with span("compile", backend=backend, device=dev.name) as root:
        if isinstance(source, Kernel):
            # ---- stage 1: frontend (memoised by kernel fingerprint) -------
            with span("compile.frontend") as sp:
                ir = ir_dig = fingerprint = None
                if store is not None:
                    fingerprint = kernel_fingerprint(
                        source, bake_params=bake_params)
                    if fingerprint is not None:
                        memo = store.frontend_get(fingerprint)
                        if memo is not None:
                            ir_dig, ir = memo
                if ir is None:
                    ir = typecheck_kernel(
                        parse_kernel(source, bake_params=bake_params))
                    if store is not None:
                        ir_dig = ir_digest(ir)
                        if fingerprint is not None:
                            store.frontend_put(fingerprint, ir_dig, ir)
            timings["frontend_ms"] = sp.duration_ms
            accessor_objs = accessor_objects(source)
            iteration_space = source.iteration_space
        else:
            ir, accessor_objs, iteration_space = source
            ir_dig = ir_digest(ir) if store is not None else None
        root.attrs["kernel"] = ir.name

        block = given.get("block")
        options = _resolve_options(ir, dev, backend, **given)
        # Algorithm 2 and CompiledKernel.window also cover the mask extents
        window = max_window(ir, *(m.size for m in ir.masks))
        geometry = (iteration_space.width, iteration_space.height)

        # ---- tuned-configuration lookup (docs/TUNING.md) ------------------
        # a measured winner for this exact kernel beats Algorithm 2's
        # static model.  Resolved *before* the cache key is formed and
        # folded into the request with "tuned" provenance, so a database
        # change can never serve a stale artifact through the cache and a
        # tuned compile never shares an entry with an explicit-block one
        # (their select paths differ).  The common case — empty default
        # database — costs one length check and nothing else.
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
                    t_entry = tdb.lookup(fp, dev.name, backend,
                                         tuned_engine)
                    hit = (t_entry is not None
                           and dev.valid_block(*t_entry.block))
                    sp.attrs["hit"] = hit
                TUNER_STATS.bump("lookups")
                TUNER_STATS.bump("hits" if hit else "misses")
                if hit:
                    tuned_block = (int(t_entry.block[0]),
                                   int(t_entry.block[1]))

        # ---- cache lookup (single-flight per key) -------------------------
        # the key lock held through *flight* serialises the miss ->
        # compile -> store window: when N threads race on one key, the
        # first in compiles while the rest block inside their
        # cache_lookup span and then read its stored entry as a hit —
        # exactly one fresh compile
        key = cached = None
        with contextlib.ExitStack() as flight:
            if store is not None:
                with span("compile.cache_lookup") as sp:
                    from .. import __version__
                    # every resolved option but the backend (keyed on its
                    # own); "auto" = Algorithm 2 decides the block, and a
                    # tuned block keeps its provenance because the tuned
                    # select path (occupancy re-validation, possible
                    # fallback) is not the explicit-block path
                    request = {f.name: getattr(options, f.name)
                               for f in dataclasses.fields(options)
                               if f.name != "backend"}
                    request["block"] = (
                        list(block) if block is not None
                        else ["tuned"] + list(tuned_block)
                        if tuned_block is not None else "auto")
                    request["geometry"] = list(geometry)
                    request["bake_params"] = bake_params
                    key = compute_key(ir_dig, dev, backend, request,
                                      __version__)
                    flight.enter_context(store.locked(key))
                    payload = store.get(key)
                timings["cache_lookup_ms"] = sp.duration_ms
                if payload is not None:
                    try:
                        cached = entry_from_dict(payload)
                    except (KeyError, TypeError, ValueError):
                        # an entry this build cannot decode (hand-edited
                        # file, foreign layout) is a miss: evict it so
                        # the recompile below re-stores a good one
                        store.invalidate(key)

            if cached is not None:
                final, options, resources, selected_occ = cached
            else:
                final, resources, selected_occ = _lower(
                    ir, options, dev, geometry, window, tuned_block,
                    timings, select=block is None)
                if key is not None:
                    with span("compile.store") as sp:
                        store.put(key, entry_to_dict(final, resources,
                                                     selected_occ))
                    timings["store_ms"] = sp.duration_ms

            diags = _verify(ir, options, strict=strict, timings=timings,
                            store=store, ir_dig=ir_dig)
        timings["total_ms"] = (time.perf_counter() - t_start) * 1e3
        root.attrs["from_cache"] = cached is not None

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
        from_cache=cached is not None,
        stage_timings=normalize_stage_timings(timings),
        diagnostics=diags,
    )


def _lower(ir, options: CodegenOptions, dev: DeviceSpec, geometry, window,
           tuned_block, timings, *, select: bool):
    """Stages 4-6: generate, estimate resources and — with *select* —
    pick the block (a tuned winner, else Algorithm 2) and regenerate.
    Sets ``options.block``; returns (source, resources, occupancy)."""
    # first pass: default configuration, to learn resource usage
    with span("compile.codegen_provisional") as sp:
        provisional = generate(ir, options, launch_geometry=geometry)
    timings["codegen_provisional_ms"] = sp.duration_ms
    with span("compile.resources") as sp:
        resources = estimate_resources(
            ir, dev,
            use_texture=options.use_texture,
            use_smem=options.use_smem,
            border_variants=provisional.num_variants,
            smem_bytes=provisional.smem_bytes,
            unrolled=options.unroll,
        )
    timings["resources_ms"] = sp.duration_ms
    if not select:
        return provisional, resources, 0.0

    with span("compile.select") as sp:
        # staging tile size depends on the block; pass the default
        # block's demand as the constraint
        smem_for_select = (smem_tile_bytes(options.block, window, 4)
                           if options.use_smem else 0)
        selected_occ = 0.0
        if tuned_block is not None:
            # measured winner from the tuned database: re-validate against
            # this compile's actual resource usage (the entry is keyed per
            # kernel, not per codegen options); an unlaunchable winner
            # falls back to Algorithm 2 — a deterministic function of the
            # keyed inputs, so the cache key stays sound
            try:
                occ = compute_occupancy(
                    dev, tuned_block[0], tuned_block[1],
                    resources.registers_per_thread, smem_for_select)
                options.block = tuned_block
                selected_occ = occ.occupancy
                sp.attrs["tuned"] = True
            except MappingError:
                tuned_block = None
        if tuned_block is None:
            # Algorithm 2
            selection = select_configuration(
                dev, resources.registers_per_thread, smem_for_select,
                border_handling=(options.border == BorderMode.SPECIALIZED
                                 and window != (1, 1)),
                image_size=geometry,
                window=window,
            )
            options.block = selection.block
            selected_occ = selection.occupancy
    timings["select_ms"] = sp.duration_ms
    # regenerate with the final configuration (the paper regenerates
    # because the dispatch constants depend on the tiling)
    with span("compile.codegen_final") as sp:
        final = generate(ir, options, launch_geometry=geometry)
    timings["codegen_final_ms"] = sp.duration_ms
    return final, resources, selected_occ
