"""Content-addressed cache keys (paper Sections IV-V).

The compilation pipeline is a pure function of (kernel IR, codegen
options, device, backend, package version): the same inputs always
produce byte-identical generated sources and the same Algorithm-2
configuration.  That makes its results content-addressable.  This module
produces the addresses:

* :func:`canonical_ir` — a deterministic, process-independent nested-list
  rendering of a :class:`~repro.ir.nodes.KernelIR` (floats via
  ``float.hex()``, numpy coefficient arrays via a digest of their raw
  bytes, types by name — never ``id()`` or ``hash()``, which are
  randomised per process);
* :func:`ir_digest` / :func:`device_signature` / :func:`compute_key` —
  the sha256 composition used by the compilation cache;
* :func:`kernel_fingerprint` — a *pre-parse* fingerprint of a DSL
  :class:`~repro.dsl.kernel.Kernel` instance covering everything the
  frontend consumes (kernel-method source, scalar attributes, accessor /
  mask / domain metadata, the iteration-space output pixel type, numeric
  module globals).  It front-ends an
  in-memory memo so a warm compile skips re-parsing entirely; when an
  attribute cannot be fingerprinted soundly the function returns ``None``
  and the caller falls back to a full parse (correct, just slower).

Non-baked (:class:`~repro.dsl.kernel.Uniform`) parameter *values* are
excluded from the IR digest: they become kernel arguments, never code
bytes, so two compiles differing only in a uniform value share one cache
entry.  Everything that can reach the generated source — baked constants,
mask coefficients, boundary constants, window shapes — is included.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import inspect
import json
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ..hwmodel.device import DeviceSpec
from .serialize import ENTRY_FORMAT
from ..ir.nodes import (
    AccessorInfo,
    Assign,
    Expr,
    ForRange,
    If,
    KernelIR,
    MaskInfo,
    OutputWrite,
    ParamInfo,
    Stmt,
    VarDecl,
)

#: bump to invalidate every existing cache entry on a format change
KEY_SCHEMA_VERSION = 1


def _scalar(value: Any) -> Any:
    """Canonical JSON-able form of one scalar leaf value."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.floating):
        return float(value).hex()
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"cannot canonicalise scalar {type(value).__name__}")


def array_digest(arr: np.ndarray) -> str:
    """Digest of a numpy array: shape, dtype and raw element bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def canonical_expr(e: Expr) -> List[Any]:
    """Nested-list rendering of an expression, stable across processes."""
    fields: List[Any] = [type(e).__name__]
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        if isinstance(value, Expr):
            fields.append(canonical_expr(value))
        elif isinstance(value, (tuple, list)):
            fields.append([canonical_expr(v) if isinstance(v, Expr)
                           else _scalar(v) for v in value])
        elif value is not None and f.name in ("type", "target"):
            fields.append([f.name, value.name])       # ScalarType by name
        else:
            fields.append(_scalar(value) if not isinstance(value, Expr)
                          else canonical_expr(value))
    return fields


def canonical_stmt(s: Stmt) -> List[Any]:
    if isinstance(s, VarDecl):
        return ["VarDecl", s.name, canonical_expr(s.init),
                s.type.name if s.type else None]
    if isinstance(s, Assign):
        return ["Assign", s.name, canonical_expr(s.value)]
    if isinstance(s, If):
        return ["If", canonical_expr(s.cond),
                [canonical_stmt(b) for b in s.then_body],
                [canonical_stmt(b) for b in s.else_body]]
    if isinstance(s, ForRange):
        return ["ForRange", s.var, canonical_expr(s.start),
                canonical_expr(s.stop), canonical_expr(s.step),
                [canonical_stmt(b) for b in s.body]]
    if isinstance(s, OutputWrite):
        return ["OutputWrite", canonical_expr(s.value)]
    raise TypeError(f"cannot canonicalise statement {type(s).__name__}")


def _canonical_accessor(a: AccessorInfo) -> List[Any]:
    # the two False slots held read/write flags the IR no longer carries;
    # keeping them keeps every cache key, native fingerprint and persisted
    # tuned-database key byte-identical to the ones already on disk
    return ["accessor", a.name, a.pixel_type.name, a.boundary_mode,
            float(a.boundary_constant).hex(), list(a.window),
            False, False, a.interpolation,
            list(a.out_size) if a.out_size else None]


def _canonical_mask(m: MaskInfo) -> List[Any]:
    coeff = (array_digest(np.asarray(m.coefficients))
             if m.coefficients is not None else None)
    return ["mask", m.name, m.pixel_type.name, list(m.size), coeff,
            bool(m.compile_time_constant)]


def _canonical_param(p: ParamInfo) -> List[Any]:
    # non-baked params are kernel *arguments*: their value never reaches
    # the generated source, so it must not split cache entries
    value = _scalar(p.value) if p.baked else None
    return ["param", p.name, p.type.name, value, bool(p.baked)]


def canonical_ir(ir: KernelIR) -> List[Any]:
    """Deterministic nested-list rendering of a whole kernel IR."""
    return [
        "KernelIR", ir.name, ir.pixel_type.name,
        [_canonical_accessor(a) for a in ir.accessors],
        [_canonical_mask(m) for m in ir.masks],
        [_canonical_param(p) for p in ir.params],
        [canonical_stmt(s) for s in ir.body],
    ]


def ir_digest(ir: KernelIR) -> str:
    """sha256 of the canonicalised IR."""
    blob = json.dumps(canonical_ir(ir), separators=(",", ":"),
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def device_signature(device: DeviceSpec) -> Dict[str, Any]:
    """JSON-able rendering of a DeviceSpec (all model fields)."""
    raw = dataclasses.asdict(device)

    def scrub(value):
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in sorted(value.items())}
        if isinstance(value, (tuple, list)):
            return [scrub(v) for v in value]
        if isinstance(value, float):
            return float(value).hex()
        return value

    return scrub(raw)


def compute_key(ir_dig: str, device: DeviceSpec, backend: str,
                request: Mapping[str, Any], version: str) -> str:
    """The content address of one (kernel, device, options) compile.

    *request* holds every codegen knob as resolved before the expensive
    pipeline stages run, with ``"auto"`` marking decisions delegated to
    Algorithm 2 (the block configuration).  Geometry belongs in *request*
    too — the region-dispatch constants in the generated source depend on
    the iteration-space size.
    """
    payload = {
        "schema": KEY_SCHEMA_VERSION,
        # entries of another layout must never be looked up: folding the
        # format into the key turns an ENTRY_FORMAT bump into a cache miss
        # for pre-existing on-disk stores instead of a decode error
        "entry_format": ENTRY_FORMAT,
        "version": version,
        "backend": backend,
        "ir": ir_dig,
        "device": device_signature(device),
        "request": {k: _scalar(v) if not isinstance(v, (list, tuple))
                    else [_scalar(x) for x in v]
                    for k, v in sorted(request.items())},
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------
# Pre-parse kernel fingerprinting (warm-path frontend memo)
# --------------------------------------------------------------------------

_CLASS_SOURCE_CACHE: Dict[type, Optional[str]] = {}


def _class_kernel_source(cls: type) -> Optional[str]:
    """Source of ``cls.kernel`` (what the frontend parses), memoised."""
    if cls not in _CLASS_SOURCE_CACHE:
        try:
            src = inspect.getsource(cls.kernel)
        except (OSError, TypeError):
            src = None
        _CLASS_SOURCE_CACHE[cls] = src
    return _CLASS_SOURCE_CACHE[cls]


def kernel_fingerprint(kernel, bake_params: bool = True) -> Optional[str]:
    """Fingerprint of everything :func:`repro.frontend.parser.parse_kernel`
    consumes from *kernel*, computed without parsing.

    Returns ``None`` when any input cannot be fingerprinted soundly
    (kernel source unavailable, unexpected attribute kinds) — the caller
    must then run the real frontend.
    """
    from ..dsl.accessor import Accessor
    from ..dsl.domain import Domain
    from ..dsl.kernel import Uniform
    from ..dsl.mask import Mask

    cls = type(kernel)
    source = _class_kernel_source(cls)
    if source is None:
        return None

    h = hashlib.sha256()
    h.update(f"{cls.__module__}.{cls.__qualname__}\n".encode())
    h.update(source.encode())
    h.update(b"baked" if bake_params else b"uniform")

    try:
        # the parser reads the output pixel type off the iteration space
        # (KernelIR.pixel_type); geometry stays out — it never reaches the
        # IR, and compute_key() hashes it separately via the request
        h.update(json.dumps(
            ["iteration_space",
             kernel.iteration_space.pixel_type.name]).encode())
        for name in sorted(vars(kernel)):
            if name.startswith("_") or name == "iteration_space":
                continue
            value = vars(kernel)[name]
            if isinstance(value, Accessor):
                from ..dsl.interpolate import InterpolatedAccessor
                part = ["acc", name, value.pixel_type.name,
                        value.boundary_mode.value,
                        float(value.boundary_constant or 0.0).hex(),
                        list(value.window)]
                if isinstance(value, InterpolatedAccessor):
                    part += [value.interpolation.value,
                             value.out_width, value.out_height]
                h.update(json.dumps(part).encode())
            elif isinstance(value, Mask):
                coeff = (array_digest(np.asarray(value.coefficients))
                         if value.is_set else "unset")
                h.update(json.dumps(
                    ["mask", name, value.pixel_type.name,
                     list(value.size), coeff,
                     bool(value.compile_time_constant)]).encode())
            elif isinstance(value, Domain):
                h.update(json.dumps(
                    ["domain", name, list(value.size),
                     array_digest(np.asarray(value._enabled))]).encode())
            elif isinstance(value, Uniform):
                h.update(json.dumps(
                    ["uniform", name, value.type.name,
                     _scalar(value.value)]).encode())
            elif isinstance(value, (bool, int, float, np.integer,
                                    np.floating)):
                h.update(json.dumps(
                    ["scalar", name, _scalar(value)]).encode())
            elif isinstance(value, (str, type(None))):
                continue              # invisible to the frontend
            else:
                return None           # unknown kind: don't guess
    except (TypeError, AttributeError):
        return None

    # free numeric names in the kernel method's module are baked into the
    # IR (paper: "Free module-level numeric names are baked too")
    fn_globals = getattr(cls.kernel, "__globals__", {})
    numeric = {k: _scalar(v) for k, v in fn_globals.items()
               if isinstance(v, (bool, int, float))
               and not k.startswith("__")}
    h.update(json.dumps(sorted(numeric.items())).encode())
    return h.hexdigest()
