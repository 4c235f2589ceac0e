"""Snapshot of the code generators' output, as sha256 digests.

``tests/data_codegen_digests.json`` pins the device and host code of:

* the 22 builtin kernels compiled for the six paper GPU targets
  (``compile_kernel`` with its defaults, Algorithm 2 picking the block);
* the same kernels under one option change each (``vectorize=4`` on
  OpenCL, ``use_smem``, ``use_texture``, ``border="inline"``,
  ``mask_memory="global"``, ``pixels_per_thread=2``);
* ``CpuBackend.generate`` of every builtin at a fixed geometry;
* a boundary sweep: the windowed builtins with their accessor switched
  to each boundary mode, lowered for CUDA, OpenCL and the CPU, and two
  kernels switched to each resampling mode, lowered for CUDA and
  OpenCL (the CPU's resampling helper is checked against the simulator
  by ``tests/test_native_execution.py``).

A lowering refactor that must not change generated code leaves every
entry equal.  An entry that raises records the exception instead.

Usage::

    PYTHONPATH=src python scripts/codegen_digests.py          # compare
    PYTHONPATH=src python scripts/codegen_digests.py --write  # refresh
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import sys
from typing import Callable, Dict

from repro.backends.base import CodegenOptions, generate
from repro.frontend import parse_kernel
from repro.ir import typecheck_kernel
from repro.lint.builtin import builtin_kernels
from repro.runtime.compile import compile_kernel

SNAPSHOT = (pathlib.Path(__file__).resolve().parent.parent / "tests"
            / "data_codegen_digests.json")

#: the paper's four GPUs as six device/backend targets
TARGETS = (
    ("Tesla C2050", "cuda"), ("Tesla C2050", "opencl"),
    ("Quadro FX 5800", "cuda"), ("Quadro FX 5800", "opencl"),
    ("Radeon HD 5870", "opencl"), ("Radeon HD 6970", "opencl"),
)

#: one option change each, on one target: (name, device, backend, options)
VARIANTS = (
    ("vectorize4", "Radeon HD 5870", "opencl", {"vectorize": 4}),
    ("smem", "Tesla C2050", "cuda", {"use_smem": True}),
    ("smem_cl", "Tesla C2050", "opencl", {"use_smem": True}),
    ("texture", "Tesla C2050", "cuda", {"use_texture": True}),
    ("texture_cl", "Tesla C2050", "opencl", {"use_texture": True}),
    ("inline", "Tesla C2050", "cuda", {"border": "inline"}),
    ("global_masks", "Tesla C2050", "cuda", {"mask_memory": "global"}),
    ("ppt2", "Tesla C2050", "cuda", {"pixels_per_thread": 2}),
)

#: geometry of every direct ``generate`` call
GEOMETRY = (320, 240)

#: (name, options) of the boundary and resampling sweeps
SWEEP_TARGETS = (
    ("cuda", {"backend": "cuda"}),
    ("cuda_smem", {"backend": "cuda", "use_smem": True}),
    ("cuda_texture", {"backend": "cuda", "use_texture": True}),
    ("cuda_inline", {"backend": "cuda", "border": "inline"}),
    ("opencl", {"backend": "opencl"}),
    ("opencl_vec4", {"backend": "opencl", "vectorize": 4}),
    ("opencl_smem", {"backend": "opencl", "use_smem": True}),
    ("cpu", {"backend": "cpu"}),
)
SWEEP_MODES = (("clamp", 0.0), ("repeat", 0.0), ("mirror", 0.0),
               ("constant", 0.25))
SWEEP_KERNELS = ("GaussianFilter", "BilateralFilter", "Median3x3")
INTERP_KERNELS = ("Scale", "GaussianFilter")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _entry(make: Callable) -> Dict[str, str]:
    try:
        src = make()
    except Exception as exc:  # the error is part of the snapshot
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"device": _digest(src.device_code),
            "host": _digest(src.host_code)}


def _with_accessors(ir, **changes):
    return dataclasses.replace(ir, accessors=[
        dataclasses.replace(a, **changes) for a in ir.accessors])


def compute() -> Dict[str, Dict[str, str]]:
    """Every snapshot entry, keyed by a readable case name."""
    out: Dict[str, Dict[str, str]] = {}
    kernels = builtin_kernels()
    irs = {}
    for k in kernels:
        name = type(k).__name__
        irs[name] = ir = typecheck_kernel(parse_kernel(k))
        for device, backend in TARGETS:
            out[f"compile/{name}/{device}/{backend}"] = _entry(
                lambda: compile_kernel(k, backend, device, cache=False,
                                       tuned=False).source)
        for variant, device, backend, opts in VARIANTS:
            out[f"variant/{name}/{variant}"] = _entry(
                lambda: compile_kernel(k, backend, device, cache=False,
                                       tuned=False, **opts).source)
        out[f"cpu/{name}"] = _entry(
            lambda: generate(ir, CodegenOptions(backend="cpu"), GEOMETRY))
    for name in SWEEP_KERNELS:
        for mode, constant in SWEEP_MODES:
            swept = _with_accessors(irs[name], boundary_mode=mode,
                                    boundary_constant=constant)
            for target, opts in SWEEP_TARGETS:
                out[f"border/{name}/{mode}/{target}"] = _entry(
                    lambda: generate(swept, CodegenOptions(**opts),
                                     GEOMETRY))
    for name in INTERP_KERNELS:
        for interp in ("nearest", "linear"):
            for mode, constant in SWEEP_MODES:
                swept = _with_accessors(
                    irs[name], boundary_mode=mode,
                    boundary_constant=constant, interpolation=interp,
                    out_size=GEOMETRY)
                for target in ("cuda", "opencl"):
                    out[f"interp/{name}/{interp}/{mode}/{target}"] = \
                        _entry(lambda: generate(
                            swept, CodegenOptions(backend=target),
                            GEOMETRY))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {SNAPSHOT.name} from this tree")
    args = parser.parse_args(argv)
    current = compute()
    if args.write:
        SNAPSHOT.write_text(json.dumps(current, indent=1, sort_keys=True)
                            + "\n")
        print(f"wrote {len(current)} entries to {SNAPSHOT}")
        return 0
    pinned = json.loads(SNAPSHOT.read_text())
    changed = sorted(k for k in pinned.keys() | current.keys()
                     if pinned.get(k) != current.get(k))
    for k in changed:
        print(f"changed: {k}")
    print(f"{len(changed)} of {len(pinned)} entries changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
