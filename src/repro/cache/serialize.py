"""(De)serialisation of compilation artifacts for the cache.

A cache entry captures everything :func:`repro.runtime.compile_kernel`
produces downstream of the frontend: the generated
:class:`~repro.backends.base.KernelSource`, the resolved
:class:`~repro.backends.base.CodegenOptions` (including the Algorithm-2
block selection), the estimated
:class:`~repro.hwmodel.resources.ResourceUsage`, and the selected
occupancy.  Entries round-trip through plain JSON-able dicts so the
on-disk store needs no pickle and stays inspectable with a text editor.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict

from ..backends.base import CodegenOptions, KernelSource
from ..hwmodel.resources import ResourceUsage
from ..ir.analysis import InstructionMix

#: bump when the entry layout changes; readers reject other versions
ENTRY_FORMAT = 1


def options_to_dict(options: CodegenOptions) -> Dict[str, Any]:
    """Every :class:`CodegenOptions` field, in declaration order."""
    data = {}
    for f in dataclasses.fields(CodegenOptions):
        value = getattr(options, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        data[f.name] = value
    return data


def options_from_dict(data: Dict[str, Any]) -> CodegenOptions:
    # a missing field is a KeyError: the entry is undecodable, not partial
    return CodegenOptions(**{f.name: data[f.name]
                             for f in dataclasses.fields(CodegenOptions)})


def source_to_dict(source: KernelSource) -> Dict[str, Any]:
    return {
        "entry": source.entry,
        "device_code": source.device_code,
        "host_code": source.host_code,
        "backend": source.backend,
        "smem_bytes": source.smem_bytes,
        "texture_refs": list(source.texture_refs),
        "constant_symbols": list(source.constant_symbols),
        "num_variants": source.num_variants,
    }


def source_from_dict(data: Dict[str, Any],
                     options: CodegenOptions) -> KernelSource:
    return KernelSource(
        entry=data["entry"],
        device_code=data["device_code"],
        host_code=data["host_code"],
        backend=data["backend"],
        options=options,
        smem_bytes=data["smem_bytes"],
        texture_refs=tuple(data["texture_refs"]),
        constant_symbols=tuple(data["constant_symbols"]),
        num_variants=data["num_variants"],
    )


def mix_to_dict(mix: InstructionMix) -> Dict[str, Any]:
    return {
        "alu": mix.alu,
        "sfu": mix.sfu,
        "global_reads": mix.global_reads,
        "mask_reads": mix.mask_reads,
        "branches": mix.branches,
        "reads_by_accessor": dict(sorted(mix.reads_by_accessor.items())),
    }


def mix_from_dict(data: Dict[str, Any]) -> InstructionMix:
    return InstructionMix(
        alu=data["alu"],
        sfu=data["sfu"],
        global_reads=data["global_reads"],
        mask_reads=data["mask_reads"],
        branches=data["branches"],
        reads_by_accessor=dict(data["reads_by_accessor"]),
    )


def resources_to_dict(res: ResourceUsage) -> Dict[str, Any]:
    return {
        "registers_per_thread": res.registers_per_thread,
        "smem_bytes_per_block": res.smem_bytes_per_block,
        "instruction_mix": mix_to_dict(res.instruction_mix),
        "local_vars": res.local_vars,
        "max_expr_depth": res.max_expr_depth,
    }


def resources_from_dict(data: Dict[str, Any]) -> ResourceUsage:
    return ResourceUsage(
        registers_per_thread=data["registers_per_thread"],
        smem_bytes_per_block=data["smem_bytes_per_block"],
        instruction_mix=mix_from_dict(data["instruction_mix"]),
        local_vars=data["local_vars"],
        max_expr_depth=data["max_expr_depth"],
    )


def entry_to_dict(source: KernelSource, resources: ResourceUsage,
                  selected_occupancy: float) -> Dict[str, Any]:
    """One complete compile artifact, ready for the store."""
    return {
        "format": ENTRY_FORMAT,
        "kind": "compile",
        "options": options_to_dict(source.options),
        "source": source_to_dict(source),
        "resources": resources_to_dict(resources),
        "selected_occupancy": selected_occupancy,
    }


def entry_from_dict(data: Dict[str, Any]):
    """Rebuild (source, options, resources, selected_occupancy).

    Every reconstruction builds *fresh* objects — cached payloads are
    never handed out by reference, so a caller mutating its
    ``CompiledKernel`` cannot corrupt the cache.
    """
    if data.get("format") != ENTRY_FORMAT or data.get("kind") != "compile":
        raise ValueError("unrecognised cache entry format")
    options = options_from_dict(data["options"])
    source = source_from_dict(data["source"], options)
    resources = resources_from_dict(data["resources"])
    return source, options, resources, data["selected_occupancy"]
