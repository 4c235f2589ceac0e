"""CompiledKernel: the artifact :func:`repro.runtime.compile_kernel`
produces — generated sources, selected configuration, resource usage, and
handles to execute on the simulator or query the timing model."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..backends.base import CodegenOptions, KernelSource
from ..dsl.accessor import Accessor
from ..dsl.boundary import Boundary
from ..dsl.iteration_space import IterationSpace
from ..hwmodel.device import DeviceSpec
from ..hwmodel.resources import ResourceUsage
from ..ir.nodes import KernelIR
from ..obs import span
from ..sim.launch import LaunchResult, simulate_launch
from ..sim.timing import LaunchSpec, TimingBreakdown, estimate_time


@dataclasses.dataclass
class ExecutionReport:
    """Result of one simulated execution."""

    launch: LaunchResult
    timing: TimingBreakdown

    @property
    def time_ms(self) -> float:
        return self.timing.total_ms


@dataclasses.dataclass
class CompiledKernel:
    """A kernel after the full compilation pipeline."""

    ir: KernelIR
    source: KernelSource
    options: CodegenOptions
    device: DeviceSpec
    resources: ResourceUsage
    accessors: Dict[str, Accessor]
    iteration_space: IterationSpace
    window: Tuple[int, int]
    selected_occupancy: float = 0.0
    #: content address of this compile in the compilation cache (None when
    #: compiled without a cache); see docs/CACHING.md for key composition
    cache_key: Optional[str] = None
    #: True when this artifact was served from the cache rather than
    #: produced by running the pipeline
    from_cache: bool = False
    #: wall-clock milliseconds per pipeline stage for this compile.  A
    #: view over the ``compile.*`` spans (:mod:`repro.obs`): always the
    #: full :data:`~repro.obs.schema.TIMING_KEYS` schema, with stages
    #: this path skipped present as ``0.0`` — the cache-hit and fresh
    #: paths emit the identical key set (see docs/OBSERVABILITY.md)
    stage_timings: Dict[str, float] = dataclasses.field(
        default_factory=dict)
    #: lint findings from the always-on compile-time verify
    #: (:mod:`repro.lint`); populated on fresh and cached compiles alike
    diagnostics: list = dataclasses.field(default_factory=list)

    @property
    def compile_ms(self) -> float:
        """Total wall-clock time this compile took."""
        return self.stage_timings.get("total_ms", 0.0)

    # -- queries -------------------------------------------------------------

    @property
    def cuda_code(self) -> str:
        if self.source.backend != "cuda":
            raise ValueError("kernel was compiled for OpenCL")
        return self.source.device_code

    @property
    def opencl_code(self) -> str:
        if self.source.backend != "opencl":
            raise ValueError("kernel was compiled for CUDA")
        return self.source.device_code

    @property
    def device_code(self) -> str:
        return self.source.device_code

    @property
    def host_code(self) -> str:
        return self.source.host_code

    def dominant_boundary_mode(self) -> Boundary:
        for acc in self.ir.accessors:
            mode = Boundary(acc.boundary_mode)
            if mode != Boundary.UNDEFINED:
                return mode
        return Boundary.UNDEFINED

    def launch_spec(self, **overrides) -> LaunchSpec:
        spec = LaunchSpec.from_options(
            device=self.device,
            options=self.options,
            width=self.iteration_space.width,
            height=self.iteration_space.height,
            window=self.window,
            mix=self.resources.instruction_mix,
            boundary_mode=self.dominant_boundary_mode(),
            regs_per_thread=self.resources.registers_per_thread,
            smem_bytes_per_block=self.source.smem_bytes,
        )
        for key, value in overrides.items():
            setattr(spec, key, value)
        return spec

    # -- actions ---------------------------------------------------------------

    def estimate_time(self, **overrides) -> TimingBreakdown:
        """Modelled execution time on the target device."""
        return estimate_time(self.launch_spec(**overrides))

    def execute(self) -> ExecutionReport:
        """Run functionally on the simulated device and attach timing.

        The output lands in the iteration space's image (as the C++
        framework's ``execute()`` would leave it on the device).
        """
        with span("exec.launch", kernel=self.ir.name,
                  device=self.device.name):
            launch = simulate_launch(
                self.ir, self.accessors, self.iteration_space,
                self.options, self.device,
                regs_per_thread=self.resources.registers_per_thread,
                smem_per_block=self.source.smem_bytes,
            )
        with span("exec.timing", kernel=self.ir.name):
            timing = self.estimate_time()
        launch.estimated_ms = timing.total_ms
        return ExecutionReport(launch=launch, timing=timing)
