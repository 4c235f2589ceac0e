"""Declarative multi-kernel pipeline graphs.

The paper's applications are *chains* of compiled kernels (Section VI:
median -> Sobel-x/Sobel-y -> gradient magnitude; the multiresolution
filter), but the base runtime only knows single launches.
:class:`PipelineGraph` captures a whole chain declaratively: nodes are
DSL :class:`~repro.dsl.kernel.Kernel` instances (or synthesized fused
IR), edges are :class:`~repro.dsl.image.Image` dataflow — a node that
reads the image another node's iteration space writes depends on it.

Build-time validation catches what would otherwise surface as a launch
fault or silent corruption mid-pipeline: dataflow cycles, two kernels
writing the same image, and undefined-boundary reads that must go out of
bounds because the producer image is smaller than the consumer's
iteration space.

:func:`pipe` is the functional spelling for linear chains — it
allocates the intermediate images and wires accessors so application
code only names the stages.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dsl.accessor import Accessor
from ..dsl.boundary import Boundary, BoundaryCondition
from ..dsl.image import Image
from ..dsl.iteration_space import IterationSpace
from ..dsl.kernel import Kernel
from ..errors import GraphError
from ..frontend.parser import accessor_objects
from ..ir.nodes import KernelIR


@dataclasses.dataclass
class GraphNode:
    """One kernel launch in a pipeline.

    Regular nodes hold the DSL *kernel* instance; fused nodes (built by
    :mod:`repro.graph.fusion`) hold a synthesized *ir* plus the accessor
    bindings instead.  After execution the scheduler attaches the
    compiled artifact and the per-launch report.
    """

    name: str
    iteration_space: IterationSpace
    accessor_objs: Dict[str, Accessor]
    options: Dict[str, object]
    kernel: Optional[Kernel] = None
    ir: Optional[KernelIR] = None
    #: names of the original nodes a fused node replaces (empty otherwise)
    fused_from: Tuple[str, ...] = ()
    compiled: Optional[object] = None
    report: Optional[object] = None

    @property
    def output(self) -> Image:
        return self.iteration_space.image

    @property
    def inputs(self) -> List[Image]:
        seen: List[Image] = []
        for acc in self.accessor_objs.values():
            if not any(acc.image is img for img in seen):
                seen.append(acc.image)
        return seen

    @property
    def is_fused(self) -> bool:
        return self.ir is not None and self.kernel is None

    def label(self) -> str:
        if self.is_fused:
            return "+".join(self.fused_from) or self.name
        return type(self.kernel).__name__


class PipelineGraph:
    """A DAG of kernel launches over shared images.

    Usage::

        g = PipelineGraph("edge")
        g.add_kernel(median, device="Tesla C2050")
        g.add_kernel(sobel_x)
        g.add_kernel(sobel_y)
        g.add_kernel(magnitude)
        report = g.run(workers=2, cache=True)

    ``add_kernel`` infers the node's inputs from the kernel's Accessor
    attributes and its output from the iteration space; dependencies
    follow from image identity.  Compile options (``device``,
    ``backend``, ``block``...) are per node, so heterogeneous pipelines
    (e.g. one vectorized OpenCL stage on the AMD device) are a node
    argument away.
    """

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self.nodes: List[GraphNode] = []
        self._marked_outputs: List[Image] = []
        self._counter = 0

    # -- construction -------------------------------------------------------

    def add_kernel(self, kernel: Kernel, name: Optional[str] = None,
                   **options) -> GraphNode:
        """Add a DSL kernel as a node; *options* are forwarded to
        :func:`~repro.runtime.compile.compile_kernel` (``backend``,
        ``device``, ``block``, ``vectorize``...)."""
        if not isinstance(kernel, Kernel):
            raise GraphError("add_kernel expects a Kernel instance")
        if name is None:
            name = f"{type(kernel).__name__}_{self._counter}"
        if any(n.name == name for n in self.nodes):
            raise GraphError(f"duplicate node name {name!r}")
        self._counter += 1
        node = GraphNode(
            name=name,
            iteration_space=kernel.iteration_space,
            accessor_objs=accessor_objects(kernel),
            options=dict(options),
            kernel=kernel,
        )
        self._check_single_writer(node)
        self.nodes.append(node)
        return node

    def _check_single_writer(self, node: GraphNode) -> None:
        for other in self.nodes:
            if other.output is node.output:
                raise GraphError(
                    f"image {node.output.name!r} written by both "
                    f"{other.name!r} and {node.name!r}")

    def replace_nodes(self, removed: Sequence[GraphNode],
                      added: GraphNode) -> None:
        """Swap *removed* nodes for one *added* node (fusion), keeping
        schedule-relevant order stable."""
        indices = [self.nodes.index(n) for n in removed]
        insert_at = min(indices)
        for n in removed:
            self.nodes.remove(n)
        self.nodes.insert(insert_at, added)

    def mark_output(self, image: Image) -> None:
        """Pin *image* as a pipeline output: never placed in the arena
        and never eliminated by fusion, even if some node also consumes
        it."""
        if not any(image is img for img in self._marked_outputs):
            self._marked_outputs.append(image)

    # -- structure queries ---------------------------------------------------

    def producer_of(self, image: Image) -> Optional[GraphNode]:
        for n in self.nodes:
            if n.output is image:
                return n
        return None

    def consumers_of(self, image: Image) -> List[GraphNode]:
        return [n for n in self.nodes
                if any(inp is image for inp in n.inputs)]

    def dependencies(self, node: GraphNode) -> List[GraphNode]:
        deps = []
        for img in node.inputs:
            p = self.producer_of(img)
            if p is not None and p is not node and p not in deps:
                deps.append(p)
        return deps

    def inputs(self) -> List[Image]:
        """Images read by some node but produced by none."""
        out: List[Image] = []
        for n in self.nodes:
            for img in n.inputs:
                if self.producer_of(img) is None \
                        and not any(img is o for o in out):
                    out.append(img)
        return out

    def outputs(self) -> List[Image]:
        """Marked outputs plus sinks (written but never read)."""
        out = list(self._marked_outputs)
        for n in self.nodes:
            img = n.output
            if not self.consumers_of(img) \
                    and not any(img is o for o in out):
                out.append(img)
        return out

    def intermediates(self) -> List[Image]:
        """Images both produced and consumed inside the graph and not
        marked as outputs — the arena's tenants."""
        outs = self.outputs()
        result = []
        for n in self.nodes:
            img = n.output
            if self.consumers_of(img) and not any(img is o for o in outs):
                result.append(img)
        return result

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`GraphError` on cycles or shape-unsafe edges."""
        if not self.nodes:
            raise GraphError(f"pipeline {self.name!r} has no nodes")
        self.topological_order()         # raises on cycles
        for node in self.nodes:
            self._validate_shapes(node)

    def _validate_shapes(self, node: GraphNode) -> None:
        is_ = node.iteration_space
        for attr, acc in node.accessor_objs.items():
            from ..dsl.interpolate import InterpolatedAccessor
            if isinstance(acc, InterpolatedAccessor):
                continue             # resampling adapts any geometry
            img = acc.image
            if acc.boundary_mode == Boundary.UNDEFINED:
                wx, wy = acc.window
                if (is_.offset_x + is_.width + wx // 2 > img.width
                        or is_.offset_y + is_.height + wy // 2 > img.height):
                    raise GraphError(
                        f"node {node.name!r}: accessor {attr!r} reads "
                        f"{img.width}x{img.height} image {img.name!r} "
                        f"with undefined boundary handling but the "
                        f"iteration space needs "
                        f"{is_.offset_x + is_.width + wx // 2}x"
                        f"{is_.offset_y + is_.height + wy // 2} — add a "
                        f"BoundaryCondition or shrink the space")
            if img.pixel_type != acc.pixel_type:
                raise GraphError(
                    f"node {node.name!r}: accessor {attr!r} pixel type "
                    f"{acc.pixel_type.name} does not match image "
                    f"{img.name!r} ({img.pixel_type.name})")

    def topological_order(self) -> List[GraphNode]:
        """Kahn's algorithm over image dataflow; deterministic (insertion
        order breaks ties) and raising :class:`GraphError` on cycles."""
        indegree = {n.name: 0 for n in self.nodes}
        dependents: Dict[str, List[GraphNode]] = {n.name: []
                                                  for n in self.nodes}
        for n in self.nodes:
            for dep in self.dependencies(n):
                indegree[n.name] += 1
                dependents[dep.name].append(n)
        ready = [n for n in self.nodes if indegree[n.name] == 0]
        order: List[GraphNode] = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            for m in dependents[n.name]:
                indegree[m.name] -= 1
                if indegree[m.name] == 0:
                    ready.append(m)
        if len(order) != len(self.nodes):
            stuck = sorted(name for name, d in indegree.items() if d > 0)
            raise GraphError(
                f"pipeline {self.name!r} has a dataflow cycle through "
                f"{', '.join(stuck)}")
        return order

    # -- execution (delegates to the scheduler) ------------------------------

    def run(self, **kwargs):
        """Validate, optionally fuse, compile and execute the graph; see
        :func:`repro.graph.scheduler.execute_graph`."""
        from .scheduler import execute_graph
        return execute_graph(self, **kwargs)

    # -- export --------------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz rendering: kernels as boxes (fused ones doubled),
        images as ellipses, pipeline outputs bold."""
        outs = self.outputs()
        lines = [f'digraph "{self.name}" {{',
                 "  rankdir=LR;",
                 '  node [fontname="Helvetica"];']
        img_ids: Dict[int, str] = {}

        def img_id(img: Image) -> str:
            if id(img) not in img_ids:
                img_ids[id(img)] = f"img_{len(img_ids)}"
                shape_attr = "penwidth=2" \
                    if any(img is o for o in outs) else "penwidth=1"
                lines.append(
                    f'  {img_ids[id(img)]} [label="{img.name}\\n'
                    f'{img.width}x{img.height} {img.pixel_type.name}" '
                    f'shape=ellipse {shape_attr}];')
            return img_ids[id(img)]

        for i, n in enumerate(self.nodes):
            shape = "doubleoctagon" if n.is_fused else "box"
            lines.append(
                f'  k_{i} [label="{n.label()}" shape={shape}];')
            for img in n.inputs:
                lines.append(f"  {img_id(img)} -> k_{i};")
            lines.append(f"  k_{i} -> {img_id(n.output)};")
        lines.append("}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (f"PipelineGraph({self.name!r}, {len(self.nodes)} nodes, "
                f"{len(self.intermediates())} intermediates)")


# --------------------------------------------------------------------------
# Functional chain builder
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Stage:
    """One step of a :func:`pipe` chain.

    *factory* receives ``(iteration_space, accessor)`` and returns the
    Kernel; *window*/*boundary* describe the accessor the stage wants
    (``(1, 1)`` point stages get a plain Accessor)."""

    factory: Callable[[IterationSpace, Accessor], Kernel]
    window: Tuple[int, int] = (1, 1)
    boundary: Boundary = Boundary.CLAMP
    constant: float = 0.0
    name: Optional[str] = None


def stage(factory, window: Tuple[int, int] = (1, 1),
          boundary: Boundary = Boundary.CLAMP, constant: float = 0.0,
          name: Optional[str] = None) -> Stage:
    """Describe a :func:`pipe` stage: a local operator with its window and
    boundary mode, or (the default window) a point operator."""
    return Stage(factory, tuple(window), Boundary.coerce(boundary),
                 float(constant), name)


def pipe(source: Image, *stages, graph: Optional[PipelineGraph] = None,
         name: str = "pipe") -> Tuple[PipelineGraph, Image]:
    """Build a linear chain ``source -> stage1 -> ... -> stageN``.

    Each element of *stages* is a :func:`stage` descriptor or a bare
    factory callable (treated as a point stage).  Intermediate images are
    allocated automatically with the source's geometry and pixel type;
    the final image is marked as the pipeline output.  Returns
    ``(graph, output_image)``.
    """
    if not stages:
        raise GraphError("pipe() needs at least one stage")
    g = graph if graph is not None else PipelineGraph(name)
    current = source
    for i, st in enumerate(stages):
        if not isinstance(st, Stage):
            st = Stage(st)
        out = Image(current.width, current.height, current.pixel_type)
        wx, wy = st.window
        if (wx, wy) == (1, 1):
            acc = Accessor(current)
        else:
            acc = Accessor(BoundaryCondition(current, wx, wy,
                                             st.boundary,
                                             constant=st.constant))
        kernel = st.factory(IterationSpace(out), acc)
        g.add_kernel(kernel, name=st.name)
        current = out
    g.mark_output(current)
    return g, current
