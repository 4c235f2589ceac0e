"""Declarative multi-kernel pipeline graphs (PR-2 subsystem).

Build a :class:`PipelineGraph` from DSL kernels (or a linear chain with
:func:`pipe`), then :meth:`~PipelineGraph.run` it: the scheduler fuses
adjacent point operators, compiles every node concurrently through one
shared compilation cache, then runs the nodes in order with every
intermediate image at a prepare-time offset in one arena.  See
docs/PIPELINES.md.
"""

from .builder import GraphNode, PipelineGraph, Stage, pipe, stage  # noqa: F401
from .fusion import FusionStats, fuse_point_ops, is_point_op  # noqa: F401
from .pool import BufferPool, PoolStats  # noqa: F401
from .report import GraphReport, NodeReport  # noqa: F401
from .scheduler import compile_graph, execute_graph  # noqa: F401
