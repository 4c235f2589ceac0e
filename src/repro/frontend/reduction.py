"""Frontend for global reductions: parse ``reduce(left, right)``.

The combine body uses the same restricted Python subset as kernels, with
two differences: the two parameters are in scope as values of the pixel
type, and the body ends with ``return <expr>`` instead of an ``output()``
write.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
from typing import List

from ..dsl.reduction import GlobalReduction
from ..errors import FrontendError
from ..ir.nodes import (
    AccessorInfo,
    Expr,
    KernelIR,
    OutputWrite,
    Stmt,
    VarRef,
)
from ..ir.typecheck import typecheck_kernel
from ..types import ScalarType
from .parser import _Parser

#: canonical parameter names in the reduction IR
LEFT, RIGHT = "_red_left", "_red_right"


@dataclasses.dataclass
class ReductionIR:
    """A parsed, type-checked reduction combine function.

    ``body`` is a statement list whose final ``OutputWrite`` holds the
    combined value; ``LEFT``/``RIGHT`` are free variables of the pixel
    type.  Reuses the kernel IR machinery (the combine is just a tiny
    kernel over two scalars).
    """

    name: str
    pixel_type: ScalarType
    body: List[Stmt]
    accessor: AccessorInfo

    @property
    def result_expr(self) -> Expr:
        for s in reversed(self.body):
            if isinstance(s, OutputWrite):
                return s.value
        raise FrontendError("reduction combine produced no result")


class _ReductionParser(_Parser):
    """Kernel parser variant: two value parameters, return-as-result."""

    def __init__(self, reduction: GlobalReduction, arg_names):
        # GlobalReduction is not a Kernel; bypass _Parser.__init__'s
        # attribute scan with a tailored setup.
        self.kernel_obj = reduction
        self.bake_params = True
        self.accessors = {}
        self.accessor_objs = {}
        self.masks = {}
        self.mask_objs = {}
        self.params = {}
        self.scopes = [set(arg_names)]
        self.pending = []
        self.convolve_ctx = None
        self._convolve_counter = 0
        self._source_lines = []
        fn = type(reduction).reduce
        self.fn_globals = getattr(fn, "__globals__", {})
        self._arg_map = {arg_names[0]: LEFT, arg_names[1]: RIGHT}

    def _name(self, node):
        if node.id in self._arg_map:
            return VarRef(self._arg_map[node.id])
        return super()._name(node)

    def stmt(self, node):
        if isinstance(node, ast.Return):
            if node.value is None:
                raise self.err("reduce() must return a value", node)
            value = self.expr(node.value)
            out: List[Stmt] = []
            self._flush_pending(out)
            out.append(OutputWrite(value))
            return out
        return super().stmt(node)


def parse_reduction(reduction: GlobalReduction) -> ReductionIR:
    """Parse and type check a GlobalReduction's combine function."""
    if not isinstance(reduction, GlobalReduction):
        raise FrontendError(
            "parse_reduction expects a GlobalReduction instance")
    fn = type(reduction).reduce
    if fn is GlobalReduction.reduce:
        raise FrontendError(
            f"{type(reduction).__name__} does not override reduce()")
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        raise FrontendError(
            f"cannot retrieve source of {fn.__qualname__}: {exc}"
        ) from None
    tree = ast.parse(source)
    fndef = tree.body[0]
    if not isinstance(fndef, ast.FunctionDef):
        raise FrontendError("reduce() source did not parse to a function")
    args = [a.arg for a in fndef.args.args if a.arg != "self"]
    if len(args) != 2:
        raise FrontendError(
            f"reduce() must take exactly two value parameters, got "
            f"{args}")

    parser = _ReductionParser(reduction, args)
    parser._source_lines = source.splitlines()
    body = parser.body(list(fndef.body))
    if not any(isinstance(s, OutputWrite) for s in body):
        raise FrontendError("reduce() must end in a return statement")

    pixel_type = reduction.accessor.pixel_type
    acc_info = AccessorInfo(
        name="input",
        pixel_type=pixel_type,
        boundary_mode=reduction.accessor.boundary_mode.value,
        window=(1, 1),
    )
    # type check by wrapping as a kernel with LEFT/RIGHT as runtime params
    from ..ir.nodes import ParamInfo
    shell = KernelIR(
        name=type(reduction).__name__,
        pixel_type=pixel_type,
        body=body,
        accessors=[acc_info],
        params=[ParamInfo(LEFT, pixel_type, None, baked=False),
                ParamInfo(RIGHT, pixel_type, None, baked=False)],
    )
    checked = typecheck_kernel(shell)
    return ReductionIR(
        name=type(reduction).__name__,
        pixel_type=pixel_type,
        body=checked.body,
        accessor=acc_info,
    )
