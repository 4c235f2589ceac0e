"""Typed kernel intermediate representation.

The frontend lowers the restricted-Python kernel body into this IR; analyses
(CFG construction, the read set, the bounded-offset rule), transformations
(constant propagation, loop unrolling) and both code-generation backends
operate on it, as does the functional GPU simulator.  This mirrors HIPAcc's
use of the Clang AST as the single representation shared by its analyses and
its CUDA/OpenCL printers.
"""

from .nodes import (  # noqa: F401
    AccessorRead,
    Assign,
    BinOp,
    BoolConst,
    Call,
    Cast,
    Expr,
    FloatConst,
    ForRange,
    GidX,
    GidY,
    If,
    IntConst,
    KernelIR,
    MaskRead,
    OutputWrite,
    Select,
    Stmt,
    UnOp,
    VarDecl,
    VarRef,
    const_int_value,
    is_const,
)
from .visitors import ExprTransformer, walk_exprs, walk_stmts  # noqa: F401
from .printer import format_kernel  # noqa: F401
from .typecheck import typecheck_kernel  # noqa: F401
from .cfg import CFG, build_cfg  # noqa: F401
from .analysis import InstructionMix, count_instruction_mix  # noqa: F401
from .transforms import propagate_constants, unroll_loops  # noqa: F401
from .optimize import (  # noqa: F401
    eliminate_common_subexpressions,
    hoist_loop_invariants,
    optimize_for_device,
)
