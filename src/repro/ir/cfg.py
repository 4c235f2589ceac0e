"""Control-flow graph over the kernel IR.

The paper performs "a read/write analysis of the kernel method.  Therefore, a
control-flow graph (CFG) of the instructions in the kernel method is created
and traversed afterwards" (Section IV-A).  We reproduce that structure: basic
blocks of straight-line statements connected by branch/loop edges, traversed
by the abstract interpreter (:mod:`repro.lint.absint`) and the lint dataflow
analyses (:mod:`repro.lint.dataflow`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from .nodes import ForRange, If, Stmt


@dataclasses.dataclass
class BasicBlock:
    """A maximal straight-line sequence of non-branching statements."""

    index: int
    stmts: List[Stmt] = dataclasses.field(default_factory=list)
    successors: List[int] = dataclasses.field(default_factory=list)
    label: str = ""

    def add_successor(self, idx: int) -> None:
        if idx not in self.successors:
            self.successors.append(idx)


class CFG:
    """Control-flow graph with a single entry and single exit block."""

    def __init__(self) -> None:
        self.blocks: Dict[int, BasicBlock] = {}
        self.entry: int = 0
        self.exit: int = 0

    def new_block(self, label: str = "") -> BasicBlock:
        idx = len(self.blocks)
        block = BasicBlock(index=idx, label=label)
        self.blocks[idx] = block
        return block

    def predecessors(self, idx: int) -> List[int]:
        return [b.index for b in self.blocks.values()
                if idx in b.successors]

    def reverse_postorder(self) -> List[int]:
        """Block indices in reverse postorder (forward-dataflow order)."""
        seen = set()
        order: List[int] = []

        def dfs(i: int) -> None:
            seen.add(i)
            for s in self.blocks[i].successors:
                if s not in seen:
                    dfs(s)
            order.append(i)

        dfs(self.entry)
        order.reverse()
        return order

    def reachable(self) -> set:
        return set(self.reverse_postorder())

    def dump(self) -> str:
        """Deterministic text rendering for golden tests and debugging.

        One line per block, in index order::

            B0[entry] stmts=1 -> B1, B3

        Statement counts and successor order are exactly as built, so a
        change in construction order shows up as a golden diff.
        """
        lines = []
        for idx in sorted(self.blocks):
            b = self.blocks[idx]
            label = f"[{b.label}]" if b.label else ""
            succ = ", ".join(f"B{s}" for s in b.successors)
            arrow = f" -> {succ}" if succ else ""
            lines.append(f"B{idx}{label} stmts={len(b.stmts)}{arrow}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.blocks)


def build_cfg(body: Sequence[Stmt]) -> CFG:
    """Build a CFG for *body*.

    ``If`` creates a diamond; ``ForRange`` creates header -> body -> header
    back edge plus header -> after edge.  Loop bounds live in the header
    block (they are evaluated per iteration in C terms).
    """
    cfg = CFG()
    entry = cfg.new_block("entry")
    cfg.entry = entry.index
    current = _build_seq(cfg, entry, body)
    exit_block = cfg.new_block("exit")
    current.add_successor(exit_block.index)
    cfg.exit = exit_block.index
    return cfg


def _build_seq(cfg: CFG, current: BasicBlock,
               body: Sequence[Stmt]) -> BasicBlock:
    for s in body:
        if isinstance(s, If):
            cond_block = current
            cond_block.stmts.append(s)  # condition evaluated here
            then_entry = cfg.new_block("then")
            cond_block.add_successor(then_entry.index)
            then_exit = _build_seq(cfg, then_entry, s.then_body)
            join = cfg.new_block("join")
            then_exit.add_successor(join.index)
            if s.else_body:
                else_entry = cfg.new_block("else")
                cond_block.add_successor(else_entry.index)
                else_exit = _build_seq(cfg, else_entry, s.else_body)
                else_exit.add_successor(join.index)
            else:
                cond_block.add_successor(join.index)
            current = join
        elif isinstance(s, ForRange):
            header = cfg.new_block("loop-header")
            header.stmts.append(s)  # bounds evaluated here
            current.add_successor(header.index)
            body_entry = cfg.new_block("loop-body")
            header.add_successor(body_entry.index)
            body_exit = _build_seq(cfg, body_entry, s.body)
            body_exit.add_successor(header.index)  # back edge
            after = cfg.new_block("loop-exit")
            header.add_successor(after.index)
            current = after
        else:
            current.stmts.append(s)
    return current
