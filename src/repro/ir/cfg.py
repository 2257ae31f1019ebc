"""CFG analyses: predecessors, orderings, dominators, natural loops."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.ir.function import BasicBlock, Function


def predecessors(func: Function) -> Dict[str, List[str]]:
    """Map from block label to the labels of its predecessors."""
    preds: Dict[str, List[str]] = {b.label: [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            preds[succ].append(block.label)
    return preds


def reachable(func: Function) -> Set[str]:
    """Labels of blocks reachable from the entry."""
    seen: Set[str] = set()
    stack = [func.entry.label]
    blocks = func.block_map()
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        stack.extend(blocks[label].successors())
    return seen


def reverse_postorder(func: Function) -> List[str]:
    """Reverse postorder over reachable blocks (good for forward dataflow)."""
    blocks = func.block_map()
    seen: Set[str] = set()
    order: List[str] = []

    def visit(label: str) -> None:
        # Iterative DFS to avoid recursion limits on long CFGs.
        stack = [(label, iter(blocks[label].successors()))]
        seen.add(label)
        while stack:
            current, succs = stack[-1]
            advanced = False
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(blocks[succ].successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(func.entry.label)
    order.reverse()
    return order


def dominators(func: Function) -> Dict[str, Set[str]]:
    """Classic iterative dominator sets (adequate for our CFG sizes)."""
    rpo = reverse_postorder(func)
    preds = predecessors(func)
    all_blocks = set(rpo)
    dom: Dict[str, Set[str]] = {label: set(all_blocks) for label in rpo}
    dom[func.entry.label] = {func.entry.label}
    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == func.entry.label:
                continue
            live_preds = [p for p in preds[label] if p in all_blocks]
            new: Set[str] = set(all_blocks)
            for p in live_preds:
                new &= dom[p]
            new.add(label)
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


@dataclass
class Loop:
    """A natural loop: back edge ``latch -> header``."""
    header: str
    latch: str
    body: Set[str] = field(default_factory=set)   # includes header and latch
    preheader: Optional[str] = None

    def __repr__(self) -> str:
        return f"Loop(header={self.header}, blocks={sorted(self.body)})"


def natural_loops(func: Function) -> List[Loop]:
    """Find natural loops via back edges (latch dominated by header)."""
    dom = dominators(func)
    preds = predecessors(func)
    loops: List[Loop] = []
    for block in func.blocks:
        if block.label not in dom:
            continue
        for succ in block.successors():
            if succ in dom[block.label]:
                # back edge block -> succ
                loop = Loop(header=succ, latch=block.label)
                loop.body = {succ}
                stack = [block.label]
                while stack:
                    label = stack.pop()
                    if label in loop.body:
                        continue
                    loop.body.add(label)
                    stack.extend(p for p in preds[label] if p in dom)
                _find_preheader(loop, preds)
                loops.append(loop)
    return loops


def _find_preheader(loop: Loop, preds: Dict[str, List[str]]) -> None:
    """Record the unique out-of-loop predecessor of the header, if any."""
    outside = [p for p in preds[loop.header] if p not in loop.body]
    if len(outside) == 1:
        loop.preheader = outside[0]


def innermost_loops(func: Function) -> List[Loop]:
    """Loops that contain no other loop (vectorization candidates)."""
    loops = natural_loops(func)
    result = []
    for loop in loops:
        nested = any(other is not loop and other.body < loop.body
                     for other in loops)
        if not nested:
            result.append(loop)
    return result


def remove_unreachable(func: Function) -> int:
    """Delete unreachable blocks; returns how many were removed."""
    live = reachable(func)
    dead = [b for b in func.blocks if b.label not in live]
    func.blocks = [b for b in func.blocks if b.label in live]
    return len(dead)
