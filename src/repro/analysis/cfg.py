"""Fuel-block control-flow graphs for the dataflow plane.

Both instruction forms — :class:`~repro.bytecode.opcodes.BCInstr` and
:class:`~repro.targets.isa.MInst` — spell control flow identically
(``br``/``brif``/``call``/``ret`` with absolute integer targets), so
one CFG builder serves the VM and the simulator.  Nodes are the fuel
block leaders of :func:`repro.engine.fuel_blocks`; edges are the
*internal* transfers of a tier-2 translation: ``br`` to its target,
``brif`` to target and fall-through, ``call`` and plain fall-through
to the next leader, ``ret`` nowhere.  Out-of-range targets are
normalized to ``n`` (the fell-off-code-end tail, outside every
block), exactly as both code generators do, so an analysis over this
graph sees the same reachable edges the generated code has.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine import branch_target, fuel_blocks


class BlockCFG:
    """Fuel-block graph: ``blocks`` (leader -> length), ``successors``
    and ``predecessors`` (leader -> leader list, in-graph edges only),
    built once per function and shared by every analysis pass."""

    __slots__ = ("n", "blocks", "successors", "predecessors")

    def __init__(self, code):
        self.n = len(code)
        self.blocks = fuel_blocks(code)
        self.successors = _successors(code, self.blocks)
        self.predecessors: Dict[int, List[int]] = \
            {leader: [] for leader in self.blocks}
        for leader, succs in self.successors.items():
            for succ in succs:
                if succ in self.blocks:
                    self.predecessors[succ].append(leader)

    @property
    def entry(self) -> int:
        return 0

    def reachable(self) -> frozenset:
        """Leaders reachable from the entry block."""
        if 0 not in self.blocks:
            return frozenset()
        seen = {0}
        work = [0]
        while work:
            leader = work.pop()
            for succ in self.successors.get(leader, ()):
                if succ in self.blocks and succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return frozenset(seen)


def _successors(code, blocks) -> Dict[int, List[int]]:
    """leader -> pcs reachable by the block's terminator.  Includes
    the out-of-graph exit pc ``len(code)`` (normalized malformed
    targets and fall-through past the last instruction) so callers can
    tell "this block can leave the function" from "this edge stays
    internal"."""
    succs: Dict[int, List[int]] = {}
    for leader, length in blocks.items():
        term = code[leader + length - 1]
        exit_pc = leader + length
        op = term.op
        if op == "br":
            target = branch_target(term.arg, code)
            succs[leader] = [target] if isinstance(target, int) else []
        elif op == "brif":
            target = branch_target(term.arg, code)
            succs[leader] = ([target] if isinstance(target, int)
                             else []) + [exit_pc]
        elif op == "ret":
            succs[leader] = []
        else:                       # call or plain fall-through
            succs[leader] = [exit_pc]
    return succs
