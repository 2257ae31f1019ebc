"""Addressing-mode folding (JIT back-end peephole).

``t = add a, b ; load [t]`` becomes a single memory operation with a
two-part address when ``t`` has no other use — the register+register
(or register+immediate) addressing mode every real ISA provides, and
the kind of fold every Mono back-end performs.  Folding happens on the
LIR *before* register allocation so liveness naturally extends the
address components to the memory instruction.

The folded forms are LIR-private subclasses; only the JIT code
generator ever sees them.  Tables and walks follow the pass
conventions of :mod:`repro.ir.function`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang import types as ty
from repro.ir import instructions as ins
from repro.ir.function import Function
from repro.ir.values import Value, VecType, VReg


class LoadIndexed(ins.Load):
    """``dst = mem[a + b]``."""

    def __init__(self, dst: VReg, a: Value, b: Value, mem_ty):
        super().__init__(dst, a, mem_ty)
        self.srcs = [a, b]

    @property
    def base(self) -> Value:
        return self.srcs[0]

    @property
    def index(self) -> Value:
        return self.srcs[1]


class StoreIndexed(ins.Store):
    """``mem[a + b] = value``."""

    def __init__(self, a: Value, b: Value, value: Value, mem_ty):
        super().__init__(a, value, mem_ty)
        self.srcs = [a, b, value]

    @property
    def base(self) -> Value:
        return self.srcs[0]

    @property
    def index(self) -> Value:
        return self.srcs[1]

    @property
    def value(self) -> Value:
        return self.srcs[2]


class VLoadIndexed(ins.VLoad):
    def __init__(self, dst: VReg, a: Value, b: Value, vty: VecType):
        super().__init__(dst, a, vty)
        self.srcs = [a, b]

    @property
    def base(self) -> Value:
        return self.srcs[0]

    @property
    def index(self) -> Value:
        return self.srcs[1]


class VStoreIndexed(ins.VStore):
    def __init__(self, a: Value, b: Value, value: Value, vty: VecType):
        super().__init__(a, value, vty)
        self.srcs = [a, b, value]

    @property
    def base(self) -> Value:
        return self.srcs[0]

    @property
    def index(self) -> Value:
        return self.srcs[1]

    @property
    def value(self) -> Value:
        return self.srcs[2]


#: plain memory instruction -> ``make(instr, a, b)`` of its folded form
_FOLDED = {
    ins.Load: lambda i, a, b: LoadIndexed(i.dst, a, b, i.ty),
    ins.Store: lambda i, a, b: StoreIndexed(a, b, i.value, i.ty),
    ins.VLoad: lambda i, a, b: VLoadIndexed(i.dst, a, b, i.vty),
    ins.VStore: lambda i, a, b: VStoreIndexed(a, b, i.value, i.vty),
}


def fold_addressing(func: Function) -> int:
    """Fold single-use address adds into memory operations.

    The fold reads the add's operands where the memory operation
    stands, so no definition of either may lie between the two (the
    non-SSA rule of :mod:`repro.ir.function`): ``ldloc 0; const 4;
    add; ldloc 0; const 4; add; stloc 0; load`` keeps its first add.
    """
    work = 0
    count = func.reg_count
    use_counts = [0] * count
    def_counts = [0] * count
    add_of: List[Optional[ins.BinOp]] = [None] * count
    for block in func.blocks:
        work += len(block.instrs)
        for instr in block.instrs:
            for src in instr.srcs:
                if src.__class__ is VReg:
                    use_counts[src.id] += 1
            if instr.dst is not None:
                def_counts[instr.dst.id] += 1
                if instr.__class__ is ins.BinOp and instr.op == "add" \
                        and instr.ty.__class__ is ty.IntType and \
                        instr.ty.bits == 64:
                    add_of[instr.dst.id] = instr

    #: where each register was last defined, as this walk has seen it
    last_def = [-1] * count
    block_start = 0

    def address_add(addr: Value) -> Optional[ins.BinOp]:
        """The add that computes ``addr``, when the memory operation
        the walk stands on may absorb it: the add is the one
        definition, ``addr`` has no other use, the add stands earlier
        in this block and both its operands still hold what it read."""
        if addr.__class__ is not VReg or def_counts[addr.id] != 1 or \
                use_counts[addr.id] != 1:
            return None
        add = add_of[addr.id]
        add_at = last_def[addr.id]
        if add is None or add_at < block_start:
            return None
        for operand in add.srcs:
            if operand.__class__ is VReg and last_def[operand.id] > add_at:
                return None
        return add

    for block in func.blocks:
        instrs = block.instrs
        dead: List[int] = []        # positions of the folded adds
        for index, instr in enumerate(instrs):
            make = _FOLDED.get(instr.__class__)
            add = address_add(instr.srcs[0]) if make is not None else None
            if add is not None:
                instrs[index] = make(instr, *add.srcs)
                dead.append(last_def[add.dst.id] - block_start)
                work += 1
            if instr.dst is not None:
                last_def[instr.dst.id] = block_start + index
        block_start += len(instrs)
        for index in sorted(dead, reverse=True):
            del instrs[index]
    return work
