"""Copy and constant propagation.

Two cooperating levels:

* **global**, for single-definition registers: if ``d = mov s`` is the
  only definition of ``d`` and ``s`` is a constant or a never-redefined
  register, every use of ``d`` becomes ``s``.  Single-def dominance is
  guaranteed by the IR verifier, so this needs no extra analysis.
* **block-local**, for everything else (the home registers of mutable
  variables): within a block, track live copies and rewrite uses,
  invalidating entries when either side is redefined.

Together with DCE this removes the snapshot ``mov``s the lowering pass
inserts for every variable read.

Tables and walks follow the pass conventions of
:mod:`repro.ir.function`; an operand is rewritten in place in
``instr.srcs``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ir.function import Function
from repro.ir.instructions import Move
from repro.ir.values import Const, Value, VReg
from repro.opt.pass_manager import PassResult


def copyprop(func: Function) -> PassResult:
    result = PassResult()
    counts = [0] * func.reg_count
    result += _global_single_def(func, counts)
    result += _block_local(func, counts)
    return result


def _global_single_def(func: Function, counts: List[int]) -> PassResult:
    """``counts`` is filled with the definitions per register id (a
    parameter's entry value counts): no phase adds or removes one."""
    result = PassResult()
    for param in func.params:
        counts[param.id] = 1
    moves: List[Move] = []
    for block in func.blocks:
        result.work += len(block.instrs)
        for instr in block.instrs:
            if instr.dst is not None:
                counts[instr.dst.id] += 1
                if instr.__class__ is Move:
                    moves.append(instr)
    replacement: List[Optional[Value]] = [None] * func.reg_count
    found = False
    for move in moves:
        if counts[move.dst.id] == 1:
            src = move.srcs[0]
            if src.__class__ is Const or counts[src.id] == 1:
                replacement[move.dst.id] = src
                found = True
    if not found:
        return result

    def resolve(value: Value) -> Value:
        """Follow chains (a -> b -> const) to their end."""
        seen = 0
        while value.__class__ is VReg and \
                replacement[value.id] is not None:
            if seen >> value.id & 1:    # defensive: cycles cannot happen
                break
            seen |= 1 << value.id
            value = replacement[value.id]
        return value

    for block in func.blocks:
        for instr in block.instrs:
            srcs = instr.srcs
            for index, src in enumerate(srcs):
                if src.__class__ is VReg and \
                        replacement[src.id] is not None:
                    srcs[index] = resolve(src)
                    result.changed = True
    return result


def _block_local(func: Function, counts: List[int]) -> PassResult:
    result = PassResult()
    #: the live copy of each register, within the block being walked
    copies: List[Optional[Value]] = [None] * func.reg_count
    for block in func.blocks:
        result.work += len(block.instrs)
        recorded: List[int] = []    # ids given a copy in this block
        for instr in block.instrs:
            # Rewrite uses through the live copy table.
            srcs = instr.srcs
            for index, src in enumerate(srcs):
                if src.__class__ is VReg and copies[src.id] is not None:
                    src = srcs[index] = copies[src.id]
                    result.changed = True
                    if instr.__class__ is Move and \
                            counts[instr.dst.id] == 1 and (
                            src.__class__ is Const or
                            counts[src.id] == 1):
                        result.reopened = True
            dst = instr.dst
            if dst is None:
                continue
            # A definition invalidates entries involving the reg.
            copies[dst.id] = None
            for reg_id in recorded:
                if copies[reg_id] is dst:
                    copies[reg_id] = None
            # Record new copies (after invalidation).
            if instr.__class__ is Move and srcs[0] is not dst:
                copies[dst.id] = srcs[0]
                recorded.append(dst.id)
        for reg_id in recorded:
            copies[reg_id] = None
    return result
