"""Dead code elimination.

Deletes pure instructions whose results are never used, dead chains
included, in one counting walk (uses and definitions per register), a
worklist (one pop per instruction removed, lowering the counts of what
it read) and one filter.  Instructions with side effects (stores,
calls, terminators) are always kept — calls could be refined with
purity analysis, which we leave to the inliner's caller-side knowledge.

Tables and walks follow the pass conventions of
:mod:`repro.ir.function`.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.values import VReg
from repro.opt.pass_manager import PassResult


def dce(func: Function) -> PassResult:
    result = PassResult()
    uses = [0] * func.reg_count
    defs = [[] for _ in uses]       # defining instructions, per id
    for block in func.blocks:
        result.work += len(block.instrs)
        for instr in block.instrs:
            for src in instr.srcs:
                if src.__class__ is VReg:
                    uses[src.id] += 1
            if instr.dst is not None:
                defs[instr.dst.id].append(instr)

    #: removable definitions of registers nothing reads (any more)
    dead = [instr for count, reg_defs in zip(uses, defs) if not count
            for instr in reg_defs if not instr.has_side_effects()]
    if not dead:
        return result
    removed = set(dead)
    while dead:
        result.work += 1
        for src in dead.pop().srcs:
            if src.__class__ is VReg:
                uses[src.id] -= 1
                if not uses[src.id]:
                    chain = [instr for instr in defs[src.id]
                             if not instr.has_side_effects()]
                    dead += chain
                    removed.update(chain)
    for block in func.blocks:
        kept = [instr for instr in block.instrs if instr not in removed]
        if len(kept) != len(block.instrs):
            block.instrs = kept
    result.changed = True
    return result
