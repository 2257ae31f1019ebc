"""Dead code elimination.

Deletes pure instructions whose results are never used, iterating to a
fixpoint so chains of dead computations disappear in one pass run.
Instructions with side effects (stores, calls, terminators) are always
kept — calls could be refined with purity analysis, which we leave to
the inliner's caller-side knowledge.

Tables and walks follow the pass conventions of
:mod:`repro.ir.function`.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.values import VReg
from repro.opt.pass_manager import PassResult


def dce(func: Function) -> PassResult:
    result = PassResult()
    while True:
        used = [False] * func.reg_count
        for block in func.blocks:
            result.work += len(block.instrs)
            for instr in block.instrs:
                for src in instr.srcs:
                    if src.__class__ is VReg:
                        used[src.id] = True

        removed_any = False
        for block in func.blocks:
            kept = [instr for instr in block.instrs
                    if instr.dst is None or used[instr.dst.id]
                    or instr.has_side_effects()]
            if len(kept) != len(block.instrs):
                block.instrs = kept
                removed_any = True
        if not removed_any:
            return result
        result.changed = True
