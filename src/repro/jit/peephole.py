"""Cheap, always-on JIT cleanup.

Production JITs (including the Mono back-ends the paper ran on) apply
linear-time local optimizations regardless of optimization level; the
split-compilation budget argument is about *analysis-heavy* passes, not
these.  This module bundles:

* block-local copy propagation + dead code elimination (removes the
  push/pop ``mov`` traffic reconstructed from stack bytecode);
* widening cast-chain folding (``i32->i64->u64`` becomes one cast);

and reports its (linear) work so it still shows up in the budget.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang import types as ty
from repro.ir.function import Function
from repro.ir.instructions import Cast
from repro.ir.values import VReg
from repro.opt.copyprop import copyprop
from repro.opt.dce import dce
from repro.opt.pass_manager import PassResult


def fold_cast_chains(func: Function) -> PassResult:
    """``B = cast A (t1->t2); C = cast B (t2->t3)`` -> one cast.

    Only when both steps are integer widenings (value-preserving in
    composition) and B has a single use; classic single-pass peephole.
    The fold reads A where C stands instead of where B stood, so no
    definition of A may lie in between (the non-SSA rule of
    :mod:`repro.ir.function`, whose conventions the tables follow):
    ``ldloc 0; cast; ldloc 0; const 1; add; stloc 0; cast`` keeps both
    casts.

    ``reopened``: a chain still stands (refused, maybe only for a use
    count ``dce`` will lower or against an inner cast this walk folds;
    or just made), or a read moved into another block, within reach of
    its block-local copies.
    """
    result = PassResult()
    count = func.reg_count
    def_of: List[Optional[Cast]] = [None] * count
    use_count = [0] * count
    def_count = [0] * count
    for param in func.params:
        def_count[param.id] = 1
    for block in func.blocks:
        result.work += len(block.instrs)
        for instr in block.instrs:
            for src in instr.srcs:
                if src.__class__ is VReg:
                    use_count[src.id] += 1
            if instr.dst is not None:
                def_count[instr.dst.id] += 1
                if instr.__class__ is Cast and _is_widening(instr):
                    def_of[instr.dst.id] = instr

    #: where each register was last defined, as this walk has seen it
    last_def = [-1] * count
    block_start = 0
    for block in func.blocks:
        for index, instr in enumerate(block.instrs):
            if instr.__class__ is Cast and _is_widening(instr):
                folded = _fold_chain(instr, result, def_of, def_count,
                                     use_count, last_def, block_start)
                if folded is not None:
                    block.instrs[index] = instr = folded
                    result.work += 1
                    result.changed = True
                source = instr.srcs[0]
                if source.__class__ is VReg and \
                        def_of[source.id] is not None:
                    result.reopened = True
            if instr.dst is not None:
                last_def[instr.dst.id] = block_start + index
        block_start += len(block.instrs)
    return result


def _fold_chain(outer: Cast, result, def_of, def_count, use_count,
                last_def, block_start: int) -> Optional[Cast]:
    source = outer.srcs[0]
    if source.__class__ is not VReg:
        return None
    inner = def_of[source.id]
    if inner is None or def_count[source.id] != 1 or \
            use_count[source.id] != 1:
        return None
    if inner.to_ty != outer.from_ty:
        return None
    if not _composable(inner.from_ty, inner.to_ty, outer.to_ty):
        return None
    moved = inner.srcs[0]
    if moved.__class__ is VReg:
        inner_at = last_def[source.id]
        if inner_at >= block_start:
            # Both casts in this block: the walk has seen every
            # definition between them.
            if last_def[moved.id] > inner_at:
                return None
        elif def_count[moved.id] != 1:
            return None     # across blocks: never-redefined only
        else:
            result.reopened = True  # in reach of this block's copies
    return Cast(outer.dst, moved, inner.from_ty, outer.to_ty)


def _is_widening(cast: Cast) -> bool:
    return (isinstance(cast.from_ty, ty.IntType) and
            isinstance(cast.to_ty, ty.IntType) and
            cast.to_ty.bits >= cast.from_ty.bits)


def _composable(t1: ty.IntType, t2: ty.IntType, t3: ty.IntType) -> bool:
    """Is ``cast t1->t3`` equal to ``cast t1->t2; cast t2->t3``?

    True when the middle step is value-preserving on t1's range, or
    when the final width does not exceed the middle width (the result
    only depends on the value modulo 2^bits(t3), which the middle wrap
    preserves).
    """
    if t3.bits <= t2.bits:
        return True
    if t1.signed:
        return t2.signed and t2.bits >= t1.bits
    return t2.bits > t1.bits or (t2.bits == t1.bits and not t2.signed)


def quick_cleanup(func: Function) -> int:
    """Run the always-on local cleanup; returns work performed.  No
    round only confirms: the second (the cap) runs if a pass of the
    first reports ``reopened`` (DESIGN.md §3a lists the cases)."""
    work = 0
    for _ in range(2):
        result = copyprop(func)
        result += fold_cast_chains(func)
        result += dce(func)
        work += result.work
        if not result.reopened:
            break
    return work
