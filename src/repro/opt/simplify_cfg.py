"""Control-flow graph simplification.

* removes unreachable blocks;
* forwards jumps through empty blocks (blocks containing only a jump);
* merges a block into its unique successor when that successor has a
  unique predecessor (straight-line chains collapse);
* folds branches whose two targets are identical into jumps.

Runs to a local fixpoint; cheap enough to run between other passes.
"""

from __future__ import annotations

from typing import Dict

from repro.ir import instructions as ins
from repro.ir.cfg import predecessors, remove_unreachable
from repro.ir.function import Function
from repro.opt.pass_manager import PassResult


def simplify_cfg(func: Function) -> PassResult:
    result = PassResult()
    changed = True
    while changed:
        changed = False
        changed |= remove_unreachable(func) > 0
        changed |= _fold_trivial_branches(func, result)
        changed |= _forward_empty_blocks(func, result)
        changed |= _merge_chains(func, result)
        result.changed = result.changed or changed
    return result


def _fold_trivial_branches(func: Function, result: PassResult) -> bool:
    changed = False
    for block in func.blocks:
        result.work += 1
        term = block.terminator
        if isinstance(term, ins.Branch) and \
                term.then_target == term.else_target:
            block.instrs[-1] = ins.Jump(term.then_target)
            changed = True
    return changed


def _forward_empty_blocks(func: Function, result: PassResult) -> bool:
    """Retarget edges that point at a block containing only ``jump X``."""
    forward: Dict[str, str] = {}
    for block in func.blocks:
        result.work += 1
        if len(block.instrs) == 1 and isinstance(block.instrs[0], ins.Jump):
            forward[block.label] = block.instrs[0].target

    def final_target(label: str) -> str:
        seen = set()
        while label in forward and label not in seen:
            seen.add(label)
            label = forward[label]
        return label

    changed = False
    for block in func.blocks:
        term = block.terminator                 # verified: never None
        for target in list(ins.branch_targets(term)):
            final = final_target(target)
            if final != target and final != block.label:
                ins.retarget(term, target, final)
                changed = True
    if changed:
        remove_unreachable(func)
    return changed


def _merge_chains(func: Function, result: PassResult) -> bool:
    """Merge ``a -> b`` when a's only successor is b and b's only pred is a."""
    changed = False
    preds = predecessors(func)
    for block in func.blocks:
        result.work += 1
        term = block.terminator
        if not isinstance(term, ins.Jump):
            continue
        succ_label = term.target
        if succ_label == block.label:
            continue
        if len(preds.get(succ_label, [])) != 1:
            continue
        succ = func.block(succ_label)
        if succ is func.entry:
            continue
        block.instrs = block.instrs[:-1] + succ.instrs
        func.blocks.remove(succ)
        changed = True
        preds = predecessors(func)   # recompute after mutation
    return changed
