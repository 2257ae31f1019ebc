"""Loop unrolling for counted loops.

``for (i = init; i < n; i++) body`` becomes::

    u.head: t = i + (F-1) ; c = t < n ; branch c, u.body, orig.head
    u.body: body ; i++ ; body ; i++ ; ... (F times) ; jump u.head
    orig loop                                  // remainder, unchanged

Replication is semantically exact (no reassociation): each copy clones
the body with fresh temporaries while multi-definition registers (the
induction variable, accumulators) stay shared, and the real increment
runs between copies.  Used standalone as an iterative-compilation knob
— note the paper's Table 1 observation that scalarized vector code can
*beat* plain scalar code because "the scalarization involves some
unrolling of tiny loops": this pass lets the benches separate that
unrolling effect from SIMD proper.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.lang import types as ty
from repro.ir import instructions as ins
from repro.ir.function import Function
from repro.ir.values import Const, Value, VReg
from repro.opt.licm import _ensure_preheader
from repro.opt.loops import CountedLoop, find_counted_loops
from repro.opt.pass_manager import PassResult

#: Loops with bodies larger than this are not worth unrolling.
MAX_BODY = 40


def _renamer(func: Function, shared: Set[VReg]):
    """``(src_of, dst_of)`` for one copy of the body: a destination
    that is not shared gets a fresh register, which the copy's later
    sources read."""
    reg_map: Dict[int, VReg] = {}

    def src_of(value: Value) -> Value:
        if isinstance(value, VReg) and value.id in reg_map:
            return reg_map[value.id]
        return value

    def dst_of(reg: VReg) -> VReg:
        if reg in shared:
            return reg
        fresh = func.new_reg(reg.ty, reg.name)
        reg_map[reg.id] = fresh
        return fresh
    return src_of, dst_of


def unroll(func: Function, factor: int = 4) -> PassResult:
    """Unroll every eligible counted loop by ``factor``."""
    result = PassResult()
    if factor < 2:
        return result
    processed: Set[str] = set()
    for _ in range(8):
        candidate = next(
            (l for l in find_counted_loops(func)
             if l.header not in processed), None)
        if candidate is None:
            break
        processed.add(candidate.header)
        work = func.block(candidate.work)
        result.work += len(work.instrs)
        if _eligible(candidate, work):
            _unroll_loop(func, candidate, factor)
            result.changed = True
    return result


def _eligible(cl: CountedLoop, work) -> bool:
    return (cl.pred == "lt" and cl.step == 1 and
            len(work.instrs) <= MAX_BODY and
            isinstance(cl.ivar.ty, ty.IntType) and
            not any(isinstance(i, ins.Call) for i in work.instrs))


def _unroll_loop(func: Function, cl: CountedLoop, factor: int) -> None:
    work = func.block(cl.work)
    body_and_incr = work.instrs[:-1]           # strip the jump

    shared = _multi_def_regs(func)
    preheader = _ensure_preheader(func, cl.loop)

    u_head = func.new_block("unroll.head")
    u_body = func.new_block("unroll.body")

    ahead = func.new_reg(cl.ivar.ty)
    cond = func.new_reg(ty.I32)
    u_head.append(ins.BinOp("add", ahead, cl.ivar,
                            Const(factor - 1, cl.ivar.ty), cl.ivar.ty))
    u_head.append(ins.Cmp("lt", cond, ahead, cl.bound, cl.ivar.ty))
    u_head.append(ins.Branch(cond, u_body.label, cl.header))

    for _ in range(factor):
        src_of, dst_of = _renamer(func, shared)
        for instr in body_and_incr:
            u_body.append(ins.clone(instr, src_of, dst_of))
    u_body.append(ins.Jump(u_head.label))

    ins.retarget(preheader.terminator, cl.header, u_head.label)
    for block in (u_head, u_body):
        func.blocks.remove(block)
    at = func.blocks.index(func.block(cl.header))
    func.blocks[at:at] = [u_head, u_body]


def _multi_def_regs(func: Function) -> Set[VReg]:
    counts: Dict[VReg, int] = {p: 1 for p in func.params}
    for instr in func.instructions():
        for reg in instr.defs():
            counts[reg] = counts.get(reg, 0) + 1
    return {reg for reg, c in counts.items() if c > 1}
