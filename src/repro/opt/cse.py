"""Local common subexpression elimination (value numbering).

Within each block, pure instructions with identical opcodes and
operands reuse the earlier result instead of recomputing it.  Operand
identity is resolved through a local copy table (so ``a = mov b`` makes
``f(a)`` and ``f(b)`` the same expression), which lets whole address-
computation chains collapse in a single pass instead of one layer per
pipeline iteration.

Loads participate under a simple memory versioning scheme: any store
or call bumps the version, invalidating remembered loads —
conservative but sound without alias analysis.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir import instructions as ins
from repro.ir.function import Function
from repro.ir.values import Const, Value, VReg
from repro.opt.pass_manager import PassResult

_COMMUTATIVE = {"add", "mul", "and", "or", "xor", "min", "max"}


def cse(func: Function) -> PassResult:
    result = PassResult()
    for block in func.blocks:
        _run_block(block, result)
    return result


def _run_block(block, result: PassResult) -> None:
    available: Dict[Tuple, VReg] = {}
    key_deps: Dict[int, List[Tuple]] = {}   # reg id -> keys mentioning it
    copies: Dict[int, Value] = {}           # reg id -> resolved value
    memory_version = 0

    def resolve(value: Value) -> Value:
        # no cycle: a copy of itself is never kept, and redefining a
        # register drops every copy that names it
        while isinstance(value, VReg) and value.id in copies:
            value = copies[value.id]
        return value

    def operand_key(value: Value):
        value = resolve(value)
        if isinstance(value, Const):
            return ("c", value.value, str(value.ty))
        return ("r", value.id)

    def invalidate(reg: VReg) -> None:
        for key in key_deps.pop(reg.id, []):
            available.pop(key, None)
        copies.pop(reg.id, None)
        stale = [k for k, v in copies.items()
                 if isinstance(v, VReg) and v.id == reg.id]
        for k in stale:
            del copies[k]

    def remember(key: Tuple, dst: VReg, deps: List[VReg]) -> None:
        available[key] = dst
        for reg in deps:
            key_deps.setdefault(reg.id, []).append(key)
        key_deps.setdefault(dst.id, []).append(key)

    new_instrs = []
    for instr in block.instrs:
        result.work += 1
        key = _key_of(instr, operand_key, memory_version)
        if key is not None and key in available:
            source = available[key]
            if source.ty == instr.dst.ty:
                replacement = ins.Move(instr.dst, source)
                new_instrs.append(replacement)
                result.changed = True
                invalidate(instr.dst)
                copies[instr.dst.id] = source
                continue
        new_instrs.append(instr)
        if isinstance(instr, (ins.Store, ins.VStore, ins.Call)):
            memory_version += 1
        for reg in instr.defs():
            invalidate(reg)
        if isinstance(instr, ins.Move):
            resolved = resolve(instr.src)
            if not (isinstance(resolved, VReg) and
                    resolved.id == instr.dst.id):
                copies[instr.dst.id] = resolved
        elif key is not None:
            deps = [resolve(s) for s in instr.srcs]
            remember(key, instr.dst,
                     [d for d in deps if isinstance(d, VReg)])
    block.instrs = new_instrs


def _key_of(instr: ins.Instr, operand_key, memory_version: int):
    """A hashable identity for pure, repeatable computations."""
    if isinstance(instr, ins.BinOp):
        a, b = operand_key(instr.a), operand_key(instr.b)
        if instr.op in _COMMUTATIVE and b < a:
            a, b = b, a
        return ("bin", instr.op, str(instr.ty), a, b)
    if isinstance(instr, ins.UnOp):
        return ("un", instr.op, str(instr.ty), operand_key(instr.a))
    if isinstance(instr, ins.Cmp):
        return ("cmp", instr.pred, str(instr.ty),
                operand_key(instr.a), operand_key(instr.b))
    if isinstance(instr, ins.Cast):
        return ("cast", str(instr.from_ty), str(instr.to_ty),
                operand_key(instr.src))
    if isinstance(instr, ins.FrameAddr):
        return ("frame", instr.slot)
    if isinstance(instr, ins.Load):
        return ("load", str(instr.ty), operand_key(instr.addr),
                memory_version)
    if isinstance(instr, ins.VLoad):
        return ("vload", str(instr.vty), operand_key(instr.addr),
                memory_version)
    if isinstance(instr, ins.VBinOp):
        a, b = operand_key(instr.a), operand_key(instr.b)
        if instr.op in _COMMUTATIVE and b < a:
            a, b = b, a
        return ("vbin", instr.op, str(instr.vty), a, b)
    if isinstance(instr, ins.VSplat):
        return ("vsplat", str(instr.vty), operand_key(instr.scalar))
    return None
