"""Structural and type verifier for IR functions.

Run after lowering and, by :class:`repro.opt.pass_manager.PassManager`
under ``verify=True``, on the function entering a pipeline, after
every pass that reports a change and once when the pipeline ends (a
function that verified and has not changed still verifies): a pass
that produces ill-formed IR is a bug in the pass, and catching it at
the point of damage beats debugging a miscompile three stages later.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.lang import types as ty
from repro.ir import instructions as ins
from repro.ir.cfg import dominators, predecessors, reachable
from repro.ir.function import Function
from repro.ir.values import Const, VecType, VReg


class IRVerifyError(Exception):
    pass


def _fail(func: Function, message: str) -> None:
    raise IRVerifyError(f"{func.name}: {message}")


def verify_function(func: Function) -> None:
    """Raise :class:`IRVerifyError` on the first violation found."""
    if not func.blocks:
        _fail(func, "function has no blocks")

    labels = [b.label for b in func.blocks]
    if len(set(labels)) != len(labels):
        _fail(func, "duplicate block labels")
    label_set = set(labels)

    for block in func.blocks:
        if not block.instrs or not block.instrs[-1].is_terminator:
            _fail(func, f"block {block.label} lacks a terminator")
        for instr in block.instrs[:-1]:
            if instr.is_terminator:
                _fail(func, f"terminator in the middle of {block.label}")
        for target in block.successors():
            if target not in label_set:
                _fail(func, f"branch to unknown block {target!r}")
        for instr in block.instrs:
            _check_instr(func, block.label, instr)

    _check_registers(func)
    _check_defs_dominate_uses(func)


def _check_instr(func: Function, label: str, instr: ins.Instr) -> None:
    def bad(msg: str) -> None:
        _fail(func, f"{label}: {msg}: {instr!r}")

    if isinstance(instr, ins.BinOp):
        if instr.dst.ty != instr.ty:
            bad("binop dst type mismatch")
        for operand in (instr.a, instr.b):
            if operand.ty != instr.ty:
                bad(f"binop operand type {operand.ty} != {instr.ty}")
        if instr.op in ("and", "or", "xor", "shl", "shr", "rem") and \
                not ty.is_integer(instr.ty):
            bad(f"{instr.op} requires integer type")
    elif isinstance(instr, ins.Cmp):
        if instr.dst.ty != ty.I32:
            bad("cmp result must be i32")
        for operand in (instr.a, instr.b):
            if operand.ty != instr.ty:
                bad("cmp operand type mismatch")
    elif isinstance(instr, ins.Cast):
        if instr.dst.ty != instr.to_ty:
            bad("cast dst type mismatch")
        if instr.src.ty != instr.from_ty:
            bad("cast src type mismatch")
    elif isinstance(instr, ins.Move):
        if instr.dst.ty != instr.src.ty:
            bad("move type mismatch")
    elif isinstance(instr, ins.Select):
        if instr.dst.ty != instr.ty:
            bad("select dst type mismatch")
        for operand in (instr.a, instr.b):
            if operand.ty != instr.ty:
                bad("select operand type mismatch")
        if not isinstance(instr.cond.ty, ty.IntType):
            bad("select condition must be an integer")
    elif isinstance(instr, ins.Load):
        if instr.dst.ty != instr.ty:
            bad("load dst type mismatch")
        if not _is_address(instr.addr):
            bad("load address must be u64/i64")
    elif isinstance(instr, ins.Store):
        if instr.value.ty != instr.ty:
            bad("store value type mismatch")
        if not _is_address(instr.addr):
            bad("store address must be u64/i64")
    elif isinstance(instr, ins.FrameAddr):
        if instr.slot not in func.frame_slots:
            bad(f"unknown frame slot {instr.slot!r}")
        if instr.dst.ty != ty.U64:
            bad("frame_addr result must be u64")
    elif isinstance(instr, ins.Ret):
        if isinstance(func.ret_ty, ty.VoidType):
            if instr.value is not None:
                bad("void function returning a value")
        else:
            if instr.value is None:
                bad("missing return value")
            elif instr.value.ty != func.ret_ty:
                bad(f"return type {instr.value.ty} != {func.ret_ty}")
    elif isinstance(instr, ins.VLoad):
        if instr.dst.ty != instr.vty:
            bad("vload dst type mismatch")
        if not _is_address(instr.addr):
            bad("vload address must be u64/i64")
    elif isinstance(instr, ins.VStore):
        if instr.value.ty != instr.vty:
            bad("vstore value type mismatch")
    elif isinstance(instr, ins.VBinOp):
        if instr.dst.ty != instr.vty:
            bad("vbinop dst type mismatch")
        for operand in (instr.a, instr.b):
            if operand.ty != instr.vty:
                bad("vbinop operand type mismatch")
    elif isinstance(instr, ins.VSplat):
        if instr.dst.ty != instr.vty:
            bad("vsplat dst type mismatch")
        if instr.scalar.ty != instr.vty.elem:
            bad("vsplat scalar type mismatch")
    elif isinstance(instr, ins.VReduce):
        if instr.dst.ty != instr.acc_ty:
            bad("vreduce dst type mismatch")
        if instr.src.ty != instr.vty:
            bad("vreduce src type mismatch")
        if ty.is_integer(instr.vty.elem) != ty.is_integer(instr.acc_ty):
            bad("vreduce accumulator class mismatch")


def _is_address(value) -> bool:
    return isinstance(value.ty, ty.IntType) and value.ty.bits == 64


def _check_registers(func: Function) -> None:
    """The invariant behind per-register tables (pass conventions,
    :mod:`repro.ir.function`): every register id lies in
    ``[0, reg_count)`` and belongs to one ``VReg`` object, so a table
    indexed by id can neither overflow nor alias two registers."""
    owner: List[Optional[VReg]] = [None] * func.reg_count

    def check(reg: VReg, where: str) -> None:
        if not 0 <= reg.id < func.reg_count:
            _fail(func, f"register {reg!r} in {where} is outside the "
                        f"function's {func.reg_count} registers")
        if owner[reg.id] is None:
            owner[reg.id] = reg
        elif owner[reg.id] is not reg:
            _fail(func, f"two registers share id {reg.id}: {reg!r} in "
                        f"{where} and {owner[reg.id]!r}")

    for param in func.params:
        check(param, "the parameters")
    for block in func.blocks:
        for instr in block.instrs:
            for value in (*instr.srcs, instr.dst):
                if value.__class__ is VReg:
                    check(value, block.label)


def _check_defs_dominate_uses(func: Function) -> None:
    """Every use must be dominated by a definition (non-SSA: any def)."""
    dom = dominators(func)
    live_labels = reachable(func)
    entry = func.entry.label

    # Blocks of each register's definitions (there may be several).
    def_blocks: List[Set[str]] = [set() for _ in range(func.reg_count)]
    params = 0
    for param in func.params:
        def_blocks[param.id].add(entry)
        params |= 1 << param.id
    for block in func.blocks:
        for instr in block.instrs:
            if instr.dst is not None:
                def_blocks[instr.dst.id].add(block.label)

    for block in func.blocks:
        if block.label not in live_labels:
            continue
        defined_here = params if block.label == entry else 0
        for instr in block.instrs:
            for reg in instr.srcs:
                if reg.__class__ is not VReg or \
                        defined_here >> reg.id & 1:
                    continue
                blocks_defining = def_blocks[reg.id]
                dominated = any(d in dom[block.label] and d != block.label
                                for d in blocks_defining)
                # Non-SSA IR with multi-block defs (e.g. loop-carried
                # values written in the latch): accept a def anywhere as
                # long as at least one def exists.  Strict dominance is
                # checked only when the reg has a single def.
                if not blocks_defining:
                    _fail(func, f"use of undefined register {reg!r} "
                                f"in {block.label}")
                if len(blocks_defining) == 1 and not dominated:
                    only = next(iter(blocks_defining))
                    if only != block.label:
                        _fail(func,
                              f"use of {reg!r} in {block.label} not "
                              f"dominated by its def in {only}")
                    else:
                        # The single def is later in this very block, so
                        # the first execution would read garbage.
                        _fail(func, f"use of {reg!r} before its def "
                                    f"in {block.label}")
            if instr.dst is not None:
                defined_here |= 1 << instr.dst.id
