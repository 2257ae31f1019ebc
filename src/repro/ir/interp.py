"""A direct interpreter for the mid-level IR.

Primarily a testing vehicle: the offline optimizer is validated by
running functions before and after each pass and comparing results and
memory.  It shares its evaluation semantics with the bytecode VM and
the target simulators (:mod:`repro.semantics`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.lang import types as ty
from repro.ir import instructions as ins
from repro.ir.function import Function, Module
from repro.ir.values import Const, VecType, VReg
from repro.semantics import (
    Memory, TrapError, eval_binop, eval_cast, eval_cmp, eval_unop,
    vec_binop, vec_reduce, vec_splat,
)

#: Default instruction budget; tests on tiny kernels never get close,
#: and a runaway loop fails fast instead of hanging the suite.
DEFAULT_FUEL = 20_000_000


class IRInterpreter:
    """Executes IR functions against a flat :class:`Memory`."""

    def __init__(self, module: Module, memory: Optional[Memory] = None,
                 fuel: int = DEFAULT_FUEL):
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self.fuel = fuel
        self.instructions_executed = 0

    def call(self, name: str, args: List):
        """Call function ``name`` with Python scalar arguments."""
        func = self.module[name]
        if len(args) != len(func.params):
            raise TrapError(f"{name} expects {len(func.params)} args")
        return self._run(func, args)

    def _run(self, func: Function, args: List):
        regs: Dict[int, object] = {}
        for param, arg in zip(func.params, args):
            regs[param.id] = _coerce_to(param.ty, arg)

        frame_size = func.layout_frame()
        frame_base = self.memory.push_frame(frame_size) if frame_size else 0
        blocks = func.block_map()
        block = func.entry
        index = 0

        try:
            while True:
                if index >= len(block.instrs):
                    raise TrapError(
                        f"fell off the end of block {block.label}")
                instr = block.instrs[index]
                index += 1
                self.instructions_executed += 1
                if self.instructions_executed > self.fuel:
                    raise TrapError("interpreter fuel exhausted")

                result = self._step(func, instr, regs, frame_base)
                if isinstance(result, _Return):
                    return result.value
                if isinstance(result, str):      # branch target label
                    block = blocks[result]
                    index = 0
        finally:
            if frame_size:
                self.memory.pop_frame(frame_base, frame_size)

    # -- single instruction -----------------------------------------------------

    def _step(self, func: Function, instr: ins.Instr,
              regs: Dict[int, object], frame_base: int):
        def val(operand):
            if isinstance(operand, Const):
                return operand.value
            assert isinstance(operand, VReg)
            try:
                return regs[operand.id]
            except KeyError:
                raise TrapError(f"read of undefined register {operand!r}")

        if isinstance(instr, ins.BinOp):
            regs[instr.dst.id] = eval_binop(instr.op, instr.ty,
                                            val(instr.a), val(instr.b))
        elif isinstance(instr, ins.UnOp):
            regs[instr.dst.id] = eval_unop(instr.op, instr.ty, val(instr.a))
        elif isinstance(instr, ins.Cmp):
            regs[instr.dst.id] = eval_cmp(instr.pred, instr.ty,
                                          val(instr.a), val(instr.b))
        elif isinstance(instr, ins.Cast):
            regs[instr.dst.id] = eval_cast(val(instr.src), instr.from_ty,
                                           instr.to_ty)
        elif isinstance(instr, ins.Move):
            regs[instr.dst.id] = val(instr.src)
        elif isinstance(instr, ins.Select):
            regs[instr.dst.id] = val(instr.a) if val(instr.cond) != 0 \
                else val(instr.b)
        elif isinstance(instr, ins.Load):
            regs[instr.dst.id] = self.memory.load(instr.ty, val(instr.addr))
        elif isinstance(instr, ins.Store):
            self.memory.store(instr.ty, val(instr.addr), val(instr.value))
        elif isinstance(instr, ins.FrameAddr):
            slot = func.frame_slots[instr.slot]
            regs[instr.dst.id] = frame_base + slot.offset
        elif isinstance(instr, ins.Call):
            result = self.call(instr.callee, [val(a) for a in instr.args])
            if instr.dst is not None:
                regs[instr.dst.id] = result
        elif isinstance(instr, ins.Ret):
            return _Return(val(instr.value) if instr.value is not None
                           else None)
        elif isinstance(instr, ins.Jump):
            return instr.target
        elif isinstance(instr, ins.Branch):
            return instr.then_target if val(instr.cond) != 0 \
                else instr.else_target
        elif isinstance(instr, ins.VLoad):
            regs[instr.dst.id] = self.memory.load_vec(
                instr.vty.elem, instr.vty.lanes, val(instr.addr))
        elif isinstance(instr, ins.VStore):
            self.memory.store_vec(instr.vty.elem, val(instr.addr),
                                  val(instr.value))
        elif isinstance(instr, ins.VBinOp):
            regs[instr.dst.id] = vec_binop(instr.op, instr.vty.elem,
                                           val(instr.a), val(instr.b))
        elif isinstance(instr, ins.VSplat):
            regs[instr.dst.id] = vec_splat(val(instr.scalar),
                                           instr.vty.lanes)
        elif isinstance(instr, ins.VReduce):
            lanes = [eval_cast(lane, instr.vty.elem, instr.acc_ty)
                     for lane in val(instr.src)]
            regs[instr.dst.id] = vec_reduce(instr.op, instr.acc_ty, lanes)
        else:
            raise TrapError(f"unknown instruction {type(instr).__name__}")
        return None


class _Return:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _coerce_to(reg_ty, value):
    """Coerce a Python argument to the register type's domain."""
    if isinstance(reg_ty, VecType):
        return list(value)
    if isinstance(reg_ty, ty.IntType):
        return ty.wrap_int(int(value), reg_ty)
    from repro.semantics import round_float
    return round_float(float(value), reg_ty)
