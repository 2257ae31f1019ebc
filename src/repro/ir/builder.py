"""Convenience builder for emitting IR instructions."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.lang import types as ty
from repro.ir import instructions as ins
from repro.ir.function import BasicBlock, Function
from repro.ir.values import Value, VecType, VReg


class IRBuilder:
    """Appends instructions to a current insertion block."""

    def __init__(self, func: Function):
        self.func = func
        self.block: Optional[BasicBlock] = None

    def set_block(self, block: BasicBlock) -> BasicBlock:
        self.block = block
        return block

    def emit(self, instr: ins.Instr) -> ins.Instr:
        assert self.block is not None, "no insertion block"
        assert self.block.terminator is None, \
            f"emitting into terminated block {self.block.label}"
        return self.block.append(instr)

    # -- scalar ops ----------------------------------------------------------

    def binop(self, op: str, a: Value, b: Value, result_ty: ty.Type,
              name: str = "") -> VReg:
        dst = self.func.new_reg(result_ty, name)
        self.emit(ins.BinOp(op, dst, a, b, result_ty))
        return dst

    def unop(self, op: str, a: Value, result_ty: ty.Type,
             name: str = "") -> VReg:
        dst = self.func.new_reg(result_ty, name)
        self.emit(ins.UnOp(op, dst, a, result_ty))
        return dst

    def cmp(self, pred: str, a: Value, b: Value, operand_ty: ty.Type,
            name: str = "") -> VReg:
        dst = self.func.new_reg(ty.I32, name)
        self.emit(ins.Cmp(pred, dst, a, b, operand_ty))
        return dst

    def cast(self, src: Value, from_ty: ty.Type, to_ty: ty.Type,
             name: str = "") -> VReg:
        dst = self.func.new_reg(to_ty, name)
        self.emit(ins.Cast(dst, src, from_ty, to_ty))
        return dst

    def move(self, src: Value, name: str = "") -> VReg:
        dst = self.func.new_reg(src.ty, name)
        self.emit(ins.Move(dst, src))
        return dst

    def load(self, addr: Value, mem_ty: ty.Type, name: str = "") -> VReg:
        dst = self.func.new_reg(mem_ty, name)
        self.emit(ins.Load(dst, addr, mem_ty))
        return dst

    def store(self, addr: Value, value: Value, mem_ty: ty.Type) -> None:
        self.emit(ins.Store(addr, value, mem_ty))

    def frame_addr(self, slot: str, name: str = "") -> VReg:
        dst = self.func.new_reg(ty.U64, name or slot)
        self.emit(ins.FrameAddr(dst, slot))
        return dst

    def call(self, callee: str, args: Sequence[Value], ret_ty: ty.Type,
             name: str = "") -> Optional[VReg]:
        dst = None
        if not isinstance(ret_ty, ty.VoidType):
            dst = self.func.new_reg(ret_ty, name)
        self.emit(ins.Call(dst, callee, args, ret_ty))
        return dst

    # -- control flow --------------------------------------------------------

    def jump(self, target: BasicBlock) -> None:
        self.emit(ins.Jump(target.label))

    def branch(self, cond: Value, then_bb: BasicBlock,
               else_bb: BasicBlock) -> None:
        self.emit(ins.Branch(cond, then_bb.label, else_bb.label))

    def ret(self, value: Optional[Value] = None) -> None:
        self.emit(ins.Ret(value))

    # -- vector ops -----------------------------------------------------------

    def vload(self, addr: Value, vty: VecType, name: str = "") -> VReg:
        dst = self.func.new_reg(vty, name)
        self.emit(ins.VLoad(dst, addr, vty))
        return dst

    def vstore(self, addr: Value, value: Value, vty: VecType) -> None:
        self.emit(ins.VStore(addr, value, vty))

    def vbinop(self, op: str, a: Value, b: Value, vty: VecType,
               name: str = "") -> VReg:
        dst = self.func.new_reg(vty, name)
        self.emit(ins.VBinOp(op, dst, a, b, vty))
        return dst

    def vsplat(self, scalar: Value, vty: VecType, name: str = "") -> VReg:
        dst = self.func.new_reg(vty, name)
        self.emit(ins.VSplat(dst, scalar, vty))
        return dst

    def vreduce(self, op: str, src: Value, vty: VecType,
                acc_ty=None, name: str = "") -> VReg:
        result_ty = acc_ty if acc_ty is not None else vty.elem
        dst = self.func.new_reg(result_ty, name)
        self.emit(ins.VReduce(op, dst, src, vty, acc_ty))
        return dst
