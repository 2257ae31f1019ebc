"""Lower mid-level IR to PVI stack bytecode.

Every virtual register becomes a typed local; each IR instruction
expands to ``push operands / op / store destination``.  This is the
shape a CLI back-end produces and is exactly invertible: the JIT's
front end rebuilds a register LIR by abstract interpretation of the
stack (see :mod:`repro.jit.frontend`).

Block labels become instruction indices; the emitter returns both the
module and, per function, the label->pc map (where each IR block
landed).  The module comes back with no annotations: the offline
driver attaches them (:mod:`repro.bytecode.annotations`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lang import types as ty
from repro.ir import instructions as ins
from repro.ir.function import Function, Module
from repro.ir.values import Const, VecType, Value, VReg
from repro.bytecode.module import (
    BytecodeFunction, BytecodeModule, FrameSlotInfo, vector_local,
)
from repro.bytecode.opcodes import BCInstr, tag_of
from repro.bytecode.peep import compress_stack_traffic

_COMMUTATIVE = {"add", "mul", "and", "or", "xor", "min", "max"}


def emit_module(module: Module) \
        -> Tuple[BytecodeModule, Dict[str, Dict[str, int]]]:
    """Emit ``module``; returns (bytecode, {func: {label: pc}})."""
    bc_module = BytecodeModule(module.name)
    label_maps: Dict[str, Dict[str, int]] = {}
    for func in module:
        bc_func, labels = _emit_function(func)
        bc_module.add(bc_func)
        label_maps[func.name] = labels
    return bc_module, label_maps


def _local_type(reg: VReg) -> str:
    if isinstance(reg.ty, VecType):
        return vector_local(tag_of(reg.ty.elem))
    return tag_of(reg.ty)


class _Emitter:
    def __init__(self, func: Function):
        self.func = func
        self.code: List[BCInstr] = []
        self.local_types: List[str] = []
        self.local_of: Dict[int, int] = {}      # reg id -> local index
        self.arg_of: Dict[int, int] = {}        # reg id -> arg index
        self.slot_index: Dict[str, int] = {}
        self.fixups: List[Tuple[int, str]] = [] # (pc, target label)
        self.label_pc: Dict[str, int] = {}

    def run(self) -> Tuple[BytecodeFunction, Dict[str, int]]:
        func = self.func
        mutated = set()
        for instr in func.instructions():
            for reg in instr.defs():
                mutated.add(reg.id)
        for index, param in enumerate(func.params):
            if param.id in mutated:
                # A written parameter lives in a local, initialized by a
                # prologue copy, so every read sees the current value.
                self.emit("ldarg", None, index)
                self.emit("stloc", None, self.local(param))
            else:
                self.arg_of[param.id] = index

        frame_slots = []
        for index, slot in enumerate(func.frame_slots.values()):
            self.slot_index[slot.name] = index
            frame_slots.append(FrameSlotInfo(slot.name, slot.size,
                                             slot.align))

        for block in func.blocks:
            self.label_pc[block.label] = len(self.code)
            for instr in block.instrs:
                self._emit_instr(instr)

        for pc, label in self.fixups:
            self.code[pc].arg = self.label_pc[label]

        ret_type = None if isinstance(func.ret_ty, ty.VoidType) \
            else tag_of(func.ret_ty)
        bc = BytecodeFunction(
            name=func.name,
            param_types=[_local_type(p) for p in func.params],
            ret_type=ret_type,
            local_types=self.local_types,
            frame_slots=frame_slots,
            code=self.code,
        )
        # Stack scheduling: drop adjacent single-use store/load pairs
        # (compactness + less JIT decode work), remapping labels.
        remap = compress_stack_traffic(bc)
        self.label_pc = {label: remap[pc]
                         for label, pc in self.label_pc.items()}
        # Side table for the offline analyses that run right after
        # emission (not serialized; annotations carry the results).
        bc.local_map = dict(self.local_of)
        return bc, self.label_pc

    # -- helpers -------------------------------------------------------------

    def emit(self, op: str, type_tag: Optional[str] = None,
             arg: object = None) -> int:
        self.code.append(BCInstr(op, type_tag, arg))
        return len(self.code) - 1

    def local(self, reg: VReg) -> int:
        if reg.id not in self.local_of:
            self.local_of[reg.id] = len(self.local_types)
            self.local_types.append(_local_type(reg))
        return self.local_of[reg.id]

    def push(self, value: Value) -> None:
        if isinstance(value, Const):
            self.emit("const", tag_of(value.ty), value.value)
        elif value.id in self.arg_of:
            self.emit("ldarg", None, self.arg_of[value.id])
        else:
            self.emit("ldloc", None, self.local(value))

    def store_dst(self, reg: VReg) -> None:
        assert reg.id not in self.arg_of, "write to unaliased parameter"
        self.emit("stloc", None, self.local(reg))

    def branch_to(self, op: str, label: str) -> None:
        pc = self.emit(op, None, -1)
        self.fixups.append((pc, label))

    # -- instruction dispatch ----------------------------------------------------

    def _last_stored_local(self):
        if self.code and self.code[-1].op == "stloc":
            return self.code[-1].arg
        return None

    def _emit_instr(self, instr: ins.Instr) -> None:
        if isinstance(instr, ins.BinOp):
            a, b = instr.a, instr.b
            # Put the just-computed value first so the stack scheduler
            # can elide its store/load pair.
            if instr.op in _COMMUTATIVE and isinstance(b, VReg) and \
                    self.local_of.get(b.id) == self._last_stored_local() \
                    and self._last_stored_local() is not None:
                a, b = b, a
            self.push(a)
            self.push(b)
            self.emit(instr.op, tag_of(instr.ty))
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.UnOp):
            self.push(instr.a)
            self.emit(instr.op, tag_of(instr.ty))
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.Cmp):
            self.push(instr.a)
            self.push(instr.b)
            self.emit("cmp", tag_of(instr.ty), instr.pred)
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.Cast):
            self.push(instr.src)
            self.emit("cast", tag_of(instr.to_ty), tag_of(instr.from_ty))
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.Move):
            self.push(instr.src)
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.Select):
            self.push(instr.cond)
            self.push(instr.a)
            self.push(instr.b)
            self.emit("select", tag_of(instr.ty))
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.Load):
            self.push(instr.addr)
            self.emit("load", tag_of(instr.ty))
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.Store):
            self.push(instr.addr)
            self.push(instr.value)
            self.emit("store", tag_of(instr.ty))
        elif isinstance(instr, ins.FrameAddr):
            self.emit("frame", None, self.slot_index[instr.slot])
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.Call):
            for arg in instr.args:
                self.push(arg)
            self.emit("call", None, instr.callee)
            if instr.dst is not None:
                self.store_dst(instr.dst)
            elif not isinstance(instr.ret_ty, ty.VoidType):
                self.emit("pop")
        elif isinstance(instr, ins.Ret):
            if instr.value is not None:
                self.push(instr.value)
            self.emit("ret")
        elif isinstance(instr, ins.Jump):
            self.branch_to("br", instr.target)
        elif isinstance(instr, ins.Branch):
            self.push(instr.cond)
            self.branch_to("brif", instr.then_target)
            self.branch_to("br", instr.else_target)
        elif isinstance(instr, ins.VLoad):
            self.push(instr.addr)
            self.emit("vec.load", tag_of(instr.vty.elem))
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.VStore):
            self.push(instr.addr)
            self.push(instr.value)
            self.emit("vec.store", tag_of(instr.vty.elem))
        elif isinstance(instr, ins.VBinOp):
            a, b = instr.a, instr.b
            if instr.op in _COMMUTATIVE and isinstance(b, VReg) and \
                    self.local_of.get(b.id) == self._last_stored_local() \
                    and self._last_stored_local() is not None:
                a, b = b, a
            self.push(a)
            self.push(b)
            self.emit(f"vec.{instr.op}", tag_of(instr.vty.elem))
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.VSplat):
            self.push(instr.scalar)
            self.emit("vec.splat", tag_of(instr.vty.elem))
            self.store_dst(instr.dst)
        elif isinstance(instr, ins.VReduce):
            self.push(instr.src)
            self.emit("vec.reduce", tag_of(instr.vty.elem),
                      (instr.op, tag_of(instr.acc_ty)))
            self.store_dst(instr.dst)
        else:
            raise ValueError(
                f"cannot emit {type(instr).__name__} to bytecode")


def _emit_function(func: Function) \
        -> Tuple[BytecodeFunction, Dict[str, int]]:
    return _Emitter(func).run()
