"""Human-readable IR dumps (used by tests, debugging and docs)."""

from __future__ import annotations

from repro.ir import instructions as ins
from repro.ir.function import Function, Module
from repro.ir.values import VReg


def _operand(value) -> str:
    if isinstance(value, VReg):
        hint = f".{value.name}" if value.name else ""
        return f"%{value.id}{hint}"
    return f"{value.value}:{value.ty}"        # a Const


def format_instr(instr: ins.Instr) -> str:
    if isinstance(instr, ins.BinOp):
        return (f"{_operand(instr.dst)} = {instr.op}.{instr.ty} "
                f"{_operand(instr.a)}, {_operand(instr.b)}")
    if isinstance(instr, ins.UnOp):
        return f"{_operand(instr.dst)} = {instr.op}.{instr.ty} {_operand(instr.a)}"
    if isinstance(instr, ins.Cmp):
        return (f"{_operand(instr.dst)} = cmp.{instr.pred}.{instr.ty} "
                f"{_operand(instr.a)}, {_operand(instr.b)}")
    if isinstance(instr, ins.Cast):
        return (f"{_operand(instr.dst)} = cast.{instr.from_ty}.{instr.to_ty} "
                f"{_operand(instr.src)}")
    if isinstance(instr, ins.Move):
        return f"{_operand(instr.dst)} = mov {_operand(instr.src)}"
    if isinstance(instr, ins.Select):
        return (f"{_operand(instr.dst)} = select.{instr.ty} "
                f"{_operand(instr.cond)}, {_operand(instr.a)}, "
                f"{_operand(instr.b)}")
    if isinstance(instr, ins.Load):
        return f"{_operand(instr.dst)} = load.{instr.ty} [{_operand(instr.addr)}]"
    if isinstance(instr, ins.Store):
        return f"store.{instr.ty} [{_operand(instr.addr)}], {_operand(instr.value)}"
    if isinstance(instr, ins.FrameAddr):
        return f"{_operand(instr.dst)} = frame_addr {instr.slot}"
    if isinstance(instr, ins.Call):
        args = ", ".join(_operand(a) for a in instr.args)
        if instr.dst is not None:
            return f"{_operand(instr.dst)} = call @{instr.callee}({args})"
        return f"call @{instr.callee}({args})"
    if isinstance(instr, ins.Ret):
        return f"ret {_operand(instr.value)}" if instr.value is not None else "ret"
    if isinstance(instr, ins.Jump):
        return f"jump {instr.target}"
    if isinstance(instr, ins.Branch):
        return (f"branch {_operand(instr.cond)}, "
                f"{instr.then_target}, {instr.else_target}")
    if isinstance(instr, ins.VLoad):
        return f"{_operand(instr.dst)} = vload.{instr.vty} [{_operand(instr.addr)}]"
    if isinstance(instr, ins.VStore):
        return f"vstore.{instr.vty} [{_operand(instr.addr)}], {_operand(instr.value)}"
    if isinstance(instr, ins.VBinOp):
        return (f"{_operand(instr.dst)} = v{instr.op}.{instr.vty} "
                f"{_operand(instr.a)}, {_operand(instr.b)}")
    if isinstance(instr, ins.VSplat):
        return f"{_operand(instr.dst)} = vsplat.{instr.vty} {_operand(instr.scalar)}"
    if isinstance(instr, ins.VReduce):
        return (f"{_operand(instr.dst)} = vreduce.{instr.op}.{instr.vty}"
                f"->{instr.acc_ty} {_operand(instr.src)}")
    return f"<unknown {type(instr).__name__}>"


def format_function(func: Function) -> str:
    params = ", ".join(f"{_operand(p)}: {p.ty}" for p in func.params)
    lines = [f"func @{func.name}({params}) -> {func.ret_ty} {{"]
    for slot in func.frame_slots.values():
        lines.append(f"  frame {slot.name}: {slot.size} bytes align {slot.align}")
    for block in func.blocks:
        lines.append(f"{block.label}:")
        for instr in block.instrs:
            lines.append(f"  {format_instr(instr)}")
    lines.append("}")
    return "\n".join(lines)


def format_module(module: Module) -> str:
    return "\n\n".join(format_function(f) for f in module)
