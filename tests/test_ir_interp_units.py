"""Direct unit tests for IR interpreter corners not reachable from
MiniC (vector instructions, traps, fuel) and printer round-trips."""

import pytest

from repro.ir import (
    BinOp, Branch, Const, IRBuilder, Function, Jump, Load, Module, Move,
    Ret, Select, Store, VReduce, format_function, verify_function,
)
from repro.ir.printer import format_instr
from repro.ir.interp import IRInterpreter
from repro.ir.values import vec_of
from repro.lang import types as ty
from repro.semantics import Memory, TrapError


def vector_sum_function():
    """sum16u8(addr) -> i32: one vreduce over a loaded vector."""
    func = Function("sum16", ty.I32)
    addr = func.new_param(ty.U64, "addr")
    block = func.new_block("entry")
    builder = IRBuilder(func)
    builder.set_block(block)
    vty = vec_of(ty.U8)
    vec = builder.vload(addr, vty)
    total = builder.vreduce("add", vec, vty, acc_ty=ty.I32)
    builder.ret(total)
    verify_function(func)
    module = Module("m")
    module.add(func)
    return module


class TestVectorSemantics:
    def test_vreduce_widens_exactly(self):
        module = vector_sum_function()
        memory = Memory()
        addr = memory.alloc_array(ty.U8, [255] * 16)
        interp = IRInterpreter(module, memory)
        # 16 * 255 = 4080 > 255: must not wrap at 8 bits.
        assert interp.call("sum16", [addr]) == 4080

    def test_vsplat_and_vbinop(self):
        func = Function("splat_add", ty.I32)
        addr = func.new_param(ty.U64, "addr")
        block = func.new_block("entry")
        builder = IRBuilder(func)
        builder.set_block(block)
        vty = vec_of(ty.U8)
        vec = builder.vload(addr, vty)
        ones = builder.vsplat(Const(1, ty.U8), vty)
        summed = builder.vbinop("add", vec, ones, vty)
        total = builder.vreduce("add", summed, vty, acc_ty=ty.I32)
        builder.ret(total)
        verify_function(func)
        module = Module("m")
        module.add(func)
        memory = Memory()
        data = memory.alloc_array(ty.U8, list(range(16)))
        # sum(0..15) + 16 = 120 + 16
        assert IRInterpreter(module, memory).call(
            "splat_add", [data]) == 136

    def test_vstore_roundtrip(self):
        func = Function("copyv", ty.VOID)
        src = func.new_param(ty.U64, "src")
        dst = func.new_param(ty.U64, "dst")
        block = func.new_block("entry")
        builder = IRBuilder(func)
        builder.set_block(block)
        vty = vec_of(ty.F32)
        builder.vstore(dst, builder.vload(src, vty), vty)
        builder.ret()
        verify_function(func)
        module = Module("m")
        module.add(func)
        memory = Memory()
        a = memory.alloc_array(ty.F32, [1.0, 2.0, 3.0, 4.0])
        b = memory.alloc_array(ty.F32, [0.0] * 4)
        IRInterpreter(module, memory).call("copyv", [a, b])
        assert memory.read_array(ty.F32, b, 4) == [1.0, 2.0, 3.0, 4.0]


class TestInterpreterTraps:
    def test_fuel_limit(self):
        func = Function("spin", ty.VOID)
        block = func.new_block("entry")
        block.append(Jump("entry0"))
        block.label = "entry0"
        module = Module("m")
        module.add(func)
        interp = IRInterpreter(module, fuel=50)
        with pytest.raises(TrapError):
            interp.call("spin", [])

    def test_wrong_arity(self):
        module = vector_sum_function()
        with pytest.raises(TrapError):
            IRInterpreter(module).call("sum16", [])

    def test_read_of_undefined_register_guarded(self):
        func = Function("bad", ty.I32)
        ghost = func.new_reg(ty.I32)
        block = func.new_block("entry")
        block.append(Ret(ghost))
        module = Module("m")
        module.add(func)
        with pytest.raises(TrapError):
            IRInterpreter(module).call("bad", [])


class TestPrinter:
    def test_every_instruction_has_a_text_form(self):
        func = Function("f", ty.I32)
        a = func.new_param(ty.I32, "a")
        block = func.new_block("entry")
        builder = IRBuilder(func)
        builder.set_block(block)
        vty = vec_of(ty.I32)
        instrs = [
            BinOp("add", func.new_reg(ty.I32), a, Const(1, ty.I32),
                  ty.I32),
            Move(func.new_reg(ty.I32), a),
            Select(func.new_reg(ty.I32), a, a, Const(0, ty.I32), ty.I32),
            Load(func.new_reg(ty.I32), Const(64, ty.U64), ty.I32),
            Store(Const(64, ty.U64), a, ty.I32),
            Ret(a),
        ]
        for instr in instrs:
            text = format_instr(instr)
            assert text and "unknown" not in text

    def test_function_dump_contains_blocks_and_frame(self):
        from tests.support import lower_checked
        module = lower_checked("""
            int f(int n) {
                int buf[4];
                buf[0] = n;
                return buf[0];
            }""")
        text = format_function(module["f"])
        assert "func @f" in text
        assert "frame buf" in text
        assert "entry0:" in text


class TestInterpreterCorners:
    def test_select_and_vector_parameter(self):
        """A ``select`` picks by its condition; a vector parameter is
        taken as a list of lanes."""
        func = Function("f", ty.I32)
        vty = vec_of(ty.I32)
        vec = func.new_param(vty, "v")
        cond = func.new_param(ty.I32, "c")
        builder = IRBuilder(func)
        builder.set_block(func.new_block("entry"))
        total = builder.vreduce("add", vec, vty, acc_ty=ty.I32)
        out = func.new_reg(ty.I32)
        builder.emit(Select(out, cond, total, Const(-1, ty.I32), ty.I32))
        builder.ret(out)
        verify_function(func)
        module = Module("m")
        module.add(func)
        interp = IRInterpreter(module, Memory())
        assert interp.call("f", [(1, 2, 3, 4), 1]) == 10
        assert interp.call("f", [(1, 2, 3, 4), 0]) == -1

    def test_block_without_terminator_traps(self):
        func = Function("f", ty.I32)
        func.new_block("entry").append(Move(func.new_reg(ty.I32),
                                            Const(1, ty.I32)))
        module = Module("m")
        module.add(func)
        with pytest.raises(TrapError, match="fell off the end of block "
                                            "entry0"):
            IRInterpreter(module, Memory()).call("f", [])

    def test_unknown_instruction_traps(self):
        from repro.ir.instructions import Instr

        class Bogus(Instr):
            pass

        func = Function("f", ty.I32)
        func.new_block("entry").append(Bogus(None, []))
        module = Module("m")
        module.add(func)
        with pytest.raises(TrapError, match="unknown instruction Bogus"):
            IRInterpreter(module, Memory()).call("f", [])
        assert format_instr(Bogus(None, [])) == "<unknown Bogus>"

    def test_calls_print_with_and_without_a_result(self):
        from repro.ir import Call
        func = Function("f", ty.I32)
        a = func.new_param(ty.I32, "a")
        assert format_instr(Call(None, "g", [a, Const(2, ty.I32)],
                                 ty.VOID)) == "call @g(%0.a, 2:i32)"
        assert format_instr(Call(func.new_reg(ty.I32), "g", [],
                                 ty.I32)) == "%1 = call @g()"

    def test_reprs_name_what_they_hold(self):
        func = Function("f", ty.I32)
        block = func.new_block("entry")
        block.append(Ret(Const(1, ty.I32)))
        assert repr(func) == "Function(f, 1 blocks)"
        assert repr(block) == "BasicBlock(entry0, 1 instrs)"
        assert repr(Const(-3, ty.I64)) == "-3:i64"
