"""Unit tests for the JIT's cheap transformation passes: stack
scheduling, cast-chain folding, addressing folds, scalarization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import BCInstr, emit_module, verify_module
from repro.bytecode.module import BytecodeFunction, BytecodeModule
from repro.bytecode.opcodes import type_of
from repro.bytecode.peep import compress_stack_traffic
from repro.core import deploy, offline_compile
from repro.ir import Load, Store, VLoad, verify_function
from repro.jit.addrfold import (
    LoadIndexed, StoreIndexed, fold_addressing,
)
from repro.jit.frontend import decode_function
from repro.jit.peephole import fold_cast_chains, quick_cleanup
from repro.jit.scalarize import promotes_lanes, scalarize_vectors
from repro.ir.values import vec_of
from repro.lang import types as ty
from repro.opt import PassManager, standard_passes
from repro.jit import compile_for_target
from repro.semantics import Memory
from repro.targets import HOST, PPC, SPARC, X86, Simulator, target_names
from repro.targets.registry import executor_for
from repro.vm import VM
from tests.support import lower_checked


def lir_of(source, name, optimize=True):
    module = lower_checked(source)
    if optimize:
        for func in module:
            PassManager(standard_passes(), verify=True).run(func)
    bc, _ = emit_module(module)
    lir, _ = decode_function(bc[name], bc.functions)
    return lir


class TestStackScheduling:
    def test_adjacent_pair_removed(self):
        func = BytecodeFunction(
            "f", [], "i32", ["i32"], [],
            [BCInstr("const", "i32", 7),
             BCInstr("stloc", None, 0),
             BCInstr("ldloc", None, 0),
             BCInstr("ret")])
        compress_stack_traffic(func)
        ops = [i.op for i in func.code]
        assert ops == ["const", "ret"]

    def test_multi_use_local_kept(self):
        func = BytecodeFunction(
            "f", [], "i32", ["i32"], [],
            [BCInstr("const", "i32", 7),
             BCInstr("stloc", None, 0),
             BCInstr("ldloc", None, 0),
             BCInstr("ldloc", None, 0),
             BCInstr("add", "i32"),
             BCInstr("ret")])
        compress_stack_traffic(func)
        assert [i.op for i in func.code][0:2] == ["const", "stloc"]

    def test_branch_targets_remapped(self):
        module = lower_checked("""
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += i * i;
                return s;
            }""")
        bc, _ = emit_module(module)            # compression runs inside
        verify_module(bc)
        for instr in bc["f"].code:
            if instr.op in ("br", "brif"):
                assert 0 <= instr.arg < len(bc["f"].code)

    def test_compressed_code_still_correct(self):
        module = lower_checked(
            "int f(int a, int b) { return (a + b) * (a - b); }")
        bc, _ = emit_module(module)
        verify_module(bc)
        assert VM(bc).call("f", [9, 4]) == 13 * 5

    def test_compression_reduces_instruction_count(self):
        # With and without: emit, then re-expand manually is hard, so
        # just check the invariant that no adjacent single-use pair
        # survives.
        module = lower_checked(
            "int f(int a) { return ((a * 3) + 1) * ((a * 3) + 1); }")
        bc, _ = emit_module(module)
        code = bc["f"].code
        loads = {}
        stores = {}
        for instr in code:
            if instr.op == "ldloc":
                loads[instr.arg] = loads.get(instr.arg, 0) + 1
            if instr.op == "stloc":
                stores[instr.arg] = stores.get(instr.arg, 0) + 1
        targets = {i.arg for i in code if i.op in ("br", "brif")}
        for i in range(len(code) - 1):
            a, b = code[i], code[i + 1]
            assert not (a.op == "stloc" and b.op == "ldloc" and
                        a.arg == b.arg and stores[a.arg] == 1 and
                        loads.get(a.arg) == 1 and i + 1 not in targets)


class TestCastChainFolding:
    def test_widening_chain_folds(self):
        lir = lir_of("long f(int *p, int i) { return p[i]; }", "f")
        quick_cleanup(lir)
        verify_function(lir)
        from repro.ir import Cast
        casts = [i for i in lir.instructions() if isinstance(i, Cast)]
        # i32 -> i64 -> u64 collapses into one cast
        chain = [c for c in casts
                 if (c.from_ty, c.to_ty) == (ty.I32, ty.U64)]
        assert chain

    def test_unsafe_chain_not_folded(self):
        # i32 -> u32 -> i64 must NOT become i32 -> i64 (sign changes).
        source = """
        long f(int x) {
            unsigned u = x;
            return (long)u;
        }"""
        lir = lir_of(source, "f")
        quick_cleanup(lir)
        verify_function(lir)
        from repro.ir.interp import IRInterpreter
        from repro.ir.function import Module
        module = Module("m")
        module.add(lir)
        assert IRInterpreter(module).call("f", [-1]) == 2**32 - 1

    def test_semantics_preserved_for_all_engines(self):
        source = "long f(unsigned char c) { return (long)(int)c + 1; }"
        artifact = offline_compile(source)
        compiled = deploy(artifact, X86, "split")
        assert Simulator(compiled).run("f", [200]).value == 201


class TestAddressingFold:
    def test_fold_applied(self):
        lir = lir_of("int f(int *p, int i) { return p[i]; }", "f")
        quick_cleanup(lir)
        fold_addressing(lir)
        kinds = [type(i).__name__ for i in lir.instructions()]
        assert "LoadIndexed" in kinds

    def test_store_fold_applied(self):
        lir = lir_of("void f(int *p, int i) { p[i] = 7; }", "f")
        quick_cleanup(lir)
        fold_addressing(lir)
        kinds = [type(i).__name__ for i in lir.instructions()]
        assert "StoreIndexed" in kinds

    def test_multi_use_address_not_folded(self):
        # the address feeds a load AND a store: the add must survive
        lir = lir_of("void f(int *p, int i) { p[i] = p[i] + 1; }", "f")
        quick_cleanup(lir)
        fold_addressing(lir)
        from repro.ir import BinOp
        adds = [i for i in lir.instructions()
                if isinstance(i, BinOp) and i.op == "add" and
                i.ty == ty.U64]
        assert adds

    def test_folded_code_executes_correctly(self):
        source = "int f(int *p, int i) { return p[i] * 10; }"
        artifact = offline_compile(source)
        for target in (X86, SPARC):
            compiled = deploy(artifact, target, "split")
            memory = Memory()
            addr = memory.alloc_array(ty.I32, [5, 6, 7, 8])
            assert Simulator(compiled, memory).run(
                "f", [addr, 2]).value == 70


# ---------------------------------------------------------------------------
# a peephole that moves a read must see no definition in between
# ---------------------------------------------------------------------------
#
# The LIR is not SSA: ``stloc`` redefines a local's register while a
# value computed from it still sits on the operand stack.  Both folds
# move the *read* of the producer's operand down to the consumer.

PAPER_FLOWS = ("split", "online-only", "offline-only")


def agree_everywhere(code, params, ret, locals_, make_args):
    """The VM's three engines and every target under the paper's three
    flows return one value for ``f``; returns it."""
    module = BytecodeModule("m")
    module.add(BytecodeFunction("f", list(params), ret, list(locals_),
                                code=[BCInstr(*i) for i in code]))
    verify_module(module)
    results = {}
    for engine in ("reference", "fast", "tier2"):
        memory = Memory()
        results[engine] = VM(module, memory, engine=engine).call(
            "f", make_args(memory))
    for target in target_names():
        for flow in PAPER_FLOWS:
            memory = Memory()
            image = compile_for_target(module, target, flow)
            results[target, flow] = executor_for(image, memory).run(
                "f", make_args(memory)).value
    assert len(set(results.values())) == 1, results
    return results["reference"]


#: t1 -> t2 -> t3 integer widenings that ``fold_cast_chains`` composes
CAST_CHAINS = [("i32", "i64", "u64"), ("i32", "i64", "i64"),
               ("u8", "u32", "u64"), ("i16", "i32", "i64"),
               ("u16", "u32", "i64"), ("i8", "i16", "i32")]


class TestMovedReads:
    def test_cast_chain_over_redefined_local(self):
        """``C = cast B`` over ``B = cast loc0`` with ``loc0 += 1`` in
        between: every native target returned 42."""
        code = [("ldarg", None, 0), ("stloc", None, 0), ("br", None, 3),
                ("ldloc", None, 0), ("cast", "i64", "i32"),
                ("ldloc", None, 0), ("const", "i32", 1), ("add", "i32"),
                ("stloc", None, 0), ("cast", "u64", "i64"), ("ret",)]
        assert agree_everywhere(code, ["i32"], "u64", ["i32"],
                                lambda memory: [41]) == 41

    def test_address_add_over_redefined_local(self):
        """``load [t]`` over ``t = add loc0, 4`` with ``loc0 += 4`` in
        between: six native targets loaded the next element."""
        code = [("ldarg", None, 0), ("stloc", None, 0), ("br", None, 3),
                ("ldloc", None, 0), ("const", "u64", 4), ("add", "u64"),
                ("ldloc", None, 0), ("const", "u64", 4), ("add", "u64"),
                ("stloc", None, 0), ("load", "i32"), ("ret",)]
        assert agree_everywhere(
            code, ["u64"], "i32", ["u64"],
            lambda memory: [memory.alloc_array(ty.I32, [10, 20, 30, 40])]
        ) == 20

    @settings(max_examples=30, deadline=None)
    @given(chain=st.sampled_from(CAST_CHAINS),
           value=st.integers(-2**31, 2**31 - 1),
           step=st.integers(1, 100), redefine=st.booleans(),
           across=st.booleans())
    def test_cast_chain_property(self, chain, value, step, redefine,
                                 across):
        """The inner cast's operand is (or is not) redefined while the
        inner result waits — on the stack in one block, or parked in a
        local across a block boundary."""
        t1, t2, t3 = chain
        code = [("ldarg", None, 0), ("stloc", None, 0), ("br", None, 3),
                ("ldloc", None, 0), ("cast", t2, t1)]
        if across:
            code.append(("stloc", None, 1))
        if redefine:
            code += [("ldloc", None, 0), ("const", t1, step),
                     ("add", t1), ("stloc", None, 0)]
        if across:
            code += [("br", None, len(code) + 1), ("ldloc", None, 1)]
        code += [("cast", t3, t2), ("ret",)]
        value = ty.wrap_int(value, type_of(t1))
        agree_everywhere(code, [t1], t3, [t1, t2],
                         lambda memory: [value])

    @settings(max_examples=30, deadline=None)
    @given(first=st.integers(0, 3), step=st.integers(1, 4),
           operand=st.sampled_from(("base", "index")),
           redefine=st.booleans(), store=st.booleans(),
           across=st.booleans())
    def test_address_add_property(self, first, step, operand, redefine,
                                  store, across):
        """``base + index`` waits while one of the two is (or is not)
        advanced, then addresses a load or a store."""
        which = 0 if operand == "base" else 1
        code = [("ldarg", None, 0), ("stloc", None, 0),
                ("const", "u64", 4 * first), ("stloc", None, 1),
                ("br", None, 5),
                ("ldloc", None, 0), ("ldloc", None, 1), ("add", "u64")]
        if across:
            code.append(("stloc", None, 2))
        if redefine:
            code += [("ldloc", None, which), ("const", "u64", 4 * step),
                     ("add", "u64"), ("stloc", None, which)]
        if across:
            code += [("br", None, len(code) + 1), ("ldloc", None, 2)]
        if store:
            code += [("const", "i32", -7), ("store", "i32"),
                     ("ldarg", None, 0), ("const", "u64", 4 * first),
                     ("add", "u64")]
        code += [("load", "i32"), ("ret",)]
        agree_everywhere(
            code, ["u64"], "i32", ["u64"] * 3,
            lambda memory: [memory.alloc_array(ty.I32, list(range(8)))])


class TestScalarization:
    def test_promotion_decision_per_target(self):
        assert promotes_lanes(SPARC, vec_of(ty.F32))       # 4 lanes, FP
        assert promotes_lanes(PPC, vec_of(ty.F64))         # 2 lanes
        assert not promotes_lanes(SPARC, vec_of(ty.U8))    # 16 lanes
        assert not promotes_lanes(PPC, vec_of(ty.U8))      # > max lanes
        assert not promotes_lanes(HOST, vec_of(ty.I32))    # tiny file

    def test_memory_mode_creates_frame_temps(self):
        kernel_source = """
            int sum_u8(unsigned char *a, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a[i];
                return s;
            }"""
        module = lower_checked(kernel_source)
        func = module["sum_u8"]
        PassManager(standard_passes(), verify=True).run(func)
        from repro.opt.vectorize import vectorize
        vectorize(func)
        bc, _ = emit_module(module)
        lir, _ = decode_function(bc["sum_u8"], bc.functions)
        slots_before = len(lir.frame_slots)
        scalarize_vectors(lir, SPARC)
        verify_function(lir)
        assert len(lir.frame_slots) > slots_before

    def test_register_mode_no_frame_temps(self):
        source = """
            void scale(float *x, int n) {
                for (int i = 0; i < n; i++) x[i] = 2.0f * x[i];
            }"""
        module = lower_checked(source)
        func = module["scale"]
        PassManager(standard_passes(), verify=True).run(func)
        from repro.opt.vectorize import vectorize
        vectorize(func)
        bc, _ = emit_module(module)
        lir, _ = decode_function(bc["scale"], bc.functions)
        slots_before = len(lir.frame_slots)
        scalarize_vectors(lir, PPC)        # f32: promoted
        verify_function(lir)
        assert len(lir.frame_slots) == slots_before

    def test_no_vector_ops_survive(self):
        source = """
            int sum_u16(unsigned short *a, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a[i];
                return s;
            }"""
        artifact = offline_compile(source)
        for target in (SPARC, PPC, HOST):
            compiled = deploy(artifact, target, "split")
            for func in compiled.functions.values():
                for instr in func.code:
                    assert not instr.op.startswith("v"), \
                        (target.name, instr)
