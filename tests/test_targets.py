"""Target descriptions, cost models and simulator mechanics."""

import pytest

from repro.core import deploy, offline_compile
from repro.lang import types as ty
from repro.semantics import Memory, TrapError
from repro.targets import (
    ARM, DSP, HOST, PPC, SPARC, TARGETS, WASM32, X86, Simulator,
    UnknownTargetError, as_target, target_names,
)
from repro.targets.isa import CompiledFunction, CompiledModule, MInst
from repro.workloads import TABLE1


class TestCatalog:
    def test_all_targets_registered(self):
        assert set(TARGETS) == {"x86", "sparc", "ppc", "dsp", "host",
                                "arm"}
        # The registry additionally holds the stack-backend target.
        assert set(target_names()) >= set(TARGETS) | {"wasm32"}

    def test_lookup_by_name(self):
        assert as_target("x86") is X86
        assert as_target("arm") is ARM
        assert as_target("wasm32") is WASM32
        # The unified error is a KeyError subclass and lists the
        # registered names (UnknownFlowError ergonomics).
        with pytest.raises(KeyError):
            as_target("z80")
        with pytest.raises(UnknownTargetError, match="x86"):
            as_target("z80")

    def test_simd_capabilities(self):
        assert X86.has_simd and DSP.has_simd and ARM.has_simd
        assert not SPARC.has_simd and not PPC.has_simd
        assert not HOST.has_simd

    def test_register_files_ordered_as_designed(self):
        # The Table 1 story depends on this ordering.
        assert SPARC.int_regs < PPC.int_regs
        assert HOST.int_regs < SPARC.int_regs

    def test_subword_penalty_only_on_sparc(self):
        assert SPARC.costs.subword_mem_extra > 0
        assert PPC.costs.subword_mem_extra == 0
        assert X86.costs.subword_mem_extra == 0

    def test_cost_model_memory_helper(self):
        assert SPARC.costs.mem("load", ty.U8) > \
            SPARC.costs.mem("load", ty.I32)
        assert X86.costs.mem("load", ty.U8) == \
            X86.costs.mem("load", ty.I32)

    def test_size_model_fixed_vs_variable(self):
        assert SPARC.sizes.size_of("alu", True) == 4
        assert X86.sizes.size_of("alu", True) > \
            X86.sizes.size_of("alu", False)


class TestSimulatorMechanics:
    def hand_module(self, code, params=0, ret=True):
        func = CompiledFunction(
            name="f", target_name="x86", code=code,
            param_locs=[("int", i) for i in range(params)],
            ret_void=not ret)
        module = CompiledModule("x86")
        module.add(func)
        return module

    def test_cycles_are_sum_of_costs(self):
        code = [
            MInst("mov", None, ("int", 0), [("imm", 1)], None, cost=3),
            MInst("mov", None, ("int", 1), [("imm", 2)], None, cost=5),
            MInst("bin", ty.I32, ("int", 0),
                  [("int", 0), ("int", 1)], "add", cost=7),
            MInst("ret", None, None, [("int", 0)], None, cost=2),
        ]
        result = Simulator(self.hand_module(code)).run("f", [])
        assert result.value == 3
        assert result.cycles == 3 + 5 + 7 + 2
        assert result.instructions == 4

    def test_uninitialized_register_traps(self):
        code = [MInst("ret", None, None, [("int", 9)], None)]
        with pytest.raises(TrapError):
            Simulator(self.hand_module(code)).run("f", [])

    def test_branch_counters(self):
        code = [
            MInst("mov", None, ("int", 0), [("imm", 3)], None),
            # 1: if r0 != 0 goto 3
            MInst("brif", None, None, [("int", 0)], 3),
            MInst("ret", None, None, [("imm", -1)], None),
            # 3: r0 -= 1 ; goto 1
            MInst("bin", ty.I32, ("int", 0),
                  [("int", 0), ("imm", 1)], "sub"),
            MInst("br", None, None, [], 1),
        ]
        # brif taken 3 times + 1 fall-through = 4; br back 3 times.
        result = Simulator(self.hand_module(code)).run("f", [])
        assert result.value == -1
        assert result.branches == 7

    def test_fuel_exhaustion(self):
        code = [MInst("br", None, None, [], 0)]
        simulator = Simulator(self.hand_module(code, ret=False),
                              fuel=100)
        with pytest.raises(TrapError):
            simulator.run("f", [])

    def test_spill_counters(self):
        code = [
            MInst("mov", None, ("int", 0), [("imm", 42)], None),
            MInst("spill.st", None, None, [("int", 0)], 0),
            MInst("spill.ld", None, ("int", 1), [], 0),
            MInst("ret", None, None, [("int", 1)], None),
        ]
        func = CompiledFunction(name="f", target_name="x86", code=code,
                                frame_bytes=16, param_locs=[],
                                ret_void=False)
        module = CompiledModule("x86")
        module.add(func)
        result = Simulator(module).run("f", [])
        assert result.value == 42
        assert result.spill_stores == 1
        assert result.spill_loads == 1

    def test_empty_spill_slot_reload_traps(self):
        code = [
            MInst("spill.ld", None, ("int", 0), [], 8),
            MInst("ret", None, None, [("int", 0)], None),
        ]
        func = CompiledFunction(name="f", target_name="x86", code=code,
                                frame_bytes=16, param_locs=[],
                                ret_void=False)
        module = CompiledModule("x86")
        module.add(func)
        with pytest.raises(TrapError):
            Simulator(module).run("f", [])


class TestCrossTargetConsistency:
    def test_cycles_differ_but_results_match(self):
        kernel = TABLE1["sum_u16"]
        artifact = offline_compile(kernel.source)
        cycles = {}
        values = set()
        for target in (X86, SPARC, PPC, DSP, HOST):
            compiled = deploy(artifact, target, "split")
            memory = Memory()
            run = kernel.prepare(memory, 80, seed=4)
            result = Simulator(compiled, memory).run(kernel.entry,
                                                     run.args)
            cycles[target.name] = result.cycles
            values.add(result.value)
        assert len(values) == 1
        assert len(set(cycles.values())) > 1   # cost models do differ

    def test_dsp_fast_on_vector_code_slow_on_branches(self):
        vector_kernel = TABLE1["saxpy_fp"]
        artifact = offline_compile(vector_kernel.source)
        results = {}
        for target in (DSP, HOST):
            compiled = deploy(artifact, target, "split")
            memory = Memory()
            run = vector_kernel.prepare(memory, 128, seed=2)
            results[target.name] = Simulator(compiled, memory).run(
                vector_kernel.entry, run.args).cycles
        assert results["dsp"] < results["host"] / 3


class TestImageSurface:
    def test_instruction_text(self):
        assert repr(MInst("call", None, ("int", 0), [("int", 1)], "g")) \
            == "call i0, i1, @g"
        assert repr(MInst("bin", ty.I32, ("int", 2), [("int", 0),
                                                      ("imm", 3)],
                          "add")) == "bin.add.i32 i2, i0, #3"

    def test_frozen_image_refuses_a_function(self):
        module = deploy(offline_compile("int f(void) { return 1; }"),
                        "x86", "split")
        assert module.frozen
        with pytest.raises(ValueError, match="compiled module for 'x86' "
                                             "is frozen"):
            module.add(CompiledFunction(name="g", target_name="x86"))
