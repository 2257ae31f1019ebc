"""JIT pipeline tests: frontend, regalloc, codegen, simulation —
including the three-way differential VM == x86 sim == sparc sim."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import emit_module
from repro.core import offline_compile, deploy
from repro.jit import JITCompiler, compile_for_target
from repro.jit.frontend import decode_function
from repro.jit.regalloc import allocate, reg_class
from repro.ir import verify_function
from repro.lang import types as ty
from repro.opt import PassManager, standard_passes
from repro.semantics import Memory
from repro.targets import DSP, HOST, PPC, SPARC, X86, Simulator
from repro.vm import VM
from repro.workloads import ALL_KERNELS, TABLE1
from tests.support import (
    first_moved, jit_outputs, keyed_digest, lower_checked,
)

ALL_TARGETS = [X86, SPARC, PPC, DSP, HOST]


def compile_source(source, target, flow="split"):
    artifact = offline_compile(source)
    return deploy(artifact, target, flow)


class TestFrontend:
    def test_roundtrip_through_bytecode_verifies(self):
        module = lower_checked("""
            int collatz(int n) {
                int steps = 0;
                while (n != 1) {
                    if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
                    steps++;
                }
                return steps;
            }""")
        bc, _ = emit_module(module)
        lir, work = decode_function(bc["collatz"], bc.functions)
        verify_function(lir)
        assert work > 0

    def test_local_regs_mapping_exposed(self):
        module = lower_checked("int f(int a) { int b = a + 1; return b; }")
        bc, _ = emit_module(module)
        lir, _ = decode_function(bc["f"], bc.functions)
        assert len(lir.local_regs) == len(bc["f"].local_types)


class TestRegisterAllocation:
    def lir_of(self, source, name):
        module = lower_checked(source)
        for func in module:
            PassManager(standard_passes(), verify=True).run(func)
        bc, _ = emit_module(module)
        lir, _ = decode_function(bc[name], bc.functions)
        return lir

    def test_no_spills_with_plenty_of_registers(self):
        lir = self.lir_of("int f(int a, int b) { return a + b; }", "f")
        allocation = allocate(lir, {"int": 32, "flt": 32, "vec": 8})
        assert allocation.spilled_regs == 0

    def test_spills_appear_under_pressure(self):
        from repro.workloads import REGALLOC_CORPUS
        lir = self.lir_of(REGALLOC_CORPUS["poly8"], "poly8")
        tight = allocate(lir, {"int": 6, "flt": 6, "vec": 4})
        roomy = allocate(lir, {"int": 64, "flt": 8, "vec": 4})
        assert tight.spilled_regs > 0
        assert roomy.spilled_regs == 0

    def test_no_overlapping_assignments(self):
        """Two simultaneously live vregs must never share a register."""
        from repro.ir.liveness import live_ranges
        from repro.workloads import REGALLOC_CORPUS
        lir = self.lir_of(REGALLOC_CORPUS["stats"], "stats")
        allocation = allocate(lir, {"int": 10, "flt": 6, "vec": 4})
        ranges = live_ranges(lir)
        homed = [(reg, ranges[reg], allocation.homes[reg.id])
                 for reg in ranges if allocation.homes[reg.id][0] == "reg"]
        for i, (reg_a, (sa, ea), home_a) in enumerate(homed):
            for reg_b, (sb, eb), home_b in homed[i + 1:]:
                if home_a == home_b and reg_class(reg_a) == \
                        reg_class(reg_b):
                    overlap = not (ea < sb or eb < sa)
                    assert not overlap, (
                        f"{reg_a} and {reg_b} share {home_a} while "
                        f"both live")

    def test_scratch_registers_never_allocated(self):
        from repro.jit.regalloc import SCRATCH
        lir = self.lir_of("int f(int a, int b) { return a * b; }", "f")
        allocation = allocate(lir, {"int": 8, "flt": 4, "vec": 4})
        for kind, where in allocation.homes.values():
            if kind == "reg":
                cls, index = where
                assert index < 8 - SCRATCH.get(cls, 2) or cls != "int"


class TestExecutionDifferential:
    """VM and all target simulators must produce identical results."""

    N_VALUES = [0, 1, 5, 16, 33, 64]

    @pytest.mark.parametrize("kernel_name", sorted(ALL_KERNELS))
    @pytest.mark.parametrize("target", ALL_TARGETS,
                             ids=[t.name for t in ALL_TARGETS])
    def test_kernels_match_vm(self, kernel_name, target):
        kernel = ALL_KERNELS[kernel_name]
        artifact = offline_compile(kernel.source)
        n = 40

        vm_memory = Memory()
        run = kernel.prepare(vm_memory, n, seed=3)
        vm = VM(artifact.bytecode, memory=vm_memory)
        vm_value = vm.call(kernel.entry, run.args)
        vm_outputs = [vm_memory.read_array(tag, addr, count)
                      for tag, addr, count in run.outputs]

        compiled = deploy(artifact, target, "split")
        sim_memory = Memory()
        sim_run = kernel.prepare(sim_memory, n, seed=3)
        result = Simulator(compiled, sim_memory).run(kernel.entry,
                                                     sim_run.args)
        sim_outputs = [sim_memory.read_array(tag, addr, count)
                       for tag, addr, count in sim_run.outputs]

        assert result.value == vm_value
        assert sim_outputs == vm_outputs

    @pytest.mark.parametrize("n", N_VALUES)
    def test_sum_u8_every_size(self, n):
        kernel = TABLE1["sum_u8"]
        artifact = offline_compile(kernel.source)
        values = {}
        for target in (X86, SPARC, PPC):
            memory = Memory()
            run = kernel.prepare(memory, n, seed=n + 1)
            compiled = deploy(artifact, target, "split")
            result = Simulator(compiled, memory).run(kernel.entry,
                                                     run.args)
            values[target.name] = result.value
        assert len(set(values.values())) == 1

    @settings(max_examples=15, deadline=None)
    @given(a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6))
    def test_scalar_arith_property(self, a, b):
        source = ("int f(int a, int b) { return (a + b) * 3 - (a ^ b); }")
        artifact = offline_compile(source)
        vm_value = VM(artifact.bytecode).call("f", [a, b])
        for target in (X86, SPARC):
            compiled = deploy(artifact, target, "split")
            assert Simulator(compiled).run("f", [a, b]).value == vm_value

    def test_recursive_calls_simulate(self):
        source = ("int fib(int n) { if (n < 2) return n; "
                  "return fib(n-1) + fib(n-2); }")
        compiled = compile_source(source, X86)
        result = Simulator(compiled).run("fib", [12])
        assert result.value == 144
        assert result.calls > 100


class TestFlows:
    def test_online_only_produces_simd_code(self):
        kernel = TABLE1["saxpy_fp"]
        artifact = offline_compile(kernel.source)
        online = deploy(artifact, X86, "online-only")
        offline_only = deploy(artifact, X86, "offline-only")
        ops_online = {i.op for i in online["saxpy"].code}
        ops_offline = {i.op for i in offline_only["saxpy"].code}
        assert "vload" in ops_online        # re-vectorized at run time
        assert "vload" not in ops_offline

    def test_split_and_online_similar_code_quality(self):
        kernel = TABLE1["saxpy_fp"]
        artifact = offline_compile(kernel.source)
        n = 64
        cycles = {}
        for flow in ("split", "online-only", "offline-only"):
            compiled = deploy(artifact, X86, flow)
            memory = Memory()
            run = kernel.prepare(memory, n, seed=5)
            cycles[flow] = Simulator(compiled, memory).run(
                kernel.entry, run.args).cycles
        assert cycles["split"] < cycles["offline-only"]
        assert abs(cycles["split"] - cycles["online-only"]) <= \
            0.25 * cycles["online-only"]

    def test_split_jit_does_no_online_analysis(self):
        kernel = TABLE1["saxpy_fp"]
        artifact = offline_compile(kernel.source)
        split = deploy(artifact, X86, "split")
        online = deploy(artifact, X86, "online-only")
        assert split.total_jit_analysis_work == 0
        assert online.total_jit_analysis_work > 0
        assert split.total_jit_work < online.total_jit_work


class TestCodeSize:
    def test_risc_fixed_width(self):
        compiled = compile_source(
            "int f(int a, int b) { return a + b; }", SPARC)
        assert all(i.size == 4 for i in compiled["f"].code)

    def test_code_bytes_accumulate(self):
        compiled = compile_source(
            "int f(int a, int b) { return a + b; }", X86)
        func = compiled["f"]
        assert func.code_bytes == sum(i.size for i in func.code) + \
            X86.sizes.prologue_bytes

    def test_bytecode_more_compact_than_risc_native(self):
        from repro.bytecode.encode import encoded_code_size
        kernel = TABLE1["saxpy_fp"]
        artifact = offline_compile(kernel.source)
        bc_size = sum(encoded_code_size(f)
                      for f in artifact.scalar_bytecode)
        for target in (SPARC, PPC):
            compiled = deploy(artifact, target, "offline-only")
            assert bc_size < compiled.total_code_bytes
        # x86's variable-length encoding is famously dense; the claim
        # there is "comparable", not "smaller" (see EXPERIMENTS.md).
        x86 = deploy(artifact, X86, "offline-only")
        assert bc_size < 1.5 * x86.total_code_bytes


#: ``tests.support.keyed_digest`` of ``tests.support.jit_outputs()``
PINNED_OUTPUTS = (
    "53e21ae2f22bee631214017b4ff2518764dcf9c318a47933d9459aa6a0965480",
    "c8d3d21a0a38dadde6ea35af93068116adac9a1f3b26c528f744812c"
    "85e12c0237a649acc172df4ef9e621761b606a98c36930f1a2b46df4"
    "642123d5b5b84e1bacbf463b63d8048bd58c824c993817581851a533"
    "39596449d5f73051c6de0d8a3a2f2b9afcd02cf4b81e7560ce42d0f8"
    "e5cef9a92115be61fe39300b6506fcfeb7007293b993d1198701242f"
    "5d1f564780183bbdec9a70426b71e4de8f60083c6526490e1600726e"
    "6d932a4af4ed9cf18a2ea1603bae7189c40188fa58752f4dbfc8837f"
    "4cb0f987f67c50fcf0a8d1739e9ec8b6b0207f00bd5a152b55adf1af"
    "4b2053454bf80374e872abfab465ab9966cc273aa1809e77ae2e3323"
    "49575d0cebfebea4297cd23bcada77c30ea3e4b729d60d001082713a"
    "8ded4aded564e325786dd3cbe24ef3c18360b19b0bd8a3b391477b92"
    "5b8bdb9cdc1489144c0968e5a8baa8452fc63c9f61be33bd9167e547"
    "b3e2df0c2f35b97e1a88e3f7199a127c7c55710a452a4f2fecc31987"
    "49d83fbb1927aefe26e352f81d54590ded1d17d02af046b14aa8685d"
    "52ba24c22abcb06e487e507164cc20a01037130f54cf3c247879e513"
    "72151e11e2bbddc5bc4fbdc347f699fcb1266f596f0d8fdd3dc1fcd5"
    "f7d0c00f79bfab58c705e6da143cd7d56505ba15a90c3fd29984b2ce"
    "eef515ca493f285508e73ea85a903f7cbc56863929e0a3673ccc577c"
    "a61856eb5037220bf9c00d51e4868c1e1da7bd4a291717bd81977114"
    "1972b891d21d3e8d62dbb395c27be010496131bec30b6fdf42e6b226"
    "7739528a5c3ed24e3f7d717140da3650fd72bf5fde838ad8e0167078"
    "d4f5ebbc")


@pytest.fixture(scope="module")
def corpus_run():
    """``jit_outputs()``, once, with what the compilers did on the way
    counted from outside: ``PassManager`` runs and the pass
    invocations they recorded, always-on cleanups and their rounds."""
    from repro.jit import compiler, peephole
    counts = dict(manager_runs=0, invocations=0, cleanups=0, rounds=0)
    real_run, real_cleanup, real_dce = \
        PassManager.run, compiler.quick_cleanup, peephole.dce

    def run(self, func):
        before = len(self.stats.records)
        stats = real_run(self, func)
        counts["manager_runs"] += 1
        counts["invocations"] += len(stats.records) - before
        return stats

    def cleanup(func):
        counts["cleanups"] += 1
        return real_cleanup(func)

    def dce(func):              # one call per round of a cleanup
        counts["rounds"] += 1
        return real_dce(func)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PassManager, "run", run)
        patch.setattr(compiler, "quick_cleanup", cleanup)
        patch.setattr(peephole, "dce", dce)
        return jit_outputs(), counts


def test_jit_output_digest(corpus_run):
    """What both compilers emit, byte for byte: 560 images (16
    functions x 5 flows x 7 targets: every machine instruction, JIT
    work, analysis work, code bytes) and the 32 artifacts they were
    deployed from (offline work, both encoded bytecode flavours,
    per-pass work / runs / changed runs / IR delta).  A PR that means
    to move a modeled number re-pins the two values and says which
    number moved and why; CI also runs this under two fixed
    ``PYTHONHASHSEED`` values.

    Re-pinned by ISSUE 21 for bytes of bytecode only: PVI encoding
    version 1 -> 2 (restamps both flavours; the scalar flavour's
    length is unmoved) and, on the vector flavour, the vector-loop
    descriptor's bytes out and the ``LaneFactsAnnotation`` bytes in.
    The image prints stood from the parent of ISSUE 18 until ISSUE 22.

    Re-pinned by ISSUE 22 for work counters only (the pass manager
    skips a pass that could only confirm, the always-on cleanup has
    no confirming round, ``dce`` is one counting walk).  Compared with
    the previous pin position by position and, where a print moved,
    line by line: of the 560 images the 80 ``wasm32`` stack images
    (no JIT) are equal and the other 480 differ in their header
    line's ``jit_work`` / ``analysis`` / ``passes`` and nowhere else
    (``code_bytes``, every ``spills / frame / params`` line and every
    machine instruction equal); the 32 ``offline`` entries keep both
    ``len sha`` lines and differ in ``offline_work`` and per-pass
    ``work`` / ``runs``, never ``changed`` or ``ir_delta`` (78 rows
    of passes that no longer run at all, ``post:cse.2`` and the like,
    are gone: each had ``changed`` 0 and ``ir_delta`` 0).

    Re-pinned by ISSUE 23 for offline work only (``offline_compile``
    runs the pipeline once and forks the two flavours at the
    vectorizer, so the ``scalar:`` copy of every pass row is gone).
    Compared entry by entry with the parent's capture: all 560 image
    entries equal; each of the 32 ``offline`` entries keeps both
    ``len sha`` lines and every row that is not a ``scalar:`` one
    (``vectorize`` included), loses its ``scalar:`` rows, which
    equalled the kept rows less ``vectorize``, and ``offline_work``
    falls by exactly their work (``sum_u8`` 644 -> 334)."""
    outputs, _ = corpus_run
    assert len(outputs) == 560 + 32
    got = keyed_digest(outputs)
    if got != PINNED_OUTPUTS:
        moved = first_moved(outputs, got[1], PINNED_OUTPUTS[1])
        pytest.fail(f"JIT output moved, first at {moved}:\n"
                    f"{outputs.get(moved)}\nsha256 {got[0]}\n"
                    f"prints {got[1]}")


def test_no_confirmation_left(corpus_run):
    """By count, over the same 560 images and 32 artifacts: the pass
    manager invoked a pass 4 992 times at the parent of ISSUE 22 (186
    runs, each ending in a round of passes that all report no change)
    and the always-on cleanup ran a second round in 504 of its 720
    calls, which changed nothing 504 times.

    ISSUE 23 took the second, identical offline pipeline run out: 90
    of the 186 manager runs were the offline compiler's (32 artifacts,
    two flavours each, and the post-unroll re-run of the 13 ``split-O3``
    artifacts that unroll), 45 are left; the 96 runs of the
    ``online-only`` JIT are untouched.  Invocations 2 828 -> 2 038."""
    _, counts = corpus_run
    assert counts["manager_runs"] == 141
    assert counts["invocations"] <= 2100
    assert counts["cleanups"] == 720
    # no compiled function leaves a first round anything to report
    assert counts["rounds"] == counts["cleanups"]


class TestCodegenRefusals:
    """What the back end refuses by name rather than miscompile: an IR
    instruction it has no encoding for, and a vector op that reaches a
    core without SIMD; and what the allocator does with a register
    class the core lacks."""

    @staticmethod
    def _lir(source, name):
        bytecode = offline_compile(source, name).bytecode
        lir, _ = decode_function(bytecode[name], bytecode.functions)
        return lir

    def _generate(self, lir, target):
        from repro.jit.codegen import generate
        regs = {cls: target.regs_of_class(cls)
                for cls in ("int", "flt", "vec")}
        return generate(lir, allocate(lir, regs), target)

    def test_unknown_instruction(self):
        from repro.ir.instructions import Instr
        from repro.jit.codegen import CodegenError

        class Bogus(Instr):
            pass

        lir = self._lir("int f(int a) { return a; }", "f")
        lir.blocks[0].instrs.insert(0, Bogus(None, []))
        with pytest.raises(CodegenError, match="cannot generate Bogus"):
            self._generate(lir, X86)

    def test_vector_op_without_simd(self):
        from repro.jit.codegen import CodegenError
        lir = self._lir(TABLE1["sum_u8"].source, "sum_u8")
        with pytest.raises(CodegenError, match="vector op reached codegen "
                                               "for non-SIMD target sparc"):
            self._generate(lir, SPARC)

    def test_a_class_with_no_registers_spills_everything(self):
        lir = self._lir("int f(int a, int b) { return a * b + a; }", "f")
        allocation = allocate(lir, {"int": 0, "flt": 4, "vec": 4})
        homes = [allocation.home(reg)[0] for reg in lir.params]
        assert homes == ["slot", "slot"]
