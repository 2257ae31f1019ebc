"""JIT pipeline tests: frontend, regalloc, codegen, simulation —
including the three-way differential VM == x86 sim == sparc sim."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import emit_module
from repro.core import offline_compile, deploy
from repro.jit import JITCompiler, JITOptions, compile_for_target
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

    def test_flow_names_validated(self):
        with pytest.raises(ValueError):
            JITOptions.flow("warp-speed")


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
    "522d22ca9e09b0a857664d23029aa8a3b0faf7ffc3f6abefa6280066bf8861b7",
    "ac8e1896a8383d461eaa9a0993b4b6424bfcf41f02b8c182cf71d568"
    "85b772bc181cf3ac4550a32c9f03212927eeaab3996968d5f30b5d9c"
    "649d71a75b5cd240f9bf4532515d22ddd590a0e88a7e3f5889a7fe3c"
    "b6fb647925cc77f248de102fe37c4ecd32612ce335533463a742d3d9"
    "45061f1c2169c10c3f1fd60ba646708a86f47280d6106c1eb0ec432f"
    "01e99f9db1323b47df2474b2e271b8b87b658f1e654af31b8c29576e"
    "a68ccc8b154f8aa08ab7af5e05a56989780f005038462f86b1d2bc7e"
    "47b00e97b38864d9f0bfe13c7bf10e551a2051a8572eacde55830d49"
    "80538345a82b8c0644fdab5758eb6343a2ccbafbe36b04779b433363"
    "69ede79914feab2d7e5184e0ca6d8b9bee69f6b7310764d13ee57181"
    "8d92ddbede37ea25e3bb7a0646ccf388f876f432bfd8d3014d97ea7b"
    "5be0c37a802dd31484b874b7d27042f22fde8a6d6abd04bddfe6b92d"
    "7d7edf1d95eff5067888af6ee91f0b9f7c4ed451446d664647c3b07f"
    "4cfbc5ba19c1f1a478d30ff8b8beb329c09617b5701134d865a82f20"
    "28b7252abf85b0279113684612cc5f4823eb36f9545ed64b8bcb2613"
    "f97052f88c4cddf701d4128fc04723fc5c2aa9d624358fee9f920301"
    "2cd0e6569b0981b2c7931f0c4c6293d5855f8a65151de99899707790"
    "73789cca4f04e359d97c3e78fda6eeedf8563be07f0a4ee53c13560f"
    "57dec96e5c37f77b816d6c28e4f011fdce398f4a0fc321a4883c71a7"
    "9eaad785471dad3284e2e4029540e00865baae1f250b3447708015b8"
    "77a460d885ee414ebea4c96868fc363eda7a8ec17746a9d8ad1ebc3c"
    "ac68eb46")


def test_jit_output_digest():
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
    descriptor's bytes out and the ``LaneFactsAnnotation`` bytes in.  Compared with the previous pin position by position:
    all 560 image prints equal, the 32 ``offline`` entries differ in
    their two ``len sha`` lines and nowhere else.  The images were
    recorded at the parent of ISSUE 18 and have not moved since."""
    outputs = jit_outputs()
    assert len(outputs) == 560 + 32
    got = keyed_digest(outputs)
    if got != PINNED_OUTPUTS:
        moved = first_moved(outputs, got[1], PINNED_OUTPUTS[1])
        pytest.fail(f"JIT output moved, first at {moved}:\n"
                    f"{outputs.get(moved)}\nsha256 {got[0]}\n"
                    f"prints {got[1]}")
