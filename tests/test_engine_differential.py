"""Triple-engine differential testing: fast and tier-2 vs reference.

The fast engines (predecoded closure threading, ``repro.vm.threaded``
and ``repro.targets.dispatch``) and the tier-2 whole-function
translations layered on top of them must be observationally identical
to the reference ladder interpreters: same values, same output arrays,
same instruction and cycle counts, and the same trap at the same
instruction with the same message — across every kernel x flow x
target combination, under fuel exhaustion at arbitrary block offsets
(including tier-2 deopt back to the metered block engine), and over
randomized programs from the property-test generator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import emit_module
from repro.core import deploy, offline_compile
from repro.core.online import select_bytecode
from repro.engine import (
    ENGINE_ENV, FAST, REFERENCE, TIER2, resolve_engine,
)
from repro.flows import flow_names
from repro.semantics import Memory, TrapError
from repro.service import CompilationService
from repro.targets import Simulator, X86
from repro.targets.catalog import TARGETS
from repro.targets.isa import CompiledFunction, CompiledModule, MInst
from repro.vm import VM
from repro.workloads import ALL_KERNELS
from tests.support import lower_checked
from tests.test_property_programs import int_expr, statement_list

N = 32
SEED = 5
MEMORY_BYTES = 1 << 21
#: reference last, so ``outcomes[-1]`` / ``outcomes[REFERENCE]`` is
#: always the oracle the other engines are held to
ENGINES = (FAST, TIER2, REFERENCE)


def assert_engines_agree(outcomes, context=""):
    """Every engine's observation must equal the reference one."""
    oracle = outcomes[REFERENCE]
    for engine, observed in outcomes.items():
        assert observed == oracle, \
            f"{engine} diverges from reference{context and ': '}" \
            f"{context}\n  {engine}: {observed}\n  reference: {oracle}"


@pytest.fixture(scope="module")
def service():
    svc = CompilationService()
    yield svc
    svc.shutdown()


def _vm_observation(bytecode, kernel, engine):
    memory = Memory(MEMORY_BYTES)
    run = kernel.prepare(memory, N, SEED)
    vm = VM(bytecode, memory=memory, engine=engine)
    value = vm.call(kernel.entry, run.args)
    outputs = [memory.read_array(elem_ty, addr, count)
               for elem_ty, addr, count in run.outputs]
    return (repr(value), tuple(repr(o) for o in outputs),
            vm.instructions_executed)


def _sim_observation(compiled, kernel, engine):
    memory = Memory(MEMORY_BYTES)
    run = kernel.prepare(memory, N, SEED)
    result = Simulator(compiled, memory, engine=engine).run(
        kernel.entry, run.args)
    outputs = [memory.read_array(elem_ty, addr, count)
               for elem_ty, addr, count in run.outputs]
    return (repr(result.value), tuple(repr(o) for o in outputs),
            result.instructions, result.cycles, result.branches,
            result.spill_loads, result.spill_stores, result.calls)


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_engines_agree_on_every_kernel_flow_target(name, service):
    """kernels x flows x targets: the fast and tier-2 engines must
    reproduce the reference engines' values, outputs, instruction
    counts, cycle counts and counters exactly."""
    kernel = ALL_KERNELS[name]
    artifact = service.artifact(kernel.source, name)
    for flow in flow_names():
        bytecode = select_bytecode(artifact, flow)
        assert_engines_agree(
            {engine: _vm_observation(bytecode, kernel, engine)
             for engine in ENGINES},
            f"{name}: VM on flow {flow}")
        for target in TARGETS.values():
            compiled = service.deploy(artifact, target, flow)
            assert_engines_agree(
                {engine: _sim_observation(compiled, kernel, engine)
                 for engine in ENGINES},
                f"{name}: simulator on ({target.name}, {flow})")


# ---------------------------------------------------------------------------
# trap parity
# ---------------------------------------------------------------------------

def _vm_trap(source, entry, args, engine, fuel=None):
    module = lower_checked(source)
    bytecode, _ = emit_module(module)
    kwargs = {} if fuel is None else {"fuel": fuel}
    vm = VM(bytecode, engine=engine, **kwargs)
    try:
        value = vm.call(entry, args)
        return ("ok", repr(value), vm.instructions_executed)
    except TrapError as exc:
        return ("trap", str(exc), vm.instructions_executed)


#: a branch with no condition, and a ``brif`` taken and not
BRANCHES = [("br", None), ("brif", 1), ("brif", 0)]
BRANCH_IDS = ["br", "brif taken", "brif not taken"]
#: what the reference ladders' ``pc`` range test raises on ``"x"``
NOT_A_PC = "'>=' not supported between instances of 'str' and 'int'"


class TestVMTrapParity:
    def test_division_by_zero_message(self):
        source = "int f(int a) { return 10 / a; }"
        outcomes = {engine: _vm_trap(source, "f", [0], engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert outcomes[FAST][0] == "trap"
        assert "integer division by zero" in outcomes[FAST][1]

    def test_remainder_by_zero_message(self):
        source = "int f(int a) { return 10 % a; }"
        outcomes = {engine: _vm_trap(source, "f", [0], engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert "integer remainder by zero" in outcomes[FAST][1]

    def test_out_of_bounds_access_message(self):
        source = "int f(int *p) { return *p; }"
        for addr in (0, 1, (1 << 22)):       # null page / beyond end
            outcomes = {engine: _vm_trap(source, "f", [addr], engine)
                        for engine in ENGINES}
            assert_engines_agree(outcomes, f"addr={addr}")
            assert outcomes[FAST][0] == "trap"
            assert "memory access out of bounds" in outcomes[FAST][1]

    def test_out_of_bounds_store_message(self):
        source = "void f(int *p) { *p = 7; }"
        outcomes = {engine: _vm_trap(source, "f", [3], engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert "memory access out of bounds" in outcomes[FAST][1]

    @pytest.mark.parametrize("fuel", [0, 1, 2, 3, 5, 17, 100, 101,
                                      102, 103, 1001])
    def test_fuel_exhaustion_exact_instruction(self, fuel):
        """Sweeping the fuel limit across block boundaries: both
        engines must trap with the same message after executing
        exactly the same number of instructions (the block-entry
        debit plus the metered path reproduce per-instruction
        accounting precisely)."""
        source = """
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += i * i - (s >> 3);
                return s;
            }"""
        outcomes = {engine: _vm_trap(source, "f", [10_000], engine,
                                     fuel=fuel)
                    for engine in ENGINES}
        assert_engines_agree(outcomes, f"fuel={fuel}")
        fast = outcomes[FAST]
        assert fast[0] == "trap" and fast[1] == "VM fuel exhausted"
        assert fast[2] == fuel + 1       # counted like the reference

    @pytest.mark.parametrize("fuel", [5, 9, 10, 11, 12, 35, 36, 37, 60])
    def test_fuel_exhaustion_across_calls(self, fuel):
        """Fuel blocks end at calls, so caller/callee debits interleave
        exactly like per-instruction accounting."""
        source = """
            int helper(int x) { return x * x + 1; }
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += helper(i);
                return s;
            }"""
        assert_engines_agree(
            {engine: _vm_trap(source, "f", [50], engine, fuel=fuel)
             for engine in ENGINES}, f"fuel={fuel}")

    def test_mid_block_trap_rolls_back_block_debit(self):
        """A non-fuel trap mid-block must leave instructions_executed
        exactly where the reference engine leaves it — the block-entry
        debit is rolled back to the trapping instruction, so a reused
        VM has identical remaining fuel on both engines."""
        source = """
            int f(int a, int b) {
                int x = a * 3 + b;
                int y = x / b;
                return y - a + x;
            }"""
        outcomes = {engine: _vm_trap(source, "f", [7, 0], engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert outcomes[FAST][0] == "trap"

    def test_reuse_after_trap_keeps_fuel_parity(self):
        """Catch a trap, then keep calling on the same engine
        instance: fuel exhaustion must land identically afterwards."""
        source = "int f(int a, int b) { int s = 0;"  \
                 " for (int i = 0; i < a; i++) s += i / b;"  \
                 " return s; }"
        module = lower_checked(source)
        bytecode, _ = emit_module(module)
        outcomes = {}
        for engine in ENGINES:
            vm = VM(bytecode, engine=engine, fuel=120)
            trail = []
            with pytest.raises(TrapError):
                vm.call("f", [10, 0])          # div-by-zero mid-loop
            trail.append(vm.instructions_executed)
            try:
                trail.append(("ok", vm.call("f", [50, 1])))
            except TrapError as exc:
                trail.append(("trap", str(exc)))
            trail.append(vm.instructions_executed)
            outcomes[engine] = trail
        assert_engines_agree(outcomes)

    def test_successful_run_instruction_counts_match(self):
        source = """
            int fib(int n) { if (n < 2) return n;
                             return fib(n-1) + fib(n-2); }"""
        outcomes = {engine: _vm_trap(source, "fib", [12], engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert outcomes[FAST][0] == "ok"


    @pytest.mark.parametrize("op, cond", BRANCHES, ids=BRANCH_IDS)
    def test_non_integer_branch_target(self, op, cond):
        """Unverified bytecode branching to ``"x"``, ``1.5`` or
        ``2.0``: a taken branch fails as the reference does, after the
        same count — ``"x"`` at its ``pc`` range test, the branch the
        last instruction counted; a float passes the test, so the
        ladder counts the next instruction (and checks its fuel) before
        its fetch ``code[pc]`` raises.  An untaken ``brif`` falls
        through to the result on every engine.  With the fuel ending
        at the branch, that count is the fuel trap instead."""
        for target in ("x", 1.5, 2.0):
            self.branch_to(op, cond, target)

    @staticmethod
    def branch_to(op, cond, target):
        from repro.bytecode.module import BytecodeFunction, BytecodeModule
        from repro.bytecode.opcodes import BCInstr
        code = [] if op == "br" else [BCInstr("const", "i32", cond)]
        code += [BCInstr(op, None, target), BCInstr("const", "i32", 7),
                 BCInstr("ret")]
        module = BytecodeModule("m", {"f": BytecodeFunction(
            "f", [], "i32", [], [], code)})
        taken = len(code) - 2           # count through the branch
        fetched = not isinstance(target, str)

        def outcomes(fuel):
            seen = {}
            for engine in ENGINES:
                vm = VM(module, engine=engine, verify=False, fuel=fuel)
                try:
                    outcome = ("ok", vm.call("f", []))
                except (TypeError, TrapError) as exc:
                    outcome = (type(exc).__name__, str(exc))
                seen[engine] = (*outcome, vm.instructions_executed)
            assert_engines_agree(seen, repr(target))
            return seen[REFERENCE]

        message = NOT_A_PC if not fetched \
            else "list indices must be integers or slices, not float"
        assert outcomes(1000) == (
            ("ok", 7, 4) if cond == 0
            else ("TypeError", message, taken + fetched)), target
        if cond != 0:
            assert outcomes(taken) == (
                ("TrapError", "VM fuel exhausted", taken + 1) if fetched
                else ("TypeError", message, taken)), target

    @pytest.mark.parametrize("scalar", [0, 5])
    def test_vec_store_of_a_scalar_is_one_outcome(self, scalar):
        """Unverifiable bytecode (the verifier refuses the operand
        type), run unverified: every engine stops on the store, the
        same way.  ``Memory.store_vec`` used to return early on any
        falsy value, so a scalar ``0`` was a silent no-op on the
        reference engine only (``executed == 4``)."""
        from repro.bytecode.module import BytecodeFunction, BytecodeModule
        from repro.bytecode.opcodes import BCInstr
        code = [BCInstr("const", "u64", 4096),
                BCInstr("const", "i32", scalar),
                BCInstr("vec.store", "f32"), BCInstr("ret")]
        module = BytecodeModule("m", {"f": BytecodeFunction(
            "f", [], None, [], [], code)})
        outcomes = {}
        for engine in ENGINES:
            vm = VM(module, engine=engine, verify=False)
            with pytest.raises(TypeError) as caught:
                vm.call("f", [])
            outcomes[engine] = (str(caught.value),
                                vm.instructions_executed)
        assert_engines_agree(outcomes)
        assert outcomes[REFERENCE][1] == 3


class TestSimulatorTrapParity:
    def _module(self, code, frame_bytes=0, ret=True):
        func = CompiledFunction(name="f", target_name="x86", code=code,
                                frame_bytes=frame_bytes, param_locs=[],
                                ret_void=not ret)
        module = CompiledModule("x86")
        module.add(func)
        return module

    def _run(self, module, engine, fuel=None):
        kwargs = {} if fuel is None else {"fuel": fuel}
        simulator = Simulator(module, **kwargs, engine=engine)
        try:
            result = simulator.run("f", [])
            return ("ok", repr(result.value))
        except TrapError as exc:
            return ("trap", str(exc))

    def test_uninitialized_register_message(self):
        module = self._module(
            [MInst("ret", None, None, [("int", 9)], None)])
        outcomes = {engine: self._run(module, engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert outcomes[FAST] == \
            ("trap", "f: read of uninitialized register int9")

    def test_uninitialized_register_in_alu_op(self):
        import repro.lang.types as ty
        module = self._module([
            MInst("mov", None, ("int", 0), [("imm", 3)], None),
            MInst("bin", ty.I32, ("int", 1),
                  [("int", 0), ("flt", 2)], "add"),
            MInst("ret", None, None, [("int", 1)], None),
        ])
        outcomes = {engine: self._run(module, engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert outcomes[FAST] == \
            ("trap", "f: read of uninitialized register flt2")

    def test_uninitialized_read_when_dst_aliases_source(self):
        """dst == src must still trap on the unwritten source — the
        compiled-block writer must not count the destination as
        written before the source reads are generated."""
        import repro.lang.types as lang_ty
        from repro.ir.values import VecType
        cases = [
            [MInst("mov", None, ("int", 0), [("int", 0)], None)],
            [MInst("un", lang_ty.I32, ("int", 0), [("int", 0)], "neg")],
            [MInst("bin", lang_ty.I32, ("int", 0),
                   [("int", 0), ("imm", 1)], "add")],
            [MInst("vsplat", VecType(lang_ty.I32, 4), ("vec", 0),
                   [("vec", 0)], None)],
            # select: dst aliases the *taken* operand
            [MInst("mov", None, ("int", 1), [("imm", 1)], None),
             MInst("select", None, ("int", 0),
                   [("int", 1), ("int", 0), ("imm", 5)], None)],
        ]
        for code in cases:
            code = code + [MInst("ret", None, None, [("imm", 0)], None)]
            module = self._module(code)
            outcomes = {engine: self._run(module, engine)
                        for engine in ENGINES}
            assert_engines_agree(outcomes, repr(code))
            assert outcomes[FAST][0] == "trap", code
            assert "uninitialized register" in outcomes[FAST][1], code

    def test_select_untaken_uninitialized_operand_does_not_trap(self):
        """The reference reads only the chosen operand; an unwritten
        untaken operand must not trap in either engine."""
        module = self._module([
            MInst("mov", None, ("int", 1), [("imm", 1)], None),
            MInst("mov", None, ("int", 2), [("imm", 42)], None),
            MInst("select", None, ("int", 0),
                  [("int", 1), ("int", 2), ("int", 9)], None),
            MInst("ret", None, None, [("int", 0)], None),
        ])
        outcomes = {engine: self._run(module, engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert outcomes[FAST] == ("ok", "42")

    def test_empty_spill_slot_message(self):
        module = self._module([
            MInst("spill.ld", None, ("int", 0), [], 8),
            MInst("ret", None, None, [("int", 0)], None),
        ], frame_bytes=16)
        outcomes = {engine: self._run(module, engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert outcomes[FAST] == \
            ("trap", "f: reload of empty spill slot 8")

    @pytest.mark.parametrize("fuel", [0, 1, 2, 3, 7, 99, 100])
    def test_fuel_exhaustion_message(self, fuel):
        module = self._module([MInst("br", None, None, [], 0)],
                              ret=False)
        outcomes = {engine: self._run(module, engine, fuel=fuel)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert outcomes[FAST] == ("trap", "simulation fuel exhausted")

    def test_fell_off_code_end(self):
        module = self._module(
            [MInst("mov", None, ("int", 0), [("imm", 1)], None)])
        outcomes = {engine: self._run(module, engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert outcomes[FAST] == ("trap", "f: fell off code end")

    @pytest.mark.parametrize("target", [-3, -1, 7, 1000])
    def test_out_of_range_branch_target_traps(self, target):
        """Machine code has no verifier: a wild branch target must
        trap as fell-off-code-end in both engines, never end the call
        silently or escape as an IndexError."""
        module = self._module([
            MInst("mov", None, ("int", 0), [("imm", 1)], None),
            MInst("brif", None, None, [("int", 0)], target),
            MInst("ret", None, None, [("imm", 0)], None),
        ])
        outcomes = {engine: self._run(module, engine)
                    for engine in ENGINES}
        assert_engines_agree(outcomes)
        assert outcomes[FAST] == ("trap", "f: fell off code end")

    @pytest.mark.parametrize("op, cond", BRANCHES, ids=BRANCH_IDS)
    def test_non_integer_branch_target(self, op, cond):
        """The VM row's machine twin, cycles compared too where the run
        returns them."""
        module = self._module([
            MInst("mov", None, ("int", 0), [("imm", cond or 0)], None),
            MInst(op, None, None, [("int", 0)] if op == "brif" else [],
                  "x"),
            MInst("mov", None, ("int", 1), [("imm", 7)], None),
            MInst("ret", None, None, [("int", 1)], None)])
        outcomes = {}
        for engine in ENGINES:
            simulator = Simulator(module, engine=engine)
            try:
                result = simulator.run("f", [])
                outcomes[engine] = ("ok", result.value, result.instructions,
                                    result.cycles)
            except TypeError as exc:
                outcomes[engine] = ("TypeError", str(exc),
                                    simulator._executed)
        assert_engines_agree(outcomes)
        assert outcomes[REFERENCE] == (("ok", 7, 4, 4) if cond == 0
                                       else ("TypeError", NOT_A_PC, 2))

    def test_division_by_zero_in_simulator(self):
        source = "int f(int a, int b) { return a / b; }"
        artifact = offline_compile(source)
        compiled = deploy(artifact, X86, "split")
        outcomes = {}
        for engine in ENGINES:
            try:
                value = Simulator(compiled, Memory(),
                                  engine=engine).run("f", [7, 0]).value
                outcomes[engine] = ("ok", repr(value))
            except TrapError as exc:
                outcomes[engine] = ("trap", str(exc))
        assert_engines_agree(outcomes)
        assert outcomes[FAST] == ("trap", "integer division by zero")


# ---------------------------------------------------------------------------
# shifts and argument values, against Python
# ---------------------------------------------------------------------------

def _every_machine(source, machines=("vm", "x86")):
    """``{(machine, engine): run}`` for ``source`` on the VM and each
    native target named, under every engine; ``run(name, args)`` is
    ``("ok", value)`` or ``("trap", message)``."""
    artifact = offline_compile(source, "m")
    images = {machine: select_bytecode(artifact, "split") if
              machine == "vm" else deploy(artifact, machine, "split")
              for machine in machines}

    def runner(machine, engine):
        def run(name, args):
            try:
                if machine == "vm":
                    return ("ok", VM(images[machine], Memory(1024),
                                     engine=engine).call(name, args))
                return ("ok", Simulator(images[machine], Memory(1024),
                                        engine=engine)
                        .run(name, args).value)
            except TrapError as exc:
                return ("trap", str(exc))
        return run
    return {(machine, engine): runner(machine, engine)
            for machine in machines for engine in ENGINES}


def _wrap64(value: int, signed: bool = True) -> int:
    value &= (1 << 64) - 1
    return value - (1 << 64) if signed and value >> 63 else value


SHIFTS = """
long shr_const(long w, int s) { return w >> 40; }
long shl_const(long w, int s) { return w << 40; }
long shr_int(long w, int s) { return w >> s; }
long shl_int(long w, int s) { return w << s; }
long shr_long(long w, int s) { long c = s; return w >> c; }
long shl_long(long w, int s) { long c = s; return w << c; }
unsigned long ushr_int(long w, int s) { unsigned long u = w; return u >> s; }
long assign(long w, int s) { w >>= s; w <<= (long) 3; return w; }
"""

#: each function of ``SHIFTS`` in Python, for a count in [0, 64)
SHIFTED = {
    "shr_const": lambda w, s: w >> 40,
    "shl_const": lambda w, s: _wrap64(w << 40),
    "shr_int": lambda w, s: w >> s,
    "shl_int": lambda w, s: _wrap64(w << s),
    "shr_long": lambda w, s: w >> s,
    "shl_long": lambda w, s: _wrap64(w << s),
    "ushr_int": lambda w, s: _wrap64(w, signed=False) >> s,
    "assign": lambda w, s: _wrap64((w >> s) << 3),
}


def test_64_bit_shifts_match_python():
    """A 64-bit value shifted by a constant, an ``int`` and a ``long``
    count (and by ``>>=`` / ``<<=``): the count takes the shifted
    type, and the VM and x86 give Python's answer on every engine."""
    runs = _every_machine(SHIFTS)
    for name, expect in SHIFTED.items():
        for w in (0x123456789ABCDEF, -5, 2**62 + 7, -2**63, 2**63 - 1):
            for s in (0, 1, 31, 40, 63):
                want = ("ok", expect(w, s))
                for key, run in runs.items():
                    assert run(name, [w, s]) == want, (name, w, s, key)


ARGUMENTS = """
long f(int s0) { return (long) s0 + 1; }
long g(unsigned char a, short b, unsigned c, long d, unsigned long e) {
    return (long) a + b + (long) c + d + (long) e;
}
"""

#: (g's parameter, its tag, its least and greatest value)
G_PARAMS = [(0, "u8", 0, 255), (1, "i16", -2**15, 2**15 - 1),
            (2, "u32", 0, 2**32 - 1), (3, "i64", -2**63, 2**63 - 1),
            (4, "u64", 0, 2**64 - 1)]


def test_out_of_range_argument_traps_alike():
    """An integer argument outside its parameter's declared type is
    one trap on the VM, x86 and arm under every engine, before any
    code runs; every value the type holds is passed unchanged."""
    runs = _every_machine(ARGUMENTS, ("vm", "x86", "arm"))
    for run in runs.values():
        assert run("f", [2**63 - 4]) == (
            "trap", "f: argument 0 = 9223372036854775804 is not an i32")
        assert run("f", [2**31]) == (
            "trap", "f: argument 0 = 2147483648 is not an i32")
        assert run("f", [-2**31 - 1]) == (
            "trap", "f: argument 0 = -2147483649 is not an i32")
        assert run("f", [2**31 - 1]) == ("ok", 2**31)
        assert run("f", [-2**31]) == ("ok", -2**31 + 1)
        for index, tag, low, high in G_PARAMS:
            for value, fits in ((low, True), (high, True),
                                (low - 1, False), (high + 1, False)):
                args = [0, 0, 0, 0, 0]
                args[index] = value
                want = ("ok", _wrap64(value)) if fits else (
                    "trap", f"g: argument {index} = {value} is not an "
                    f"{tag}")
                assert run("g", args) == want, (index, value)


# ---------------------------------------------------------------------------
# engine selection and predecode-cache behaviour
# ---------------------------------------------------------------------------

class TestEngineSelection:
    SOURCE = "int f(int a) { return a * 3; }"

    def _bytecode(self):
        bytecode, _ = emit_module(lower_checked(self.SOURCE))
        return bytecode

    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert VM(self._bytecode()).engine == FAST
        assert resolve_engine() == FAST

    def test_env_selects_reference(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert VM(self._bytecode()).engine == REFERENCE

    def test_constructor_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert VM(self._bytecode(), engine=FAST).engine == FAST

    def test_invalid_engine_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            VM(self._bytecode(), engine="turbo")
        monkeypatch.setenv(ENGINE_ENV, "warp")
        with pytest.raises(ValueError):
            resolve_engine()

    def test_simulator_engine_parameter(self):
        artifact = offline_compile(self.SOURCE)
        compiled = deploy(artifact, X86, "split")
        assert Simulator(compiled, engine=REFERENCE).engine == REFERENCE


class TestPredecodeCache:
    def test_predecode_shared_across_vms(self):
        bytecode, _ = emit_module(lower_checked(
            "int f(int a) { return a + 5; }"))
        vm1 = VM(bytecode, engine=FAST)
        assert vm1.call("f", [1]) == 6
        cached = bytecode.functions["f"]._predecode_cache
        vm2 = VM(bytecode, engine=FAST)
        assert vm2.call("f", [2]) == 7
        assert bytecode.functions["f"]._predecode_cache is cached

    def test_in_place_code_edit_invalidates_by_content(self):
        bytecode, _ = emit_module(lower_checked(
            "int f(int a) { return a + 5; }"))
        assert VM(bytecode, engine=FAST).call("f", [1]) == 6
        func = bytecode.functions["f"]
        const = next(i for i in func.code if i.op == "const")
        const.arg = 9
        assert VM(bytecode, verify=False,
                  engine=FAST).call("f", [1]) == 10

    def test_machine_predecode_is_lazy_by_default(self):
        artifact = offline_compile("int f(int a) { return a - 1; }")
        compiled = deploy(artifact, X86, "split")
        func = compiled.functions["f"]
        assert getattr(func, "_predecode_cache", None) is None
        Simulator(compiled, engine=FAST).run("f", [4])
        cached = func._predecode_cache
        assert cached is not None
        # a second simulator reuses the function-object cache
        Simulator(compiled, engine=FAST).run("f", [5])
        assert func._predecode_cache is cached

    def test_in_place_edit_picked_up_by_reused_vm(self):
        """The reviewer-grade case: the *same* VM instance must see an
        in-place code edit at its next public call (the call boundary
        revalidates against the content token)."""
        bytecode, _ = emit_module(lower_checked(
            "int f(int a) { return a + 5; }"))
        vm = VM(bytecode, verify=False, engine=FAST)
        assert vm.call("f", [1]) == 6
        func = bytecode.functions["f"]
        const = next(i for i in func.code if i.op == "const")
        const.arg = 9
        assert vm.call("f", [1]) == 10

    def test_layout_edit_invalidates_bytecode_predecode(self):
        """The token covers more than code: editing the local layout
        in place must invalidate too (the predecode bakes defaults and
        frame offsets from it)."""
        bytecode, _ = emit_module(lower_checked(
            "int f(int a) { int x = 2; return a + x; }"))
        assert VM(bytecode, engine=FAST).call("f", [1]) == 3
        func = bytecode.functions["f"]
        token_before = func.content_token()
        func.local_types = list(func.local_types) + ["i32"]
        assert func.content_token() != token_before
        assert func._predecode_cache[0] != func.content_token()

    def test_param_locs_edit_invalidates_machine_predecode(self):
        """Same for machine code: moving a parameter home must not
        reuse a predecode that sized/placed the old register files."""
        from repro.targets.dispatch import predecode_machine
        artifact = offline_compile("int f(int a) { return a; }")
        compiled = deploy(artifact, X86, "split")
        func = compiled.functions["f"]
        pre = predecode_machine(func)
        assert predecode_machine(func) is pre          # cache hit
        func.param_locs = [("flt", 0)]
        assert predecode_machine(func) is not pre      # invalidated

    def test_warm_module_predecodes_every_function(self):
        from repro.targets import warm_module
        artifact = offline_compile(
            "int g(int a) { return a * 2; }"
            "int f(int a) { return g(a) + 1; }")
        compiled = deploy(artifact, X86, "split")
        warm_module(compiled)
        for func in compiled.functions.values():
            assert getattr(func, "_predecode_cache", None) is not None


CALL_HEAVY = (
    "int h(int a) { return a + 3; }"
    "int g(int a) { int i = 0; int s = 0;"
    "  while (i < a) { s = s + h(i); i = i + 1; } return s; }"
    "int f(int a) { return g(a) + g(a + 1) + h(a); }"
)


class TestFrozenCallInlineCache:
    """Per-call inline caching: frozen modules resolve call targets
    once per predecode; unfrozen modules keep the dynamic lookup."""

    def test_offline_outputs_and_deployed_images_are_frozen(self):
        artifact = offline_compile(CALL_HEAVY)
        assert artifact.bytecode.frozen
        assert artifact.scalar_bytecode.frozen
        assert deploy(artifact, X86, "split").frozen

    def test_frozen_add_rejected(self):
        artifact = offline_compile("int f(int a) { return a; }")
        with pytest.raises(ValueError, match="frozen"):
            artifact.bytecode.add(artifact.bytecode.functions["f"])

    def test_engines_agree_on_call_heavy_frozen_module(self):
        artifact = offline_compile(CALL_HEAVY)
        fast = VM(artifact.bytecode, engine=FAST)
        reference = VM(artifact.bytecode, engine=REFERENCE)
        assert fast.call("f", [9]) == reference.call("f", [9])
        assert fast.instructions_executed == \
            reference.instructions_executed
        compiled = deploy(artifact, X86, "split")
        obs = [Simulator(compiled, Memory(), engine=engine).run("f", [9])
               for engine in ENGINES]
        for result in obs[:-1]:           # reference is last
            assert result.value == obs[-1].value
            assert result.cycles == obs[-1].cycles
            assert result.calls == obs[-1].calls

    def test_frozen_vm_binding_pins_the_callee(self):
        """The contract freezing buys: the callee is resolved once at
        predecode, so a (forbidden) post-freeze table swap is not
        observed — where an unfrozen module's dynamic lookup sees it."""
        def build():
            bytecode, _ = emit_module(lower_checked(
                "int g(int a) { return a * 2; }"
                "int f(int a) { return g(a) + 1; }"))
            other, _ = emit_module(lower_checked(
                "int g(int a) { return a * 10; }"))
            return bytecode, other.functions["g"]

        unfrozen, replacement = build()
        assert VM(unfrozen, engine=FAST).call("f", [3]) == 7
        unfrozen.functions["g"] = replacement
        # dynamic lookup: a fresh VM sees the new table
        assert VM(unfrozen, verify=False,
                  engine=FAST).call("f", [3]) == 31

        frozen, replacement = build()
        frozen.freeze()
        assert VM(frozen, verify=False, engine=FAST).call("f", [3]) == 7
        frozen.functions["g"] = replacement
        # binding pinned at predecode, even on a fresh VM
        assert VM(frozen, verify=False,
                  engine=FAST).call("f", [3]) == 7

    def test_frozen_binding_does_not_leak_across_modules(self):
        """Two frozen modules sharing the caller function object but
        mapping the callee name differently must each call their own
        callee — the cache records the binding module."""
        from repro.bytecode.module import BytecodeModule

        base, _ = emit_module(lower_checked(
            "int g(int a) { return a * 2; }"
            "int f(int a) { return g(a) + 1; }"))
        other, _ = emit_module(lower_checked(
            "int g(int a) { return a * 10; }"))
        base.freeze()
        variant = BytecodeModule("variant", {
            "f": base.functions["f"],
            "g": other.functions["g"],
        }).freeze()
        assert VM(base, verify=False, engine=FAST).call("f", [3]) == 7
        assert VM(variant, verify=False,
                  engine=FAST).call("f", [3]) == 31
        assert VM(base, verify=False, engine=FAST).call("f", [3]) == 7

    def test_frozen_machine_binding_pins_the_callee(self):
        artifact = offline_compile(
            "int g(int a) { return a * 2; }"
            "int f(int a) { return g(a) + 1; }")
        compiled = deploy(artifact, X86, "split")
        assert compiled.frozen
        sim = Simulator(compiled, engine=FAST)
        assert sim.run("f", [3]).value == 7
        other = deploy(offline_compile(
            "int g(int a) { return a * 10; }"), X86, "split")
        compiled.functions["g"] = other.functions["g"]
        # forbidden post-freeze swap: the bound callee still runs
        assert Simulator(compiled, engine=FAST).run("f", [3]).value == 7
        # the reference engine (dynamic by design) sees the new table
        assert Simulator(compiled,
                         engine=REFERENCE).run("f", [3]).value == 31

    def test_missing_callee_still_fails_at_execution_time(self):
        """A frozen module with a dead call to a missing function must
        predecode fine and only fail if the call executes (reference
        parity for unverified modules)."""
        from repro.bytecode.module import BytecodeModule

        bytecode, _ = emit_module(lower_checked(
            "int g(int a) { return a; }"
            "int f(int a) { if (a > 100) { return g(a); } return a; }"))
        hollow = BytecodeModule("hollow",
                                {"f": bytecode.functions["f"]}).freeze()
        vm = VM(hollow, verify=False, engine=FAST)
        assert vm.call("f", [5]) == 5          # dead call: no error
        with pytest.raises(KeyError):
            vm.call("f", [200])                # executed: fails now

    def test_content_edit_invalidates_frozen_binding(self):
        bytecode, _ = emit_module(lower_checked(
            "int g(int a) { return a * 2; }"
            "int f(int a) { return g(a) + 1; }"))
        bytecode.freeze()
        vm = VM(bytecode, verify=False, engine=FAST)
        assert vm.call("f", [3]) == 7
        func = bytecode.functions["f"]
        cached = func._predecode_cache
        assert cached[1] is bytecode           # binding recorded
        const = next(i for i in func.code if i.op == "const")
        const.arg = 5
        assert vm.call("f", [3]) == 11         # token revalidation wins


# ---------------------------------------------------------------------------
# randomized differential sweep (property-test program generator)
# ---------------------------------------------------------------------------

def _engine_sweep(source, entry, args):
    """Per-engine VM and simulator observations for one program."""
    bytecode, _ = emit_module(lower_checked(source))
    vm_obs = {}
    for engine in ENGINES:
        vm = VM(bytecode, engine=engine)
        vm_obs[engine] = (repr(vm.call(entry, args)),
                          vm.instructions_executed)
    artifact = offline_compile(source)
    compiled = deploy(artifact, X86, "split")
    sim_obs = {}
    for engine in ENGINES:
        result = Simulator(compiled, Memory(), engine=engine).run(
            entry, args)
        sim_obs[engine] = (repr(result.value), result.instructions,
                           result.cycles)
    return vm_obs, sim_obs


class TestRandomizedSweep:
    @settings(max_examples=25, deadline=None)
    @given(expr=int_expr(), a=st.integers(-1000, 1000),
           b=st.integers(-1000, 1000), c=st.integers(-1000, 1000))
    def test_random_expressions(self, expr, a, b, c):
        source = f"int f(int a, int b, int c) {{ return {expr}; }}"
        vm_obs, sim_obs = _engine_sweep(source, "f", [a, b, c])
        assert_engines_agree(vm_obs)
        assert_engines_agree(sim_obs)
        # VM vs simulator value
        assert vm_obs[REFERENCE][0] == sim_obs[REFERENCE][0]

    @settings(max_examples=15, deadline=None)
    @given(body=statement_list(), a=st.integers(-100, 100),
           b=st.integers(-100, 100), c=st.integers(-100, 100))
    def test_random_statements(self, body, a, b, c):
        source = f"""
        int f(int a, int b, int c) {{
            {body}
            return a ^ b ^ c;
        }}"""
        vm_obs, sim_obs = _engine_sweep(source, "f", [a, b, c])
        assert_engines_agree(vm_obs)
        assert_engines_agree(sim_obs)
        assert vm_obs[REFERENCE][0] == sim_obs[REFERENCE][0]

    @settings(max_examples=10, deadline=None)
    @given(expr=int_expr(), n=st.integers(0, 12),
           seed=st.integers(0, 99), fuel=st.integers(1, 400))
    def test_random_loops_under_fuel_pressure(self, expr, n, seed,
                                              fuel):
        """Random programs with random fuel limits: the engines must
        agree on outcome — value or trap — and on the count of
        executed instructions either way."""
        source = f"""
        int f(int a, int n) {{
            int b = {seed} - 7;
            int c = a ^ n;
            int s = 0;
            for (int i = 0; i < n; i++) {{ s += {expr}; a = a + 1; }}
            return s;
        }}"""
        bytecode, _ = emit_module(lower_checked(source))
        outcomes = {}
        for engine in ENGINES:
            vm = VM(bytecode, engine=engine, fuel=fuel)
            try:
                outcomes[engine] = ("ok", repr(vm.call("f", [seed, n])),
                                    vm.instructions_executed)
            except TrapError as exc:
                outcomes[engine] = ("trap", str(exc),
                                    vm.instructions_executed)
        assert_engines_agree(outcomes, f"fuel={fuel}")


# ---------------------------------------------------------------------------
# tier-2 whole-function translation
# ---------------------------------------------------------------------------

HOT_LOOP = (
    "int helper(int x) { return x * x + 1; }"
    "int f(int n) { int s = 0;"
    "  for (int i = 0; i < n; i++) s += helper(i) - (s >> 2);"
    "  return s; }"
)


class TestTier2Promotion:
    """Who gets whole-function translation, and when it is built."""

    def test_vm_promotes_only_hot_annotated_functions(self):
        from repro.tiering import _TIER2_UNBUILT

        cold = offline_compile(HOT_LOOP, "cold")
        hot = offline_compile(HOT_LOOP, "hot", hotness={"f": 5})
        # (osr pinned off: this is the call-entry policy, and CI's
        # engine matrix forces ``PVI_OSR_THRESHOLD=2``, under which a
        # ten-trip loop is promoted mid-call)
        vm = VM(cold.bytecode, engine=FAST, osr=False)
        assert vm.call("f", [10]) == VM(cold.bytecode,
                                        engine=REFERENCE).call("f", [10])
        pre = cold.bytecode.functions["f"]._predecode_cache[2]
        assert not pre.tier2_hint
        assert pre._tier2 is _TIER2_UNBUILT, \
            "unprofiled function must stay on the block tier"

        vm = VM(hot.bytecode, engine=FAST)
        assert vm.call("f", [10]) == VM(hot.bytecode,
                                        engine=REFERENCE).call("f", [10])
        pre_f = hot.bytecode.functions["f"]._predecode_cache[2]
        assert pre_f.tier2_hint
        assert pre_f._tier2 is not _TIER2_UNBUILT
        assert pre_f._tier2 is not None, "build must succeed"
        # the unannotated callee rides along on the block tier
        pre_h = hot.bytecode.functions["helper"]._predecode_cache[2]
        assert not pre_h.tier2_hint
        assert pre_h._tier2 is _TIER2_UNBUILT

    def test_tier2_engine_promotes_everything(self):
        from repro.tiering import _TIER2_UNBUILT

        artifact = offline_compile(HOT_LOOP, "cold2")
        vm = VM(artifact.bytecode, engine=TIER2)
        assert vm.call("f", [10]) == VM(
            artifact.bytecode, engine=REFERENCE).call("f", [10])
        for name in ("f", "helper"):
            pre = artifact.bytecode.functions[name]._predecode_cache[2]
            assert pre._tier2 is not _TIER2_UNBUILT
            assert pre._tier2 is not None

    def test_sim_promotion_follows_jit_hint(self):
        from repro.tiering import _TIER2_UNBUILT

        # no hotness profile: nothing is hinted
        plain = deploy(offline_compile(HOT_LOOP), X86, "split")
        assert not any(f.tier2_hint for f in plain.functions.values())
        # a profile that clears the threshold hints every function
        hot = offline_compile(HOT_LOOP, hotness={"f": 5, "helper": 5})
        hinted = deploy(hot, X86, "split")
        assert all(f.tier2_hint for f in hinted.functions.values())
        sim = Simulator(hinted, Memory(), engine=FAST)
        want = Simulator(plain, Memory(),
                         engine=REFERENCE).run("f", [9])
        got = sim.run("f", [9])
        assert (got.value, got.cycles, got.instructions) == \
            (want.value, want.cycles, want.instructions)
        pre = hinted.functions["f"]._predecode_cache[2]
        assert pre.tier2_hint and pre._tier2 is not _TIER2_UNBUILT
        assert pre._tier2 is not None

    def test_sim_hint_from_hotness_and_explicit_off(self):
        hot = offline_compile(HOT_LOOP, "hot", hotness={"f": 5})
        hinted = deploy(hot, X86, "split")
        assert hinted.functions["f"].tier2_hint
        assert not hinted.functions["helper"].tier2_hint
        # a zero weight is the profile's explicit "cold"
        cold = offline_compile(HOT_LOOP, "cold", hotness={"f": 0})
        vetoed = deploy(cold, X86, "split")
        assert not any(f.tier2_hint for f in vetoed.functions.values())

    @pytest.mark.parametrize("weight", [None, 0, 1, 5])
    def test_vm_and_sim_share_the_promotion_rule(self, weight):
        """The VM reads the hint off the bytecode's hotness profile,
        the simulator off the JIT's mark on the image built from the
        same artifact; one rule decides both (1 is the threshold)."""
        from repro.targets.dispatch import predecode_machine
        from repro.vm.threaded import predecode

        hotness = None if weight is None else {"f": weight}
        artifact = offline_compile(HOT_LOOP, "rule", hotness=hotness)
        bytecode = select_bytecode(artifact, "split")
        image = deploy(artifact, X86, "split")
        for name in ("f", "helper"):
            vm_hint = predecode(bytecode.functions[name],
                                bytecode).tier2_hint
            sim_hint = predecode_machine(image.functions[name],
                                         image).tier2_hint
            assert vm_hint == sim_hint == \
                (name == "f" and weight is not None and weight >= 1)

    def test_warm_module_builds_hinted_tier2(self):
        from repro.targets import warm_module
        from repro.tiering import _TIER2_UNBUILT

        hot = offline_compile(HOT_LOOP, "hot", hotness={"f": 5})
        compiled = deploy(hot, X86, "split")
        warm_module(compiled)
        pre_f = compiled.functions["f"]._predecode_cache[2]
        assert pre_f._tier2 is not _TIER2_UNBUILT
        assert pre_f._tier2 is not None
        pre_h = compiled.functions["helper"]._predecode_cache[2]
        assert pre_h._tier2 is _TIER2_UNBUILT

    def test_tier2_rides_the_predecode_content_token(self):
        """An in-place code edit invalidates the predecode and with it
        the cached tier-2 code object; the rebuilt one sees the edit."""
        bytecode, _ = emit_module(lower_checked(
            "int f(int a) { return a + 5; }"))
        vm = VM(bytecode, verify=False, engine=TIER2)
        assert vm.call("f", [1]) == 6
        func = bytecode.functions["f"]
        first = func._predecode_cache[2]
        const = next(i for i in func.code if i.op == "const")
        const.arg = 9
        assert vm.call("f", [1]) == 10
        assert func._predecode_cache[2] is not first


class TestTier2DeoptParity:
    """Deopt back to the metered block engine: fuel boundaries and
    traps must land on the same instruction with the same message."""

    TRAP_AT_LEADER = """
        int f(int a, int b) {
            int s = a + 1;
            if (s > 3) { s = s / b; }
            return s + a;
        }"""

    def test_trap_on_first_instruction_after_fuel_boundary(self):
        """Brute-force sweep: every fuel value from 0 to beyond the
        trap, so some value lands the exhaustion exactly on the block
        leader whose first real instruction traps — the deopt path must
        pin the same instruction index as the reference either way."""
        for fuel in range(0, 40):
            outcomes = {engine: _vm_trap(self.TRAP_AT_LEADER, "f",
                                         [7, 0], engine, fuel=fuel)
                        for engine in ENGINES}
            assert_engines_agree(outcomes, f"fuel={fuel}")

    def test_fuel_pinned_at_every_block_leader(self):
        """For each block leader L, run with ``fuel == L`` so the
        debit of the block starting at L is the one that trips — the
        instruction count and trap must match the reference exactly."""
        from repro.engine import fuel_blocks

        bytecode, _ = emit_module(lower_checked(self.TRAP_AT_LEADER))
        leaders = sorted(fuel_blocks(bytecode.functions["f"].code))
        assert len(leaders) > 2, "test program must be multi-block"
        for leader in leaders:
            outcomes = {engine: _vm_trap(self.TRAP_AT_LEADER, "f",
                                         [7, 1], engine, fuel=leader)
                        for engine in ENGINES}
            assert_engines_agree(outcomes, f"fuel==leader {leader}")

    def test_sim_dense_fuel_sweep_with_calls_and_trap(self):
        """Simulator side: caller/callee debit interleaving plus a
        trapping callee, swept densely across fuel values; executed
        counts must match even when the run ends in a trap."""
        source = (
            "int helper(int x, int d) { return x / d; }"
            "int f(int n, int d) { int s = 0;"
            "  for (int i = 0; i < n; i++) s += helper(i + 1, d);"
            "  return s; }"
        )
        artifact = offline_compile(source)
        compiled = deploy(artifact, X86, "split")
        for d in (1, 0):                      # clean run and mid-loop trap
            for fuel in range(0, 90, 1):
                outcomes = {}
                for engine in ENGINES:
                    sim = Simulator(compiled, Memory(), engine=engine,
                                    fuel=fuel)
                    try:
                        result = sim.run("f", [20, d])
                        outcomes[engine] = (
                            "ok", repr(result.value), result.cycles,
                            result.instructions, sim._executed)
                    except TrapError as exc:
                        outcomes[engine] = ("trap", str(exc),
                                            sim._executed)
                assert_engines_agree(outcomes, f"d={d} fuel={fuel}")

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(0, 15), d=st.integers(0, 3),
           fuel=st.integers(1, 500))
    def test_random_fuel_three_way_with_calls(self, n, d, fuel):
        """Hypothesis: random fuel against a call-heavy program with a
        possible division trap — values, traps and executed counts
        agree across all three engines on both the VM and the
        simulator."""
        source = (
            "int helper(int x, int d) { return x / d; }"
            "int f(int n, int d) { int s = 0;"
            "  for (int i = 0; i < n; i++) s += helper(i + 1, d);"
            "  return s; }"
        )
        outcomes = {engine: _vm_trap(source, "f", [n, d], engine,
                                     fuel=fuel)
                    for engine in ENGINES}
        assert_engines_agree(outcomes, f"VM n={n} d={d} fuel={fuel}")
        artifact = offline_compile(source)
        compiled = deploy(artifact, X86, "split")
        sim_outcomes = {}
        for engine in ENGINES:
            sim = Simulator(compiled, Memory(), engine=engine,
                            fuel=fuel)
            try:
                result = sim.run("f", [n, d])
                sim_outcomes[engine] = ("ok", repr(result.value),
                                        result.cycles,
                                        result.instructions,
                                        sim._executed)
            except TrapError as exc:
                sim_outcomes[engine] = ("trap", str(exc), sim._executed)
        assert_engines_agree(sim_outcomes,
                             f"sim n={n} d={d} fuel={fuel}")

    def test_reused_vm_after_tier2_deopt_keeps_fuel_parity(self):
        """Deopt mid-function (fuel), catch the trap, keep calling on
        the same engine instance: remaining fuel must agree."""
        bytecode, _ = emit_module(lower_checked(HOT_LOOP))
        trails = {}
        for engine in ENGINES:
            vm = VM(bytecode, engine=engine, fuel=200)
            trail = []
            with pytest.raises(TrapError):
                vm.call("f", [10_000])          # exhausts mid-loop
            trail.append(vm.instructions_executed)
            try:
                trail.append(("ok", vm.call("f", [3])))
            except TrapError as exc:
                trail.append(("trap", str(exc)))
            trail.append(vm.instructions_executed)
            trails[engine] = trail
        assert_engines_agree(trails)


# ---------------------------------------------------------------------------
# on-stack replacement
# ---------------------------------------------------------------------------

class TestOSR:
    """Mid-call tiering: a call spinning in the block tier enters
    tier-2 at a hot loop header, and a deopted call re-enters the same
    way — all of it held to exact value/instruction/trap parity with
    the reference ladder."""

    #: single long loop, no hotness annotation: starts on the block
    #: tier and can only reach tier-2 through OSR
    LONG_LOOP = (
        "int f(int n) { int s = 0;"
        "  for (int i = 0; i < n; i++) s += i * 3 - (s >> 2);"
        "  return s; }"
    )

    #: multi-block loop body (branchy), so the loop carries interior
    #: leaders distinct from the header — deopt points for the forced
    #: re-entry tests and extra fuel boundaries for the sweeps
    BRANCHY_LOOP = (
        "int f(int n) { int s = 0;"
        "  for (int i = 0; i < n; i++) {"
        "    if (i & 1) { s += i * 3; } else { s -= i; }"
        "    s = s ^ (s >> 2);"
        "  }"
        "  return s; }"
    )

    # -- entry parity and counters ----------------------------------------

    def test_vm_osr_entry_matches_reference(self):
        bytecode, _ = emit_module(lower_checked(self.LONG_LOOP))
        want = VM(bytecode, engine=REFERENCE)
        want_value = want.call("f", [1_000])
        vm = VM(bytecode, engine=FAST, osr=True, osr_threshold=8)
        assert vm.call("f", [1_000]) == want_value
        assert vm.instructions_executed == want.instructions_executed
        stats = vm.tiering_stats()
        assert stats["osr_entries"] >= 1, \
            "an unannotated hot loop must tier up mid-call"
        assert stats["tier2_promotions"] == 0, \
            "no hotness hint: the call must not start in tier-2"
        assert stats["deopt_reentries"] == 0

    def test_sim_osr_entry_matches_reference(self):
        artifact = offline_compile(self.LONG_LOOP)
        compiled = deploy(artifact, X86, "split")
        want = Simulator(compiled, Memory(),
                         engine=REFERENCE).run("f", [1_000])
        sim = Simulator(compiled, Memory(), engine=FAST,
                        osr=True, osr_threshold=8)
        got = sim.run("f", [1_000])
        assert (got.value, got.instructions, got.cycles,
                got.branches) == (want.value, want.instructions,
                                  want.cycles, want.branches)
        stats = sim.tiering_stats()
        assert stats["osr_entries"] >= 1
        assert stats["tier2_promotions"] == 0

    def test_vm_osr_off_knob(self):
        bytecode, _ = emit_module(lower_checked(self.LONG_LOOP))
        want = VM(bytecode, engine=REFERENCE).call("f", [1_000])
        vm = VM(bytecode, engine=FAST, osr=False, osr_threshold=8)
        assert vm.call("f", [1_000]) == want
        assert vm.tiering_stats()["osr_entries"] == 0

    def test_osr_env_knob(self, monkeypatch):
        from repro.engine import OSR_ENV

        bytecode, _ = emit_module(lower_checked(self.LONG_LOOP))
        monkeypatch.setenv(OSR_ENV, "0")
        off = VM(bytecode, engine=FAST, osr_threshold=8)
        off.call("f", [1_000])
        assert off.tiering_stats()["osr_entries"] == 0
        monkeypatch.setenv(OSR_ENV, "1")
        on = VM(bytecode, engine=FAST, osr_threshold=8)
        on.call("f", [1_000])
        assert on.tiering_stats()["osr_entries"] >= 1

    # -- fuel boundaries across OSR entries --------------------------------

    def test_vm_fuel_sweep_across_osr_boundaries(self):
        """Dense fuel sweep with a tiny OSR threshold: some fuel value
        lands the exhaustion on every block leader — including the
        snapshot leaders OSR enters at — and the trap must pin the same
        instruction as the reference every time."""
        bytecode, _ = emit_module(lower_checked(self.BRANCHY_LOOP))
        for fuel in range(0, 260):
            outcomes = {}
            for engine in ENGINES:
                vm = VM(bytecode, engine=engine, fuel=fuel,
                        osr=True, osr_threshold=3)
                try:
                    outcomes[engine] = ("ok", repr(vm.call("f", [40])),
                                        vm.instructions_executed)
                except TrapError as exc:
                    outcomes[engine] = ("trap", str(exc),
                                        vm.instructions_executed)
            assert_engines_agree(outcomes, f"fuel={fuel}")

    def test_sim_fuel_sweep_across_osr_boundaries(self):
        artifact = offline_compile(self.BRANCHY_LOOP)
        compiled = deploy(artifact, X86, "split")
        for fuel in range(0, 300, 2):
            outcomes = {}
            for engine in ENGINES:
                sim = Simulator(compiled, Memory(), engine=engine,
                                fuel=fuel, osr=True, osr_threshold=3)
                try:
                    result = sim.run("f", [40])
                    outcomes[engine] = ("ok", repr(result.value),
                                        result.cycles,
                                        result.instructions,
                                        sim._executed)
                except TrapError as exc:
                    outcomes[engine] = ("trap", str(exc), sim._executed)
            assert_engines_agree(outcomes, f"fuel={fuel}")

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(0, 40), fuel=st.integers(1, 600),
           threshold=st.integers(1, 6))
    def test_random_fuel_with_osr(self, n, fuel, threshold):
        """Hypothesis: random fuel x random (low) OSR threshold, so
        entries land at arbitrary loop trip counts — values, traps and
        executed counts agree three ways on both machines."""
        bytecode, _ = emit_module(lower_checked(self.BRANCHY_LOOP))
        outcomes = {}
        for engine in ENGINES:
            vm = VM(bytecode, engine=engine, fuel=fuel,
                    osr=True, osr_threshold=threshold)
            try:
                outcomes[engine] = ("ok", repr(vm.call("f", [n])),
                                    vm.instructions_executed)
            except TrapError as exc:
                outcomes[engine] = ("trap", str(exc),
                                    vm.instructions_executed)
        assert_engines_agree(outcomes,
                             f"VM n={n} fuel={fuel} thr={threshold}")
        artifact = offline_compile(self.BRANCHY_LOOP)
        compiled = deploy(artifact, X86, "split")
        sim_outcomes = {}
        for engine in ENGINES:
            sim = Simulator(compiled, Memory(), engine=engine,
                            fuel=fuel, osr=True, osr_threshold=threshold)
            try:
                result = sim.run("f", [n])
                sim_outcomes[engine] = ("ok", repr(result.value),
                                        result.cycles,
                                        result.instructions,
                                        sim._executed)
            except TrapError as exc:
                sim_outcomes[engine] = ("trap", str(exc),
                                        sim._executed)
        assert_engines_agree(sim_outcomes,
                             f"sim n={n} fuel={fuel} thr={threshold}")

    # -- deopt re-entry -----------------------------------------------------

    def test_vm_deopt_reentry_at_hot_site(self, monkeypatch):
        """Force every non-header block untranslatable in tier-2: each
        entered iteration deopts at the first interior leader, counting
        continues, and the hot header re-enters ``_t2`` — the
        ``deopt_reentries`` counter must fire and parity must hold."""
        from repro.engine import backedge_targets, fuel_blocks
        from repro.vm import threaded

        bytecode, _ = emit_module(lower_checked(self.BRANCHY_LOOP))
        code = bytecode.functions["f"].code
        keep = backedge_targets(code, fuel_blocks(code))
        assert keep, "test program must have a loop header"
        real = threaded._gen_block_lines

        def failing(low, leader, length, tier):
            if tier.tier2 and leader not in keep:
                raise RuntimeError("forced untranslatable (test)")
            return real(low, leader, length, tier)

        monkeypatch.setattr(threaded, "_gen_block_lines", failing)
        want = VM(bytecode, engine=REFERENCE)
        want_value = want.call("f", [200])
        vm = VM(bytecode, engine=TIER2, osr=True, osr_threshold=4)
        assert vm.call("f", [200]) == want_value
        assert vm.instructions_executed == want.instructions_executed
        stats = vm.tiering_stats()
        assert stats["osr_entries"] >= 2
        assert stats["deopt_reentries"] >= 1, \
            "a hot deopt site must re-enter tier-2"

    def test_sim_deopt_reentry_at_hot_site(self, monkeypatch):
        from repro.engine import backedge_targets, fuel_blocks
        from repro.targets import dispatch

        artifact = offline_compile(self.BRANCHY_LOOP)
        compiled = deploy(artifact, X86, "split")
        code = compiled.functions["f"].code
        keep = backedge_targets(code, fuel_blocks(code))
        assert keep, "test program must have a loop header"
        real = dispatch._gen_block_lines

        def failing(low, leader, length, tier):
            if tier.tier2 and leader not in keep:
                raise RuntimeError("forced untranslatable (test)")
            return real(low, leader, length, tier)

        monkeypatch.setattr(dispatch, "_gen_block_lines", failing)
        want = Simulator(compiled, Memory(),
                         engine=REFERENCE).run("f", [200])
        sim = Simulator(compiled, Memory(), engine=TIER2,
                        osr=True, osr_threshold=4)
        got = sim.run("f", [200])
        assert (got.value, got.instructions, got.cycles) == \
            (want.value, want.instructions, want.cycles)
        stats = sim.tiering_stats()
        assert stats["osr_entries"] >= 2
        assert stats["deopt_reentries"] >= 1

    @pytest.mark.parametrize("engine_name", ["vm", "sim"])
    def test_declined_entry_is_retired(self, engine_name):
        """A ``_t2`` that declines the snapshot (returns the entry pc
        untouched) must be asked at most once per leader per call: the
        counter is parked, the call finishes on the block tier, and
        nothing is counted as an OSR entry.  (A translation that
        exists is also tried at pc 0, where a decline leaves the call
        on the block tier from its first instruction.)  Both engines
        run the scaffold's one trampoline; each declines with its own
        handler signature."""
        attempts = []
        if engine_name == "vm":
            module, _ = emit_module(lower_checked(self.LONG_LOOP))
            want = VM(module, engine=REFERENCE).call("f", [1_000])
            machine = VM(module, engine=FAST, osr=True, osr_threshold=8)

            def declining(s, lo, ar, fb, mem, vm_, pc=0):
                attempts.append(pc)
                return pc                  # decline: state untouched

            def call():
                return machine.call("f", [1_000])
        else:
            module = deploy(offline_compile(self.LONG_LOOP), X86, "split")
            want = Simulator(module, Memory(),
                             engine=REFERENCE).run("f", [1_000]).value
            machine = Simulator(module, Memory(), engine=FAST, osr=True,
                                osr_threshold=8)

            def declining(ri, rf, rv, slots, fb, mem, sim, res, pc=0):
                attempts.append(pc)
                return pc                  # decline: state untouched

            def call():
                return machine.run("f", [1_000]).value
        pre = machine._predecode(module.functions["f"])
        pre._tier2 = declining
        pre._tier2_args = (None, None, None)
        assert call() == want
        assert machine.tiering_stats()["osr_entries"] == 0
        assert attempts[0] == 0, "an existing translation starts the call"
        osr_attempts = attempts[1:]
        leaders = set(pre.osr_leaders)
        assert osr_attempts and set(osr_attempts) <= leaders
        assert len(osr_attempts) == len(set(osr_attempts)), \
            "a declined leader must be retired for the rest of the call"

    # -- warming: tier-2 is never built in-request --------------------------

    def test_warm_bytecode_module_prebuilds_osr_tier2(self):
        from repro.vm.threaded import (
            reset_tier2_build_stats, tier2_build_stats,
            warm_bytecode_module,
        )

        bytecode, _ = emit_module(lower_checked(self.LONG_LOOP))
        reset_tier2_build_stats()
        warm_bytecode_module(bytecode)
        warmed = tier2_build_stats()
        assert warmed["warm"] >= 1, \
            "an OSR candidate must be translated by the warm hook"
        vm = VM(bytecode, engine=FAST, osr=True, osr_threshold=8)
        want = VM(bytecode, engine=REFERENCE).call("f", [1_000])
        assert vm.call("f", [1_000]) == want
        assert vm.tiering_stats() == {
            "tier2_promotions": 1, "osr_entries": 0,
            "deopt_reentries": 0}, \
            "a prebuilt translation is entered at pc 0"
        assert tier2_build_stats()["request"] == warmed["request"], \
            "a warmed module must never build tier-2 in-request"

    def test_warm_module_prebuilds_osr_tier2(self):
        from repro.targets import warm_module
        from repro.targets.dispatch import (
            reset_tier2_build_stats, tier2_build_stats,
        )

        artifact = offline_compile(self.LONG_LOOP)
        compiled = deploy(artifact, X86, "split")
        reset_tier2_build_stats()
        warm_module(compiled)
        warmed = tier2_build_stats()
        assert warmed["warm"] >= 1
        sim = Simulator(compiled, Memory(), engine=FAST,
                        osr=True, osr_threshold=8)
        want = Simulator(compiled, Memory(),
                         engine=REFERENCE).run("f", [1_000])
        got = sim.run("f", [1_000])
        assert got.value == want.value
        assert sim.tiering_stats() == {
            "tier2_promotions": 1, "osr_entries": 0,
            "deopt_reentries": 0}
        assert tier2_build_stats()["request"] == warmed["request"]
