"""The tier scaffold shared by both predecode engines
(:mod:`repro.tiers`): loop fusion, the counter-vector debit protocol,
one-instruction stepping (the bail-out fallback and the metered
replay), trap rollback through the tier-2 line table, the pinned
digest of every generated source, and the thread-safe lazy tier-2
build."""

from __future__ import annotations

import random
import re
import threading
from types import SimpleNamespace

import pytest

from repro import tiers
from repro.bytecode import emit_module
from repro.bytecode.module import BytecodeFunction, BytecodeModule
from repro.bytecode.opcodes import BCInstr, type_of
from repro.core import deploy, offline_compile, select_bytecode
from repro.engine import (
    CodegenEnv, FAST, REFERENCE, TIER2, backedge_targets, fuel_blocks,
)
from repro.ir.values import VecType
from repro.lang import types as ty
from repro.semantics import Memory, TrapError
from repro.targets import SPARC, Simulator, X86, dispatch, simulator
from repro.targets.isa import CompiledFunction, CompiledModule, MInst
from repro.vm import VM, interpreter, threaded
from repro.workloads import ALL_KERNELS
from tests.support import (
    DIGEST_FLOWS, generated_sources, lower_checked, sources_digest,
)
from tests.test_engine_differential import (
    ENGINES, assert_engines_agree as assert_agree,
)


def machine_module(code, params=0):
    func = CompiledFunction(
        name="f", target_name="x86", code=code, frame_bytes=0,
        param_locs=[("int", k) for k in range(params)], ret_void=False)
    module = CompiledModule("x86")
    module.add(func)
    return module


def sim_outcome(module, args, engine, memory=None, entry="f", **kwargs):
    sim = Simulator(module, memory or Memory(), engine=engine, **kwargs)
    try:
        result = sim.run(entry, list(args))
        return ("ok", result.value, result.instructions, result.cycles,
                result.branches, sim._executed)
    except TrapError as exc:
        return ("trap", str(exc), sim._executed)
    except Exception as exc:    # malformed code: the ladder's own error
        return (type(exc).__name__, str(exc), sim._executed)


def vm_outcome(module, args, engine, entry="f", **kwargs):
    vm = VM(module, engine=engine, **kwargs)
    try:
        return ("ok", vm.call(entry, list(args)),
                vm.instructions_executed)
    except TrapError as exc:
        return ("trap", str(exc), vm.instructions_executed)
    except Exception as exc:    # malformed code: the ladder's own error
        return (type(exc).__name__, str(exc), vm.instructions_executed)


@pytest.fixture
def sources(monkeypatch):
    """Every generated source the scaffold compiles, by filename."""
    captured = {}

    def spy(source, filename, mode):
        captured[filename] = source
        return compile(source, filename, mode)

    monkeypatch.setattr(tiers, "compile", spy, raising=False)
    return captured


# ---------------------------------------------------------------------------
# loop detection
# ---------------------------------------------------------------------------

def instrs(*pairs):
    return [SimpleNamespace(op=op, arg=arg) for op, arg in pairs]


class TestLoopDetection:
    def detect(self, code, bodies):
        blocks = fuel_blocks(code)
        assert set(blocks) == set(bodies)
        loops = tiers.fused_loops(code, blocks, bodies)
        return loops, tiers.osr_entry_points(
            code, blocks, bodies, {entry[0] for entry in loops.values()})

    def test_header_and_lone_latch_fuse(self):
        code = instrs(("brif", 3), ("nop", None), ("br", 0),
                      ("ret", None))
        loops, entries = self.detect(code, {
            0: ["pc = 3 if c else 1"], 1: ["x = 1", "pc = 0"],
            3: ["return -1"]})
        assert loops == {0: (1, "c", 3, 1)}
        assert entries == {0}

    def test_header_with_two_latches_keeps_the_ladder(self):
        code = instrs(("brif", 3), ("nop", None), ("br", 0),
                      ("nop", None), ("br", 0))
        loops, entries = self.detect(code, {
            0: ["pc = 3 if c else 1"], 1: ["x = 1", "pc = 0"],
            3: ["x = 2", "pc = 0"]})
        assert loops == {}
        assert entries == {0}

    def test_latch_shaped_like_a_header_is_not_fused(self):
        """Only a latch ending in an unconditional ``br header`` fuses:
        a back edge taken by a ``brif`` (a do-while latch — itself
        shaped like a header) keeps the ladder form."""
        code = instrs(("brif", 4), ("nop", None), ("brif", 0),
                      ("ret", None), ("ret", None))
        loops, entries = self.detect(code, {
            0: ["pc = 4 if c else 1"],
            1: ["x = 1", "pc = 0 if d else 3"],
            3: ["return -1"], 4: ["return -1"]})
        assert loops == {}
        assert entries == {0}

    def test_single_block_self_loop_is_not_fused(self):
        code = instrs(("nop", None), ("br", 0))
        loops, entries = self.detect(code, {0: ["x = 1", "pc = 0"]})
        assert loops == {}
        assert entries == {0}

    def test_untranslated_block_is_neither_fused_nor_an_entry(self):
        code = instrs(("brif", 3), ("nop", None), ("br", 0),
                      ("ret", None))
        loops, entries = self.detect(code, {
            0: None, 1: ["x = 1", "pc = 0"], 3: ["return -1"]})
        assert loops == {} and entries == frozenset()

    def test_fused_latch_is_never_an_osr_entry(self):
        """A later backward branch makes the latch itself a back-edge
        target; fused into its header's arm it has no dispatch arm, so
        it must not be whitelisted for mid-call entry."""
        code = instrs(("brif", 3), ("nop", None), ("br", 0),
                      ("br", 1))
        blocks = fuel_blocks(code)
        assert backedge_targets(code, blocks) == {0, 1}
        loops, entries = self.detect(code, {
            0: ["pc = 3 if c else 1"], 1: ["x = 1", "pc = 0"],
            3: ["pc = 1"]})
        assert loops == {0: (1, "c", 3, 1)}
        assert entries == {0}


# ---------------------------------------------------------------------------
# the debit protocol over a counter vector
# ---------------------------------------------------------------------------

FIELDS = ("instructions", "cycles", "branches", "calls")


def counting_loop(header: dict, latch: dict, merged: bool):
    """``_t2`` for ``while i < n: i += 1`` with the given counter
    vectors, in the merged-charge or the plain per-block form."""
    blocks = {0: header.pop("executed"), 5: latch.pop("executed")}
    env = {}
    out = tiers.Tier2Writer(
        CodegenEnv(env), "vm.executed", blocks, {0: header, 5: latch},
        FIELDS, live=False, writeback=["lo[0] = i"])
    out.w("def _t2(vm, res, lo, fuel, n, pc=0):")
    out.w("i = lo[0]", 4)
    out.load_carried(4)
    out.w("while 1:", 4)
    out.w("if pc == 0:", 8)
    # a second header line forces the plain form
    hbody = ["pc = 9 if i >= n else 5"]
    out.loop(0, 5, "i >= n", 9, 12, hbody if merged else ["pass"] + hbody,
             [], ["i += 1", "pc = 0"], [])
    out.w("else:", 8)
    out.deopt("pc", 12)
    source = "\n".join(out.out)
    assert ("elif i >= n:" in source) == merged
    exec(source, env)
    return env["_t2"]


def run_loop(t2, fuel: int, n: int):
    vm = SimpleNamespace(executed=3)
    res = SimpleNamespace(**{field: 10 + k for k, field
                             in enumerate(FIELDS)})
    lo = [0]
    pc = t2(vm, res, lo, fuel, n)
    return pc, lo, vm.__dict__, res.__dict__


@pytest.mark.parametrize("seed", range(12))
def test_merged_charge_equals_per_block_debits(seed):
    """Every fuel value from 0 to past the total: the merged charge
    leaves the same counters, exit pc and deopt pc as the per-block
    form it stands for."""
    rng = random.Random(seed)

    def vector():
        charge = {"executed": rng.randint(1, 4),
                  "instructions": rng.randint(1, 4),
                  "cycles": rng.randint(0, 9)}
        for field in ("branches", "calls"):
            if rng.random() < 0.5:          # absent when zero
                charge[field] = rng.randint(1, 3)
        return charge

    header, latch = vector(), vector()
    n = rng.randint(0, 4)
    total = (header["executed"] + latch["executed"]) * n \
        + header["executed"]
    merged = counting_loop(dict(header), dict(latch), merged=True)
    plain = counting_loop(dict(header), dict(latch), merged=False)
    exits = set()
    for fuel in range(3, 3 + total + 2):
        want = run_loop(plain, fuel, n)
        assert run_loop(merged, fuel, n) == want, (fuel, header, latch)
        exits.add(want[0])
    assert 9 in exits and 0 in exits
    if n:
        assert 5 in exits


# ---------------------------------------------------------------------------
# one-instruction stepping: the bail-out fallback and the metered replay
# ---------------------------------------------------------------------------

V4 = VecType(ty.I32, 4)


class TestFallbackWrapper:
    """A block whose lowering raises (here: a malformed instruction)
    steps through one-instruction handlers under the same block-entry
    debit, rolled back to the trapping instruction."""

    STEPS = 4

    #: (well-formed set-up, the malformed instruction, outcome kind,
    #: message, does its block fall back to stepping?) — one per arm
    #: of the VM lowering that raises on malformed code
    VM_MALFORMED = [
        ([], BCInstr("bogus"), "trap", "unknown opcode 'bogus'", True),
        ([BCInstr("const", "i32", 3), BCInstr("vec.splat", "i32")],
         BCInstr("vec.reduce", "i32", ("mul", "i32")),
         "trap", "reduce op 'mul' undefined", True),
        ([BCInstr("const", "i32", 1), BCInstr("const", "i32", 2)],
         BCInstr("add", "q7"), "KeyError", "'q7'", True),
        ([], BCInstr("frame", None, 5),
         "IndexError", "list index out of range", True),
    ]

    #: the simulator's: a malformed *operand* traps inline, where the
    #: reference reads it, so its block still compiles
    SIM_MALFORMED = [
        ([], MInst("bogus"), "trap", "bad machine opcode 'bogus'", True),
        ([MInst("vsplat", V4, ("vec", 0), [("imm", 3)], None)],
         MInst("vreduce", V4, ("int", 9), [("vec", 0)],
               ("mul", ty.I32)),
         "trap", "reduce op 'mul' undefined", True),
        ([], MInst("mov", None, ("int", 9), [("slot", 0)], None),
         "trap", "raw slot operand outside spill op", False),
        ([], MInst("mov", None, ("int", 9), [("odd", 3)], None),
         "trap", "f: read of uninitialized register odd3", False),
        ([], MInst("bin", ty.I32, ("int", 9), [("imm", 1), ("imm", 2)],
               "frob"),
         "trap", "integer op 'frob' undefined", False),
    ]

    def sweep(self, outcome, module, handler, position, malformed):
        """Run to the malformed instruction, then under every fuel
        value up to the block's length: three-way, and the message and
        executed count are the reference's."""
        setup, bad, kind, message, steps = malformed
        context = f"{bad!r} at {position}"
        outcomes = {engine: outcome(module, engine) for engine in ENGINES}
        assert_agree(outcomes, context)
        assert outcomes[FAST][:2] == (kind, message), context
        assert ("_step" in handler().__code__.co_names) == steps
        for fuel in range(outcomes[REFERENCE][2] + 2):
            assert_agree({engine: outcome(module, engine, fuel=fuel)
                          for engine in ENGINES},
                         f"{context} fuel={fuel}")

    @pytest.mark.parametrize("position", range(2 * STEPS + 1))
    def test_vm_unknown_opcode_at_every_position(self, position):
        for malformed in self.VM_MALFORMED:
            code = []
            for step in range(self.STEPS):
                code += [BCInstr("const", "i32", step), BCInstr("pop")]
            code[position:position] = malformed[0] + [malformed[1]]
            code += [BCInstr("const", "i32", 7), BCInstr("ret")]
            module = BytecodeModule()
            func = module.add(BytecodeFunction("f", [], "i32", code=code))
            # the verifier would reject it; machine code has none
            self.sweep(
                lambda module, engine, **kwargs: vm_outcome(
                    module, [], engine, verify=False, **kwargs),
                module,
                lambda: threaded.predecode(func, module).handlers[0],
                position, malformed)

    @pytest.mark.parametrize("position", range(STEPS + 1))
    def test_sim_bad_opcode_at_every_position(self, position):
        for malformed in self.SIM_MALFORMED:
            code = [MInst("mov", None, ("int", step), [("imm", step)],
                          None, cost=step + 1)
                    for step in range(self.STEPS)]
            code[position:position] = malformed[0] + [malformed[1]]
            code.append(MInst("ret", None, None, [("imm", 0)], None))
            module = machine_module(code)
            self.sweep(
                lambda module, engine, **kwargs: sim_outcome(
                    module, [], engine, **kwargs),
                module,
                lambda: dispatch.predecode_machine(
                    module["f"], module).handlers[0],
                position, malformed)

    def test_sim_malformed_operand_is_read_lazily(self):
        """Like the reference, only an operand that is *read* traps:
        the untaken arm of a ``select`` may be malformed, and an
        earlier operand's own trap wins."""
        untaken = machine_module([
            MInst("select", None, ("int", 0),
                  [("imm", 1), ("imm", 42), ("slot", 0)], None),
            MInst("ret", None, None, [("int", 0)], None)])
        outcomes = {engine: sim_outcome(untaken, [], engine)
                    for engine in ENGINES}
        assert_agree(outcomes)
        assert outcomes[FAST][:2] == ("ok", 42)
        earlier = machine_module([
            MInst("bin", ty.I32, ("int", 0), [("int", 7), ("odd", 3)],
                  "add"),
            MInst("ret", None, None, [("int", 0)], None)])
        outcomes = {engine: sim_outcome(earlier, [], engine)
                    for engine in ENGINES}
        assert_agree(outcomes)
        assert outcomes[FAST][:2] == \
            ("trap", "f: read of uninitialized register int7")

    @pytest.mark.parametrize("engine_module", [threaded, dispatch])
    def test_fallback_runs_clean_blocks_to_completion(
            self, monkeypatch, engine_module):
        """A block-level bail with the instruction-level lowering
        intact: with *every* multi-instruction block-tier lowering
        failing, whole programs (loops, fuel exhaustion mid-block)
        still match the reference, one step at a time."""
        real = engine_module._gen_block_lines

        def failing(low, leader, length, tier):
            if not tier.tier2 and length > 1:
                raise RuntimeError("forced untranslatable (test)")
            return real(low, leader, length, tier)

        monkeypatch.setattr(engine_module, "_gen_block_lines", failing)
        source = """
            int f(int n, int d) {
                int s = 0;
                for (int i = 0; i < n; i++) s += (i * 3) / d;
                return s;
            }"""
        for args, fuel in (([9, 2], None), ([9, 0], None), ([9, 2], 40)):
            kwargs = {} if fuel is None else {"fuel": fuel}
            if engine_module is threaded:
                bytecode, _ = emit_module(lower_checked(source))
                outcomes = {engine: vm_outcome(bytecode, args, engine,
                                               **kwargs)
                            for engine in (FAST, REFERENCE)}
            else:
                compiled = deploy(offline_compile(source), X86, "split")
                outcomes = {engine: sim_outcome(compiled, args, engine,
                                                **kwargs)
                            for engine in (FAST, REFERENCE)}
            assert_agree(outcomes, f"args={args} fuel={fuel}")


TERMINATORS = {"br", "brif", "ret", "call"}

RECURSIVE = "int f(int n) { if (n < 2) return n;" \
            " return f(n - 1) + f(n - 2); }"


def stepping_images():
    """``(context, predecode, module, observe)`` per image: the VM and
    one SIMD and one scalar target, over every kernel under both
    digest flows, sized for one vector iteration plus one remainder
    iteration — and one recursive program, for ``call``."""
    def images(name, source, entry, prepare):
        artifact = offline_compile(source, name)

        def observer(outcome, module):
            def observe(engine, fuel=None):
                memory = Memory(1 << 21)
                kwargs = {} if fuel is None else {"fuel": fuel}
                return outcome(module, prepare(memory), engine,
                               memory=memory, entry=entry, **kwargs)
            return observe

        for flow in DIGEST_FLOWS:
            bytecode = select_bytecode(artifact, flow)
            yield f"{name} VM {flow}", threaded.predecode, bytecode, \
                observer(vm_outcome, bytecode)
            for target in (X86, SPARC):
                compiled = deploy(artifact, target, flow)
                yield f"{name} {target.name} {flow}", \
                    dispatch.predecode_machine, compiled, \
                    observer(sim_outcome, compiled)

    for name, kernel in sorted(ALL_KERNELS.items()):
        n = 16 // ty.sizeof(type_of(kernel.elem)) + 1
        yield from images(
            name, kernel.source, kernel.entry,
            lambda memory, _k=kernel, _n=n: _k.prepare(memory, _n).args)
    yield from images("recursive", RECURSIVE, "f", lambda memory: [6])


def opcodes(predecode, module):
    """``(contained, stepped)`` opcode sets of an image."""
    contained, stepped = set(), set()
    for func in module.functions.values():
        contained |= {instr.op for instr in func.code}
        stepped |= {func.code[pc].op
                    for pc in predecode(func, module).steps}
    return contained, stepped


class TestStepping:
    def test_metered_replay_steps_every_opcode(self, monkeypatch):
        """The fuel trap lands on every instruction offset of every
        block the kernels execute, three-way; every opcode an image
        contains has then been stepped as a one-instruction block —
        bar the terminators, which the replay never reaches."""
        trips = []

        def spy(pre, leader, machine, *frame):
            trips.append((pre, leader, getattr(
                machine, pre.steps.low.executed)))
            tiers.replay_metered(pre, leader, machine, *frame)

        monkeypatch.setattr(interpreter, "replay_metered", spy)
        monkeypatch.setattr(simulator, "replay_metered", spy)
        for context, predecode, module, observe in stepping_images():
            # Walk the run block by block: the trip that ends a run
            # names the block the fuel ran out in and its entry count,
            # hence a fuel value for each of its offsets.
            landed, fuel, total = {}, 0, observe(REFERENCE)[-1]
            while fuel < total:
                trips.clear()
                assert observe(FAST, fuel)[0] == "trap"
                (pre, leader, entry), = trips
                length = pre.steps.low.blocks[leader]
                for offset in range(length):
                    landed.setdefault((pre, leader, offset),
                                      entry + offset)
                fuel = entry + length
            for fuel in sorted(set(landed.values())):
                assert_agree({engine: observe(engine, fuel)
                              for engine in ENGINES},
                             f"{context} fuel={fuel}")
            contained, stepped = opcodes(predecode, module)
            assert stepped == contained - TERMINATORS, context

    def test_block_bail_steps_every_opcode(self, monkeypatch):
        """Terminators included: with every multi-instruction block
        bailing, whole runs go one step at a time (a one-instruction
        block still compiles as a block — it is the same lowering)."""
        for engine_module in (threaded, dispatch):
            real = engine_module._gen_block_lines

            def failing(low, leader, length, tier, _real=real):
                if not tier.tier2 and length > 1:
                    raise RuntimeError("forced untranslatable (test)")
                return _real(low, leader, length, tier)

            monkeypatch.setattr(engine_module, "_gen_block_lines",
                                failing)
        every, seen = set(), set()
        for context, predecode, module, observe in stepping_images():
            assert_agree({engine: observe(engine)
                          for engine in (FAST, REFERENCE)}, context)
            contained, stepped = opcodes(predecode, module)
            every |= contained
            seen |= stepped
        assert seen == every >= TERMINATORS

    @pytest.mark.parametrize("engine_module", [threaded, dispatch])
    def test_metered_replay_never_returns(self, engine_module):
        """It runs after a :class:`MeterTrip` and ends in the fuel
        trap; asked to replay a block the fuel covers, it refuses
        rather than hand back a ``pc``."""
        if engine_module is threaded:
            module, _ = emit_module(lower_checked(LOOP))
            pre = threaded.predecode(module.functions["f"], module)
            machine = VM(module, fuel=1)
            frame = ([], [0] * 8, [3], 0, machine.memory, machine)
        else:
            module = deploy(offline_compile(LOOP), X86, "split")
            pre = dispatch.predecode_machine(module["f"], module)
            machine = Simulator(module, Memory(), fuel=1)
            frame = ([3] * 16, [], [], {}, 0, machine.memory, machine,
                     SimpleNamespace())
        assert pre.steps.low.blocks[0] > 1
        with pytest.raises(TrapError, match="fuel exhausted"):
            tiers.replay_metered(pre, 0, machine, *frame)
        assert getattr(machine, pre.steps.low.executed) == 2
        assert set(pre.steps) == {0}
        machine.fuel = 1 << 20
        with pytest.raises(RuntimeError, match="which the fuel covers"):
            tiers.replay_metered(pre, 0, machine, *frame)


#: ``tests.support.sources_digest`` of ``generated_sources()``: the
#: sha256, the per-tag ``(sources, lines)`` and the per-source prints
PINNED_SOURCES = (
    "963c14649d4c5f9e570dafdd289f799856587067effe54d1d6fa781e29c72ba1",
    {"pvi": (22, 4297), "pvi-sim": (132, 39319),
     "pvi-sim-t2": (132, 24990), "pvi-t2": (22, 2643)},
    ("3dbb1f65bf8d945b47d4b6f670280d261b13dd52aaa9972ec8f89d9c"
     "757364ada7f80eca079aa7570a645767f1064a1b39b18b8a83b6de8a"
     "9e00eb56bb94d7a5a7d54aa49b9cd552a917d15557bec61d36776108"
     "02cd4c634ece414d426a54aad77f6cdecf0ae7b074eddbaf6e65dc04"
     "a96b9d9e31ed70571ee0d820e907927e29e789069b8a183f8f635b92"
     "d2e89fa187e6a0a4e577f94195a0fd8241ca50c1a8a67b8bdc852fb7"
     "53162d2ac81fc7618337c825b0b82789332101d871dbd1b9fb919371"
     "e4b45e70ef2121c0a736859587db80de7815734ff4a4c612d36cf1a9"
     "c73ee2f7c94a3f52ecef53baabe4fa0f1a72b12d30de40dd260fac75"
     "6cf3dd6531b096fe55ff7c614a3121b43c11d9e878f2056c9a108c80"
     "f6b3e53f93c38ce93e4d90fcb480dea12042c801b6db8b55241755c2"))


def test_generated_sources_digest():
    """Every block-tier and tier-2 source both engines generate over
    kernels x flows x targets, byte for byte.  A PR that means to move
    generated code re-pins the three values and says so; CI also runs
    this under two fixed ``PYTHONHASHSEED`` values, so a source that
    depends on set order fails here and not in a later byte-compare."""
    sources = generated_sources()
    got = sources_digest(sources)
    if got != PINNED_SOURCES:
        prints, pinned = got[2], PINNED_SOURCES[2]
        moved = next((key for index, key in enumerate(sorted(sources))
                      if prints[2 * index:2 * index + 2]
                      != pinned[2 * index:2 * index + 2]), None)
        pytest.fail(f"generated sources moved, first at {moved}:\n"
                    f"sha256 {got[0]}\ntags {got[1]}\n"
                    f"prints {prints}")


# ---------------------------------------------------------------------------
# simulator tier-2: trap rollback through the source-line table
# ---------------------------------------------------------------------------

class TestSimTier2Rollback:
    #: one block; which instruction traps depends on the arguments
    CODE = [
        MInst("load", ty.I32, ("int", 4), [("int", 0)], None, cost=3),
        # pure, after an impure instruction
        MInst("bin", ty.I32, ("int", 5), [("int", 4), ("imm", 1)], "add",
              cost=1),
        MInst("load", ty.I32, ("int", 6), [("int", 1)], None, cost=3),
        MInst("bin", ty.I32, ("int", 5), [("int", 5), ("int", 6)], "add",
              cost=1),
        # the taken arm reads a never-written register
        MInst("select", None, ("int", 7),
              [("int", 2), ("int", 9), ("int", 5)], None, cost=2),
        MInst("bin", ty.I32, ("int", 8), [("int", 7), ("int", 3)], "div",
              cost=7),
        MInst("ret", None, None, [("int", 8)], None, cost=2),
    ]

    def outcomes(self, args):
        module = machine_module(self.CODE, params=4)
        observed = {}
        for engine in ENGINES:
            memory = Memory()
            good = memory.alloc_array(ty.I32, [20, 21])
            concrete = [good + 4 * a if a is not None else 1
                        for a in args[:2]] + list(args[2:])
            observed[engine] = sim_outcome(module, concrete, engine,
                                           memory)
        assert_agree(observed, repr(args))
        return observed[TIER2]

    def test_trap_at_each_impure_position(self, sources):
        assert self.outcomes([0, 1, 0, 3])[:2] == ("ok", 14)
        # (trapping instruction offset, arguments)
        cases = [
            (0, [None, 1, 0, 3], "memory access out of bounds"),
            (2, [0, None, 0, 3], "memory access out of bounds"),
            (4, [0, 1, 1, 3], "f: read of uninitialized register int9"),
            (5, [0, 1, 0, 0], "integer division by zero"),
        ]
        for offset, args, message in cases:
            kind, text, executed = self.outcomes(args)
            assert kind == "trap" and message in text
            assert executed == offset + 1
        source = sources["<pvi-sim-t2:f>"]
        assert not re.search(r"^\s*_i = \d+$", source, re.M), \
            "tier-2 rolls back through the line table, not _i stores"
        assert "__traceback__.tb_lineno" in source


# ---------------------------------------------------------------------------
# empty-header loops: the merged charge end to end
# ---------------------------------------------------------------------------

class TestEmptyHeaderLoop:
    def test_vm_fuel_sweep(self, sources):
        source = """
            int f(int n) {
                int s = 0;
                while (n) { s += 2; n -= 1; }
                return s;
            }"""
        bytecode, _ = emit_module(lower_checked(source))
        total = VM(bytecode, engine=REFERENCE)
        assert total.call("f", [6]) == 12
        for fuel in range(total.instructions_executed + 2):
            assert_agree({engine: vm_outcome(bytecode, [6], engine,
                                             fuel=fuel)
                          for engine in ENGINES}, f"fuel={fuel}")
        assert re.search(r"^ +elif .*:\n +executed -= \d+$",
                         sources["<pvi-t2:f>"], re.M)

    #: ``while (flag)``: the header is a lone ``brif`` on a parameter
    SIM_CODE = [
        MInst("mov", None, ("int", 1), [("imm", 0)], None, cost=1),
        MInst("brif", None, None, [("int", 0)], 3, cost=2),
        MInst("ret", None, None, [("int", 1)], None, cost=2),
        MInst("bin", ty.I32, ("int", 1), [("int", 1), ("imm", 2)], "add",
              cost=1),
        MInst("spill.st", None, None, [("int", 1)], 0, cost=4),
        MInst("bin", ty.I32, ("int", 0), [("int", 0), ("imm", 1)], "sub",
              cost=1),
        MInst("br", None, None, [], 1, cost=3),
    ]

    def test_sim_fuel_sweep(self, sources):
        module = machine_module(self.SIM_CODE, params=1)
        want = sim_outcome(module, [6], REFERENCE)
        assert want[:2] == ("ok", 12)
        for fuel in range(want[2] + 2):
            outcomes = {engine: sim_outcome(module, [6], engine,
                                            fuel=fuel)
                        for engine in ENGINES}
            # ... and entered mid-loop by on-stack replacement
            outcomes["osr"] = sim_outcome(module, [6], FAST, fuel=fuel,
                                          osr=True, osr_threshold=2)
            assert_agree(outcomes, f"fuel={fuel}")
        source = sources["<pvi-sim-t2:f>"]
        assert re.search(r"^ +elif .*:\n +executed -= \d+$", source,
                         re.M), "the lone-brif header merges its charge"
        assert "_r_spill_stores += 1" in source


# ---------------------------------------------------------------------------
# one Predecoded base: identity and the thread-safe lazy build
# ---------------------------------------------------------------------------

def test_engines_share_one_predecoded_protocol():
    assert threaded.PredecodedFunction.tier2 is \
        dispatch.PredecodedMachine.tier2
    assert threaded._TIER2_UNBUILT is dispatch._TIER2_UNBUILT
    assert threaded.MeterTrip is dispatch.MeterTrip


LOOP = "int f(int n) { int s = 0;" \
       " for (int i = 0; i < n; i++) s += i; return s; }"


@pytest.mark.parametrize("engine_module", [threaded, dispatch])
def test_concurrent_tier2_builds_once(monkeypatch, engine_module):
    """Two threads share one predecode (images from the deploy memo
    are shared objects): exactly one builds, both get its ``_t2``."""
    if engine_module is threaded:
        module, _ = emit_module(lower_checked(LOOP))
        pre = threaded.predecode(module.functions["f"], module)
        lowering = threaded._BytecodeLowering
    else:
        module = deploy(offline_compile(LOOP), X86, "split")
        pre = dispatch.predecode_machine(module["f"], module)
        lowering = dispatch._MachineLowering
    assert pre._tier2 is tiers._TIER2_UNBUILT
    building, release = threading.Event(), threading.Event()
    real = lowering.tier2_source

    def held(self, facts):
        building.set()
        assert release.wait(10)
        return real(self, facts)

    monkeypatch.setattr(lowering, "tier2_source", held)
    engine_module.reset_tier2_build_stats()
    got = []
    workers = [threading.Thread(target=lambda: got.append(pre.tier2()))
               for _ in range(2)]
    workers[0].start()
    assert building.wait(10)        # the first build is in flight
    workers[1].start()
    workers[1].join(0.2)            # the second must wait for it
    assert workers[1].is_alive() and not got
    release.set()
    for worker in workers:
        worker.join(10)
        assert not worker.is_alive()
    assert engine_module.tier2_build_stats()["request"] == 1
    assert len(got) == 2 and got[0] is got[1] is pre._tier2
    assert callable(got[0])
