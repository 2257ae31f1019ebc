"""The tier scaffold shared by both predecode engines
(:mod:`repro.tiers`): loop fusion, the counter-vector debit protocol,
one-instruction stepping (the bail-out fallback and the metered
replay), trap rollback through the source-line table (both tiers),
the pinned digest of every generated source, the payback-gated
promotion policy, and the thread-safe lazy tier-2 build."""

from __future__ import annotations

import bisect
import functools
import gc
import random
import re
import sys
import threading
import traceback
import weakref
from types import SimpleNamespace

import pytest

import repro.tiering
from repro import tiers
from repro.tiers import Exit
from repro.tiering import (
    TIER2_PAYBACK, Predecoded, TieredMachine, _TIER2_UNBUILT, replay_metered,
)
from repro.bytecode import emit_module
from repro.bytecode.module import BytecodeFunction, BytecodeModule
from repro.bytecode.opcodes import BCInstr, type_of
from repro.core import deploy, offline_compile, select_bytecode
from repro.engine import (
    CodegenEnv, FAST, OSR_THRESHOLD_ENV, REFERENCE, TIER2,
    backedge_targets, fuel_blocks,
)
from repro.ir.values import VecType
from repro.lang import types as ty
from repro.semantics import Memory, TrapError
from repro.targets import SPARC, Simulator, X86, dispatch
from repro.targets.isa import CompiledFunction, CompiledModule, MInst
from repro.vm import VM, threaded
from repro.workloads import ALL_KERNELS
from tests.support import (
    DIGEST_FLOWS, first_moved, generated_sources, lower_checked,
    sources_digest,
)
from tests.test_engine_differential import (
    ENGINES, assert_engines_agree as assert_agree,
)


def machine_module(code, params=0, param_locs=None):
    func = CompiledFunction(
        name="f", target_name="x86", code=code, frame_bytes=0,
        param_locs=param_locs or [("int", k) for k in range(params)],
        ret_void=False)
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
    def detect(self, code, exits):
        """``exits``: each block's :class:`tiers.Exit` (``None``: it
        returns), or ``False`` for a block that was not translated."""
        blocks = fuel_blocks(code)
        assert set(blocks) == set(exits)
        translated = {leader: exit_ for leader, exit_ in exits.items()
                      if exit_ is not False}
        loops = tiers.fused_loops(code, blocks, translated)
        return loops, tiers.osr_entry_points(
            code, blocks, {leader: exit_ is not False
                           for leader, exit_ in exits.items()})

    def test_header_and_lone_latch_fuse(self):
        code = instrs(("brif", 3), ("nop", None), ("br", 0),
                      ("ret", None))
        loops, entries = self.detect(code, {
            0: Exit(3, "c", 1), 1: Exit(0), 3: None})
        assert loops == {0: (1, "c", 3)}
        assert entries == {0}

    def test_header_with_two_latches_keeps_the_ladder(self):
        code = instrs(("brif", 3), ("nop", None), ("br", 0),
                      ("nop", None), ("br", 0))
        loops, entries = self.detect(code, {
            0: Exit(3, "c", 1), 1: Exit(0), 3: Exit(0)})
        assert loops == {}
        assert entries == {0}

    def test_latch_shaped_like_a_header_is_not_fused(self):
        """Only a latch ending in an unconditional ``br header`` fuses:
        a back edge taken by a ``brif`` (a do-while latch — itself
        shaped like a header) keeps the ladder form."""
        code = instrs(("brif", 4), ("nop", None), ("brif", 0),
                      ("ret", None), ("ret", None))
        loops, entries = self.detect(code, {
            0: Exit(4, "c", 1), 1: Exit(0, "d", 3), 3: None, 4: None})
        assert loops == {}
        assert entries == {0}

    def test_single_block_self_loop_is_not_fused(self):
        code = instrs(("nop", None), ("br", 0))
        loops, entries = self.detect(code, {0: Exit(0)})
        assert loops == {}
        assert entries == {0}

    def test_untranslated_block_is_neither_fused_nor_an_entry(self):
        code = instrs(("brif", 3), ("nop", None), ("br", 0),
                      ("ret", None))
        loops, entries = self.detect(code, {
            0: False, 1: Exit(0), 3: None})
        assert loops == {} and entries == frozenset()

    def test_rotated_loop_fuses_and_keeps_its_entry(self):
        """Body first, test block last: the body's forward ``br``
        closes the loop and the test's ``brif`` is the back edge, so
        the *latch* is the OSR entry the loop has in the ladder form."""
        code = instrs(("br", 3), ("nop", None), ("br", 3),
                      ("brif", 1), ("ret", None))
        loops, entries = self.detect(code, {
            0: Exit(3), 1: Exit(3), 3: Exit(1, "c", 4), 4: None})
        assert loops == {3: (1, "not (c)", 4)}
        assert entries == {1}

    def test_rotated_header_with_two_latches_keeps_the_ladder(self):
        """The test block branches back to a body above it or falls
        into one below it, and both close the loop."""
        code = instrs(("nop", None), ("br", 2), ("brif", 0),
                      ("nop", None), ("br", 2))
        loops, entries = self.detect(code, {
            0: Exit(2), 2: Exit(0, "c", 3), 3: Exit(2)})
        assert loops == {}
        assert entries == {0, 2}

    def test_fused_latch_is_an_osr_entry_only_with_an_arm(self, sources):
        """Whitelisted for mid-call entry means "has a dispatch arm".
        A latch is fused into its header's arm and loses its own —
        unless a backward branch makes it a back-edge target (a later
        one here; the test's ``brif`` in a rotated loop), and then it
        keeps both: the arm and the entry."""
        code = instrs(("brif", 3), ("nop", None), ("br", 0),
                      ("br", 1))
        blocks = fuel_blocks(code)
        assert backedge_targets(code, blocks) == {0, 1}
        loops, entries = self.detect(code, {
            0: Exit(3, "c", 1), 1: Exit(0), 3: Exit(1)})
        assert loops == {0: (1, "c", 3)}
        assert entries == {0, 1}
        # ... over real translations, both layouts: every entry has an
        # arm, and a latch has one only if it is an entry
        standard = machine_module(TestEmptyHeaderLoop.SIM_CODE, params=1)
        rotated = machine_module(ROTATED_SIM_CODE, params=1)
        for module, latch, is_entry in ((standard, 3, False),
                                        (rotated, 2, True)):
            func = module.functions["f"]
            t2 = dispatch.predecode_machine(func, module).tier2()
            source = sources["<pvi-sim-t2:f>"]
            arms = {int(pc) for pc
                    in re.findall(r"^ +(?:el)?if pc == (\d+):", source,
                                  re.M)}
            assert t2.osr_entries <= arms
            assert (latch in t2.osr_entries) == (latch in arms) \
                == is_entry


# ---------------------------------------------------------------------------
# the debit protocol over a counter vector
# ---------------------------------------------------------------------------

FIELDS = ("instructions", "cycles", "branches", "spill_loads", "calls")


def counting_loop(header: dict, latch: dict, fused: bool, hlines=(),
                  hmarks=()):
    """``_t2`` for ``while i < n: i += 1`` with the given counter
    vectors: as the fused loop, or as the two ladder arms it stands
    for (the per-block form, the oracle)."""
    blocks = {0: header.pop("executed"), 5: latch.pop("executed")}
    env = {}
    out = tiers.Tier2Writer(
        CodegenEnv(env), "vm.executed", blocks, {0: header, 5: latch},
        FIELDS, live=False, writeback=["lo[0] = i; lo[1] = j"])
    out.w("def _t2(vm, res, lo, fuel, n, pc=0):")
    out.w("i, j = lo", 4)
    out.load_carried(4)
    out.w("while 1:", 4)
    out.w("if pc == 0:", 8)
    hbody = [*hlines, "pc = 9 if i >= n else 5"]
    lbody = ["i += 1", "pc = 0"]
    if fused:
        out.loop(0, tiers.Fused(5, "i >= n", 9), 12,
                 SimpleNamespace(body=hbody[:-1], marks=list(hmarks)),
                 SimpleNamespace(body=lbody[:-1], marks=[]))
    else:
        out.block(0, 12, hbody, list(hmarks))
        out.w("elif pc == 5:", 8)
        out.block(5, 12, lbody, [])
    out.w("else:", 8)
    out.deopt("pc", 12)
    source = "\n".join(out.out)
    exec(source, env)
    return env["_t2"], source


def run_loop(t2, fuel: int, n: int):
    vm = SimpleNamespace(executed=3)
    res = SimpleNamespace(**{field: 10 + k for k, field
                             in enumerate(FIELDS)})
    lo = [0, 0]
    pc = t2(vm, res, lo, fuel, n)
    return pc, lo, vm.__dict__, res.__dict__


#: header bodies beyond the lone exit test: ``(pure lines, marks)``;
#: a marked header can raise as far as the writer knows, so its loop
#: keeps the per-block debits (and still settles at the exits)
HEADERS = {"empty": ((), ()),
           "pure lines": (("j = i * 2", "j += 1"), ()),
           "raising": (("j = i * 2",), ((0, 0),))}


@pytest.mark.parametrize("seed", range(12))
def test_merged_charge_equals_per_block_debits(seed):
    """Every fuel value from 0 to past the total, every header shape:
    the fused loop — one merged fuel charge per iteration where the
    header cannot raise, result counters settled at the exits from
    the fuel delta — leaves the same ``executed``, result counters,
    exit pc and deopt pc as the per-block ladder form it stands for,
    with each counter present or absent in either vector."""
    rng = random.Random(seed)
    twin = seed % 3 == 0        # ``instructions`` is the fuel's twin

    def vector():
        charge = {"executed": rng.randint(1, 4),
                  "cycles": rng.randint(0, 9)}
        charge["instructions"] = charge["executed"] if twin \
            else rng.randint(1, 4)
        for field in ("branches", "spill_loads", "calls"):
            if rng.random() < 0.5:          # absent when zero
                charge[field] = rng.randint(1, 3)
        return charge

    header, latch = vector(), vector()
    n = rng.randint(0, 4)
    total = (header["executed"] + latch["executed"]) * n \
        + header["executed"]
    for hlines, hmarks in HEADERS.values():
        fused, source = counting_loop(dict(header), dict(latch), True,
                                      hlines, hmarks)
        plain, _ = counting_loop(dict(header), dict(latch), False,
                                 hlines, hmarks)
        # inside the ``while`` the only counter arithmetic left is
        # the settlement in front of a deopt's ``return``
        loop = source[source.index("while 1:", source.index("pc == 0")):]
        assert not re.search(r"_r_\w+ \+= \d", loop)
        assert ("res.instructions +=" in source) == twin
        assert ("_r_instructions" in source) != twin
        merged = re.search(
            r"^ +executed \+= (\d+)\n +if executed > fuel:\n"
            r" +executed -= (\d+)\n +if executed > fuel:", source, re.M)
        assert (merged is not None) == (not hmarks)
        if merged:
            assert [int(group) for group in merged.groups()] == [
                header["executed"] + latch["executed"],
                latch["executed"]]
        exits = set()
        for fuel in range(3, 3 + total + 2):
            want = run_loop(plain, fuel, n)
            assert run_loop(fused, fuel, n) == want, \
                (fuel, header, latch, hlines)
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
    #: of the VM lowering that raises on malformed code, then the two
    #: local accesses no frame has: their block compiles, and the
    #: subscript raises (under a rollback mark) where the reference's
    VM_MALFORMED = [
        ([], BCInstr("bogus"), "trap", "unknown opcode 'bogus'", True),
        ([BCInstr("const", "i32", 3), BCInstr("vec.splat", "i32")],
         BCInstr("vec.reduce", "i32", ("mul", "i32")),
         "trap", "reduce op 'mul' undefined", True),
        ([BCInstr("const", "i32", 1), BCInstr("const", "i32", 2)],
         BCInstr("add", "q7"), "KeyError", "'q7'", True),
        ([], BCInstr("frame", None, 5),
         "IndexError", "list index out of range", True),
        ([], BCInstr("ldloc", "i32", 9),
         "IndexError", "list index out of range", False),
        ([BCInstr("const", "i32", 1)], BCInstr("stloc", "i32", 9),
         "IndexError", "list assignment index out of range", False),
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
        real = replay_metered

        def spy(pre, leader, machine, *frame):
            trips.append((pre, leader, getattr(
                machine, pre.steps.low.executed)))
            real(pre, leader, machine, *frame)

        # both engines' trips reach it through the one trampoline
        monkeypatch.setattr(repro.tiering, "replay_metered", spy)
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
            replay_metered(pre, 0, machine, *frame)
        assert getattr(machine, pre.steps.low.executed) == 2
        assert set(pre.steps) == {0}
        machine.fuel = 1 << 20
        with pytest.raises(RuntimeError, match="which the fuel covers"):
            replay_metered(pre, 0, machine, *frame)


#: ``tests.support.sources_digest`` of ``generated_sources()``, one pin
#: per tier: the sha256, the per-tag ``(sources, lines)`` and the
#: per-source prints.  The block tier's templates and holes are what a
#: device's first call runs, and most PRs must not move them; a PR
#: that means to move tier-2 code re-pins ``tier2`` alone.
PINNED_SOURCES = {
    "block": (
        "39f9b3ea19f189b86df6a8c285aec6753d2fe884d9939034a1a72056fb4eb761",
        {"pvi": (22, 4391), "pvi-sim": (132, 50117)},
        ("46d94b21bc42e4ad75165c0f04224018901e871202fe03ba3d8b04f9"
         "72bd220f30f7db17ed8a65dc71b577d1a4281678a2e77d67fbdb08a4"
         "3ea8ceb3fe5ff8808f81b0126ed7a9ebcaa6800ae8201726d31934fe"
         "acdddeb9a6feab629e355438fecf0459fcc73fcdcde61cc9553a6dd9"
         "5f3f52558b80aa533c4a1c383cc6a4bb4fcdc909273ac6095343cb4c"
         "b6d986f4f58a3bd20b43afbf1db6")),
    "tier2": (
        "47b7c6a045017480e7171244bc6c6a26c473b04b1ca68b0bbc74a448f38566a6",
        {"pvi-sim-t2": (132, 23945), "pvi-t2": (22, 2109)},
        ("a9db4555bedaa32b2748c2c8d3caf4c1b3f8b4672921d74465a2fd77"
         "c34fbb3fd8042b42eea56ed452c4b9d4298acc3620ae81820f9970dc"
         "174387f7f7a676a6f2fef398ca971025bcbc8a777977daf564345673"
         "45fdb40c645597840be3ce370b5d897cc69826eed64690b2671e8086"
         "35e295240c5d98fcc6f872fd1201b7fc855d4594380fb66f804f5f92"
         "208d82863b199898a240591755df")),
}


@functools.lru_cache(maxsize=1)
def corpus_sources():
    return generated_sources()


@pytest.mark.parametrize("tier", ["block", "tier2"])
def test_generated_sources_digest(tier):
    """Everything both engines generate over kernels x flows x
    targets, byte for byte, one pin per tier: each tier-2 source, and
    each block-tier block as template text plus hole values, captured
    where it is instantiated (``tests.support.generated_sources``) so
    the digest does not depend on what the template memo already held.
    A PR that means to move generated code re-pins the tier it moves
    and says so; CI also runs both pins under two fixed
    ``PYTHONHASHSEED`` values, and once after another test module in
    the same process.

    Last tier-2 re-pin: vector ops lower once, in the emitter, and
    tier-2 writes their lanes out where the lane count is proven (a
    lane guard where it is not, the kernel its other arm); an f32
    batch is packed at its op and a store writes those bytes; a vector
    stays a tuple until observable, on the simulator too, whose deopt
    writeback re-lists its vector registers.  The 56 tier-2 entries
    that hold a vector op (8 kernels: 4 vector targets of the split
    flow, 3 of the online-only one) moved (``pvi-t2`` 2116 -> 2109
    lines, ``pvi-sim-t2`` 23921 -> 23945); the other 98 tier-2 entries
    and every block-tier entry are byte-identical to the parent's."""
    sources = {key: text for key, text in corpus_sources().items()
               if ("-t2:" in key[3]) == (tier == "tier2")}
    got = sources_digest(sources)
    if got != PINNED_SOURCES[tier]:
        moved = first_moved(sources, got[2], PINNED_SOURCES[tier][2])
        pytest.fail(f"{tier} sources moved, first at {moved}:\n"
                    f"sha256 {got[0]}\ntags {got[1]}\n"
                    f"prints {got[2]}\n"
                    f"to see what moved, run `python tools/sources.py DIR` "
                    f"in this tree and in the parent's, then `diff -r`")


def test_block_tier_rollback_structure(monkeypatch):
    """One rollback mechanism, both tiers — over the digest corpus'
    block templates: a template without a ``try:`` holds no ``raise``
    after its debit, no call (bar ``s.append``, which cannot fail)
    and no subscript but a cell of storage the frame set-up sized
    (locals, register files) or a spill-slot store, indexed by a hole
    whose value is a plain non-negative integer; and every ``raise``
    line sits under the mark of the instruction that emitted it, so
    the line table names the trapping instruction."""
    spans = {}      # block-tier emitter -> [(first line, end, offset)]
    real_end = tiers.BlockEmitter.end

    def end(self, offset):
        if not self.tier.tier2:
            spans.setdefault(self, []).append(
                (self.marker_at, len(self.lines), offset))
        real_end(self, offset)

    monkeypatch.setattr(tiers.BlockEmitter, "end", end)
    sources = generated_sources()
    bare = guarded = 0
    for key, source in sources.items():
        if "-t2:" in key[3]:
            continue
        assert not re.search(r"^\s*_i = \w+$", source, re.M), key
        for block in source.split("\ndef ")[1:]:
            lines = block.split("\n")
            holes = dict(re.findall(r"^# (h\d+) = (.*)$", block, re.M))
            if "    try:" in lines:
                guarded += 1
                assert "__traceback__.tb_lineno" in block, key
                continue
            bare += 1
            entry = next(index for index, line in enumerate(lines)
                         if "raise MeterTrip" in line)
            for line in lines[entry + 1:]:
                if line.startswith("#"):
                    break               # the hole values: text is over
                assert "raise" not in line, (key, line)
                assert set(re.findall(r"[\w.\]]+\(", line)) \
                    <= {"s.append("}, (key, line)
                for base, index in re.findall(r"(\w+)\[([^\]]*)\]", line):
                    assert holes[index].isdigit() and (
                        base in ("lo", "ri", "rf", "rv")
                        or line.startswith(f"    slots[{index}] = ")), \
                        (key, line)
    assert bare and guarded
    raises = 0
    for emitter, instructions in spans.items():
        starts = [at for at, _ in emitter.marks]
        for first, end_, offset in instructions:
            for index in range(first, end_):
                if "raise" in emitter.lines[index]:
                    raises += 1
                    mark = bisect.bisect_right(starts, index) - 1
                    assert mark >= 0 and \
                        emitter.marks[mark][1] == offset, \
                        (emitter.lines[index], offset)
    assert raises


# ---------------------------------------------------------------------------
# block templates: one compile() per block shape
# ---------------------------------------------------------------------------

def vm_function(code, params=0, nlocals=0):
    module = BytecodeModule()
    module.add(BytecodeFunction("f", ["i32"] * params, "i32",
                                local_types=["i32"] * nlocals,
                                code=code))
    return module


def vm_counting_loop(acc, var, scale, step, swapped):
    """``s = 0; while (i < n) { s += i * scale; i += step; }`` over
    locals ``acc`` / ``var``; ``swapped`` lays the exit block out
    before the loop body, so every branch target moves."""
    body = [BCInstr("ldloc", "i32", acc), BCInstr("ldloc", "i32", var),
            BCInstr("const", "i32", scale), BCInstr("mul", "i32"),
            BCInstr("add", "i32"), BCInstr("stloc", "i32", acc),
            BCInstr("ldloc", "i32", var), BCInstr("const", "i32", step),
            BCInstr("add", "i32"), BCInstr("stloc", "i32", var),
            BCInstr("br", None, 5)]
    leave = [BCInstr("ldloc", "i32", acc), BCInstr("ret")]
    at_body, at_leave = (12, 10) if swapped else (10, 21)
    head = [BCInstr("const", "i32", 0), BCInstr("stloc", "i32", acc),
            BCInstr("const", "i32", 0), BCInstr("stloc", "i32", var),
            BCInstr("br", None, 5),
            BCInstr("ldloc", "i32", var), BCInstr("ldarg", "i32", 0),
            BCInstr("cmp", "i32", "lt"), BCInstr("brif", None, at_body),
            BCInstr("br", None, at_leave)]
    return vm_function(head + (leave + body if swapped else body + leave),
                       params=1, nlocals=3)


def sim_counting_loop(acc, count, step, costs, swapped):
    """``while (n) { acc += step; n -= 1; }`` with ``n`` arriving in
    register ``count``; ``swapped`` moves the exit block (and every
    branch target), ``costs`` are the per-instruction cycle costs."""
    cost = iter(costs)

    def inst(op, value_ty, dst, srcs, arg):
        return MInst(op, value_ty, dst, srcs, arg, cost=next(cost))

    at_body, at_leave = (4, 3) if swapped else (3, 6)
    head = [inst("mov", None, ("int", acc), [("imm", 0)], None),
            inst("brif", None, None, [("int", count)], at_body),
            inst("br", None, None, [], at_leave)]
    body = [inst("bin", ty.I32, ("int", acc),
                 [("int", acc), ("imm", step)], "add"),
            inst("bin", ty.I32, ("int", count),
                 [("int", count), ("imm", 1)], "sub"),
            inst("br", None, None, [], 1)]
    leave = [inst("ret", None, None, [("int", acc)], None)]
    return machine_module(
        head + (leave + body if swapped else body + leave),
        param_locs=[("int", count)])


def outcome_with(engine_module, args):
    """``outcome(module, engine, **knobs)`` of ``f(*args)``."""
    if engine_module is threaded:
        return lambda module, engine, **knobs: vm_outcome(
            module, args, engine, verify=False, **knobs)
    return lambda module, engine, **knobs: sim_outcome(
        module, args, engine, **knobs)


#: per engine: two functions that differ only in what the templates
#: leave as holes, the predecode entry point and ``f(6)``'s outcome
SAME_SHAPES = {
    threaded: SimpleNamespace(
        first=lambda: vm_counting_loop(0, 1, 3, 1, False),
        second=lambda: vm_counting_loop(2, 0, 5, 2, True),
        predecode=lambda module: threaded.predecode(
            module.functions["f"], module),
        outcome=outcome_with(threaded, [6])),
    dispatch: SimpleNamespace(
        first=lambda: sim_counting_loop(1, 0, 2, range(1, 8), False),
        second=lambda: sim_counting_loop(0, 3, 5, range(9, 2, -1), True),
        predecode=lambda module: dispatch.predecode_machine(
            module["f"], module),
        outcome=outcome_with(dispatch, [6])),
}


@pytest.mark.parametrize("engine_module", [threaded, dispatch])
class TestBlockTemplates:
    """The block tier compiles block *shapes*, once per process, and
    instantiates them (:func:`repro.tiers.block_template`)."""

    def test_same_shapes_share_every_template(self, engine_module):
        shapes = SAME_SHAPES[engine_module]
        predecode, outcome = shapes.predecode, shapes.outcome
        tiers.block_template.cache_clear()
        one, two = shapes.first(), shapes.second()
        predecode(one)
        seen = tiers.template_stats()
        assert 0 < seen["misses"] == seen["resident"] \
            <= len(predecode(one).steps.low.blocks)
        pre = predecode(two)
        after = tiers.template_stats()
        assert after["misses"] == seen["misses"], \
            "indexes, immediates, targets and costs are holes"
        assert after["hits"] - seen["hits"] == len(pre.steps.low.blocks)
        for module in (one, two):
            outcomes = {engine: outcome(module, engine)
                        for engine in ENGINES}
            assert_agree(outcomes)
            assert outcomes[FAST][0] == "ok"
        assert outcome(one, FAST)[1] != outcome(two, FAST)[1]

    def test_line_table_is_a_hole(self, engine_module):
        """Two instances of one template trap at different
        instructions, each rolled back to the reference's count.  On
        the VM an elided cast also shifts which instruction owns
        which line, so the two instances' tables differ."""
        if engine_module is threaded:
            def module(addr, divisor, padding):
                return vm_function(
                    [BCInstr("const", "i32", addr), BCInstr("load", "i32")]
                    + [BCInstr("cast", "i32", "i32")] * padding
                    + [BCInstr("const", "i32", divisor),
                       BCInstr("div", "i32"), BCInstr("ret")])
            early, late = module(0, 3, 0), module(128, 0, 2)
            expect = (("trap", 2), ("trap", 6))
        else:
            def module(addr, divisor, padding):
                return machine_module([
                    MInst("load", ty.I32, ("int", 4), [("imm", addr)],
                          None, cost=3),
                    MInst("bin", ty.I32, ("int", 5),
                          [("int", 4), ("imm", divisor)], "div", cost=7),
                    MInst("ret", None, None, [("int", 5)], None, cost=2)])
            early, late = module(0, 3, 0), module(128, 0, 0)
            expect = (("trap", 1), ("trap", 2))
        predecode = SAME_SHAPES[engine_module].predecode
        outcome = outcome_with(engine_module, [])
        tiers.block_template.cache_clear()
        handlers = [predecode(module).handlers[0]
                    for module in (early, late)]
        assert tiers.template_stats()["misses"] == 1
        tables = [next(value for value in handler.__globals__.values()
                       if type(value) is dict)      # not ``_step``
                  for handler in handlers]
        assert tables[0] is not tables[1]
        if engine_module is threaded:
            assert tables[0] != tables[1]
        for module, (kind, executed) in zip((early, late), expect):
            outcomes = {engine: outcome(module, engine)
                        for engine in ENGINES}
            assert_agree(outcomes)
            assert (outcomes[FAST][0], outcomes[FAST][-1]) == \
                (kind, executed)

    def test_clearing_the_memo_changes_nothing_observable(
            self, engine_module):
        """Live instances hold their own code: a memo cleared (or a
        template evicted) between predecode and execution only costs
        the next predecode a recompile."""
        shapes = SAME_SHAPES[engine_module]
        predecode, outcome = shapes.predecode, shapes.outcome
        module = shapes.first()
        predecode(module)
        tiers.block_template.cache_clear()
        assert tiers.template_stats() == \
            {"resident": 0, "hits": 0, "misses": 0}
        want = outcome(module, REFERENCE)
        total = want[-1]
        for fuel in (None, total // 2, total - 1):
            knobs = {} if fuel is None else {"fuel": fuel}
            assert_agree({engine: outcome(module, engine, **knobs)
                          for engine in (FAST, REFERENCE)}, f"{fuel}")
        compiled = tiers.template_stats()["misses"]   # steps, if any
        predecode(shapes.first())
        assert tiers.template_stats()["misses"] > compiled

    def test_memo_is_bounded(self, engine_module):
        shapes = SAME_SHAPES[engine_module]
        predecode, outcome = shapes.predecode, shapes.outcome
        module = shapes.first()
        predecode(module)
        lowering = type(predecode(module).steps.low)
        for number in range(tiers.TEMPLATE_SHAPES + 8):
            tiers.block_template(lowering,
                                 f"def _b():\n    return {number}")
        stats = tiers.template_stats()
        assert stats["resident"] == tiers.TEMPLATE_SHAPES
        assert stats["misses"] >= tiers.TEMPLATE_SHAPES + 8
        assert_agree({engine: outcome(module, engine)
                      for engine in (FAST, REFERENCE)})
        tiers.block_template.cache_clear()

    def test_two_threads_predecode_one_never_seen_function(
            self, engine_module):
        """Both miss on every shape, both compile, the memo keeps
        one; either thread's handlers agree with the reference."""
        shapes = SAME_SHAPES[engine_module]
        predecode, outcome = shapes.predecode, shapes.outcome
        module = shapes.first()
        func = next(iter(module.functions.values()))
        tiers.block_template.cache_clear()
        barrier = threading.Barrier(2)
        built = []

        def worker():
            barrier.wait(10)
            built.append(predecode(module))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker) for _ in range(2)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 2
        stats = tiers.template_stats()
        assert stats["resident"] <= len(built[0].steps.low.blocks)
        want = outcome(module, REFERENCE)
        for pre in built:
            func._predecode_cache = (pre.token, None, pre)
            assert outcome(module, FAST) == want
            assert predecode(module) is pre

    def test_traceback_names_function_and_leader(self, engine_module):
        """Shared code, private names: the frame of a trapping block
        says whose block it was; a step says which instruction."""
        if engine_module is threaded:
            module = vm_function([
                BCInstr("const", "i32", 1), BCInstr("br", None, 2),
                BCInstr("const", "i32", 0), BCInstr("div", "i32"),
                BCInstr("ret")])
            machine = VM(module, verify=False, engine=FAST)
            call, filename = machine.call, "<pvi:block>"
        else:
            module = machine_module([
                MInst("br", None, None, [], 1),
                MInst("mov", None, ("int", 1), [("imm", 1)], None),
                MInst("bin", ty.I32, ("int", 2), [("int", 1), ("imm", 0)],
                      "div"),
                MInst("ret", None, None, [("int", 2)], None)])
            machine = Simulator(module, Memory(), engine=FAST)
            call, filename = machine.run, "<pvi-sim:block>"
        predecode = SAME_SHAPES[engine_module].predecode
        leader = 2 if engine_module is threaded else 1
        with pytest.raises(TrapError, match="division by zero") as trap:
            call("f", [])
        frames = [(frame.filename, frame.name)
                  for frame in traceback.extract_tb(trap.tb)]
        assert (filename, f"f._b{leader}") in frames
        handler = predecode(module).handlers[leader]
        assert handler.__qualname__ == handler.__name__ == f"f._b{leader}"
        step = predecode(module).steps[leader]
        assert step.__qualname__ == f"f@{leader}"
        assert step.__code__.co_filename == filename


@pytest.mark.parametrize("engine_module", [threaded, dispatch])
def test_malformed_step_fails_afresh_on_every_execution(engine_module):
    """A step that cannot be lowered raises when it is executed, and
    each execution raises anew: the traceback does not grow from call
    to call and no failed call's machine stays referenced (a stored
    exception instance did both: depths 8, 13, 18, 23 on four
    calls)."""
    if engine_module is threaded:
        module = vm_function([BCInstr("const", "i32", 1), BCInstr("bogus"),
                              BCInstr("ret")])

        def run():
            machine = VM(module, verify=False, engine=FAST)
            return machine, lambda: machine.call("f", [])
    else:
        module = machine_module([
            MInst("mov", None, ("int", 0), [("imm", 1)], None),
            MInst("bogus"), MInst("ret", None, None, [("int", 0)], None)])

        def run():
            machine = Simulator(module, Memory(), engine=FAST)
            return machine, lambda: machine.run("f", [])
    depths, machines = [], []
    for _ in range(3):
        machine, call = run()
        with pytest.raises(TrapError, match="bogus") as trap:
            call()
        depths.append(len(traceback.extract_tb(trap.tb)))
        machines.append(weakref.ref(machine))
        del machine, call, trap
    assert len(set(depths)) == 1, depths
    gc.collect()
    assert [ref() for ref in machines] == [None] * 3


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

    # -- what a block proved once is not asked again ------------------------

    def elided(self, code, args, params, sources):
        """Three-way outcome of ``code`` (``args`` index the elements
        of one f32 array; ``None`` is an address below the null
        guard), the final bytes compared too; plus the tier-2 text."""
        module = machine_module(code, params=params)
        observed = {}
        for engine in ENGINES:
            memory = Memory()
            good = memory.alloc_array(ty.F32, [1.5, 2.5, -3.0, 4.0, 8.0,
                                               0.5, 0.25, 16.0])
            concrete = [1 if a is None else good + 4 * a for a in args]
            observed[engine] = (sim_outcome(module, concrete, engine,
                                            memory), bytes(memory.data))
        assert_agree(observed, repr(args))
        return observed[TIER2][0], sources["<pvi-sim-t2:f>"]

    #: one address register, read twice, rewritten, read and written
    REPEATED = [
        MInst("bin", ty.U64, ("int", 4), [("int", 0), ("imm", 0)], "add",
              cost=1),
        MInst("load", ty.F32, ("flt", 0), [("int", 4)], None, cost=3),
        MInst("load", ty.F32, ("flt", 1), [("int", 4)], None, cost=3),
        MInst("bin", ty.U64, ("int", 4), [("int", 1), ("imm", 4)], "add",
              cost=1),
        MInst("load", ty.F32, ("flt", 2), [("int", 4)], None, cost=3),
        MInst("bin", ty.F32, ("flt", 0), [("flt", 0), ("flt", 2)], "add",
              cost=2),
        MInst("store", ty.F32, None, [("int", 4), ("flt", 0)], None,
              cost=3),
        MInst("ret", None, None, [("flt", 1)], None, cost=2),
    ]

    def test_repeated_address_is_checked_once_per_value(self, sources):
        (kind, value, *_), source = self.elided(self.REPEATED, [0, 2], 2,
                                                sources)
        assert (kind, value) == ("ok", 1.5)
        # the first load checks, the second is covered; rewriting the
        # register re-checks once for the load and the store after it
        assert source.count("raise TrapError(f\"memory access") == 2
        assert "& 0xFFFFFFFFFFFFFFFF" not in source, \
            "a wrapped-u64 inline result is not masked again"
        for offset, args in ((1, [None, 2]), (4, [0, None])):
            (kind, text, executed), _ = self.elided(self.REPEATED, args,
                                                    2, sources)
            assert kind == "trap" and "out of bounds" in text
            assert executed == offset + 1

    @staticmethod
    def chain(other):
        """A ``vload`` / ``vbin`` / ``vstore`` chain on one address;
        ``rv2`` comes from another block as a vector of type
        ``other``."""
        v4 = VecType(ty.F32, 4)
        return [
            MInst("vload", other, ("vec", 2), [("int", 1)], None, cost=3),
            MInst("br", None, None, [], 2, cost=1),
            MInst("bin", ty.U64, ("int", 4), [("int", 0), ("imm", 0)],
                  "add", cost=1),
            MInst("vload", v4, ("vec", 0), [("int", 4)], None, cost=3),
            MInst("vbin", v4, ("vec", 1), [("vec", 0), ("vec", 0)], "add",
                  cost=2),
            MInst("vbin", v4, ("vec", 3), [("vec", 1), ("vec", 2)], "mul",
                  cost=2),
            MInst("vstore", v4, None, [("int", 4), ("vec", 3)], None,
                  cost=3),
            MInst("vstore", v4, None, [("int", 4), ("vec", 2)], None,
                  cost=3),
            MInst("load", ty.F32, ("flt", 0), [("int", 4)], None, cost=3),
            MInst("ret", None, None, [("flt", 0)], None, cost=2),
        ]

    def test_vector_chain_on_one_address(self, sources):
        code = self.chain(VecType(ty.F32, 4))
        (kind, value, *_), source = self.elided(code, [0, 4], 2, sources)
        assert (kind, value) == ("ok", 8.0)
        block = source[source.index("pc == 2:"):]
        block = block[:block.index("except Exception")]
        # one range check for the vector load and both stores (the
        # scalar read-back is another width: pairs, not intervals);
        # lanes asked only of the other block's vector
        assert block.count("out of bounds") == 2
        assert block.count("size=16") == 1
        assert set(re.findall(r"len\((\w+)\)", block)) == {"rv2"}
        assert "and ri4 >= 64" in block     # ... whose store keeps
        assert block.count("mem.store_vec") == 3    # the whole guard
        # both f32 ops are one inline batch each; the lane kernel runs
        # only in the other arm of the one guard
        assert len(re.findall(r"\bqp\d+\(", block)) == 2
        assert len(re.findall(r"\bv\d+\(", block)) == 1
        assert re.search(r"\n( +)else:\n\1    t\d+ = v\d+\(rv1, rv2\)\n",
                         block)
        # out of bounds: the first access traps, before any store
        (kind, text, executed), _ = self.elided(code, [None, 4], 2,
                                                sources)
        assert kind == "trap" and "out of bounds" in text
        assert executed == 4
        # a two-lane operand from the other block fails the one guard
        # left and reaches the kernel's mismatch trap
        code = self.chain(VecType(ty.F64, 2))
        (kind, text, executed), _ = self.elided(code, [0, 4], 2, sources)
        assert kind == "trap" and "lane" in text and executed == 6


# ---------------------------------------------------------------------------
# tier-2 reductions: one builtin call where the fold needs no widening
# ---------------------------------------------------------------------------

NAN = float("nan")

#: ``elem tag -> lane rows``, at the wrap boundaries of the element
#: and (summed) of every accumulator
INT_ROWS = {
    "i8": [[127] * 16, [-128] * 16, [127, -128] * 8,
           [-1, 0, 1, 127, -128, 5, -7, 0] * 2],
    "u8": [[255] * 16, [0] * 16, [255, 0, 128, 127] * 4],
    "u16": [[65535] * 8, [0, 65535, 32768, 32767, 1, 2, 3, 4]],
    "i32": [[2 ** 31 - 1] * 4, [-2 ** 31] * 4,
            [2 ** 31 - 1, -2 ** 31, -1, 1], [3, 2 ** 31 - 1, 2, 1]],
}
FLOAT_ROWS = {
    "f32": [[NAN, 1.0, 2.0, 3.0], [1.0, NAN, 3.0, 2.0],
            [3.0, 1.0, 2.0, NAN], [0.0, -0.0, 0.0, -0.0],
            [-0.0, 0.0, -0.0, 0.0], [1.5, 2.5, -3.0, 0.1]],
    "f64": [[NAN, 1.0], [1.0, NAN], [0.0, -0.0], [-0.0, 0.0],
            [1e308, 1e308], [0.1, 0.2]],
}


def reduce_outcomes(engine_module, elem, op, acc, lanes):
    """``repr`` outcome of ``reduce(op, lanes)`` per engine (NaN does
    not equal itself), and the tier-2 source of the last build."""
    if engine_module is threaded:
        module = BytecodeModule()
        module.add(BytecodeFunction(
            "f", [f"v128:{elem}"], acc,
            code=[BCInstr("ldarg", None, 0),
                  BCInstr("vec.reduce", elem, (op, acc)),
                  BCInstr("ret")]))
        run = vm_outcome
    else:
        elem_ty = type_of(elem)
        module = machine_module(
            [MInst("vreduce", VecType(elem_ty, 16 // ty.sizeof(elem_ty)),
                   ("int", 0), [("vec", 0)], (op, type_of(acc)), cost=4),
             MInst("ret", None, None, [("int", 0)], None, cost=2)],
            param_locs=[("vec", 0)])
        run = sim_outcome
    return {engine: repr(run(module, [list(lanes)], engine))
            for engine in ENGINES}


@pytest.mark.parametrize("engine_module", [threaded, dispatch])
@pytest.mark.parametrize("op", ["max", "min", "add"])
def test_reduce_agrees_at_the_boundaries(engine_module, sources, op):
    """``max`` / ``min`` as one builtin call and integer ``add`` as
    one ``sum`` with a single wrap, against the per-lane fold of the
    other two engines: integer lanes at the wrap boundaries into an
    accumulator of the same or a wider type, float lanes with NaN
    first, middle and last and with both zeros, the empty vector."""
    tag = "<pvi-t2:f>" if engine_module is threaded else "<pvi-sim-t2:f>"
    builtin = "sum" if op == "add" else op
    for rows, accs in ((INT_ROWS, ("same", "i32", "i64")),
                       (FLOAT_ROWS, ("same",))):
        for elem, acc in ((e, e if a == "same" else a)
                          for e in rows for a in accs):
            for lanes in [*rows[elem], []]:
                assert_agree(reduce_outcomes(engine_module, elem, op,
                                             acc, lanes),
                             f"{op} {elem}->{acc} {lanes}")
            # f32 rounds through a pack that can raise, and a float sum
            # rounds per lane: they unroll the lanes, one statement
            # each, under the one guard on a count the block cannot
            # prove (here an argument's), the kernel loop the other arm
            source = sources[tag]
            inlined = re.search(rf"\b{builtin}\(\w+\)", source) is not None
            assert inlined == (elem not in ("f32", "f64")
                               or (elem == "f64" and op != "add")), \
                (op, elem, acc, source)
            guard = re.search(r"^( +)if len\((\w+)\) == (\d+):\n"
                              r"((?:\1    .*\n)+)\1else:\n", source, re.M)
            assert (guard is not None) == (not inlined), (op, elem, source)
            if guard is not None:
                arm = guard.group(4)
                folds = re.findall(r"^ +(\w+) = ", arm, re.M)
                assert "for " not in arm and len(set(folds)) == 1 \
                    and len(folds) == int(guard.group(3)) - 1, \
                    (op, elem, source)
    assert "reduce of empty vector" in reduce_outcomes(
        engine_module, "i32", op, "i32", [])[TIER2]


# ---------------------------------------------------------------------------
# empty-header loops: the merged charge end to end
# ---------------------------------------------------------------------------

#: ``while (n > 0)`` laid out body first: the body (leader 2) ends in
#: a forward ``br`` to the test block (leader 5, ``cmp`` + ``brif``),
#: whose ``brif`` is the back edge
ROTATED_SIM_CODE = [
    MInst("mov", None, ("int", 1), [("imm", 0)], None, cost=1),
    MInst("br", None, None, [], 5, cost=3),
    MInst("bin", ty.I32, ("int", 1), [("int", 1), ("imm", 2)], "add",
          cost=1),
    MInst("bin", ty.I32, ("int", 0), [("int", 0), ("imm", 1)], "sub",
          cost=2),
    MInst("br", None, None, [], 5, cost=3),
    MInst("cmp", ty.I32, ("int", 2), [("int", 0), ("imm", 0)], "gt",
          cost=1),
    MInst("brif", None, None, [("int", 2)], 2, cost=2),
    MInst("ret", None, None, [("int", 1)], None, cost=2),
]

#: the merged charge's exit: refund the latch's share and leave
MERGED_EXIT = re.compile(r"^ +if .*:\n +executed -= \d+\n +pc = \d+\n"
                         r" +break$", re.M)


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
        assert MERGED_EXIT.search(sources["<pvi-t2:f>"])

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
        assert MERGED_EXIT.search(source), \
            "the lone-brif header merges its charge"
        assert "_r_spill_stores += _k * 1" in source

    #: the same loop under a ``cmp`` + ``brif`` header: two lines, the
    #: first a register write that must survive every exit
    CMP_CODE = SIM_CODE[:1] + [
        MInst("cmp", ty.I32, ("int", 2), [("int", 0), ("imm", 0)], "ne",
              cost=1),
        MInst("brif", None, None, [("int", 2)], 4, cost=2),
        SIM_CODE[2], *SIM_CODE[3:6],
        MInst("br", None, None, [], 1, cost=3)]

    @pytest.mark.parametrize("code, header", [
        (CMP_CODE, 1), (ROTATED_SIM_CODE, 5)],
        ids=["cmp-brif header", "rotated"])
    def test_sim_pure_header_fuel_sweep(self, sources, code, header):
        """Reference / fast / tier-2 at every fuel value, and entered
        by on-stack replacement after 2, 3 and 4 back edges — in the
        middle of the iteration count the exits settle from."""
        module = machine_module(code, params=1)
        pre = dispatch.predecode_machine(module.functions["f"], module)
        want = sim_outcome(module, [6], REFERENCE)
        assert want[:2] == ("ok", 12)
        entered = 0
        for fuel in range(want[-1] + 2):
            outcomes = {engine: sim_outcome(module, [6], engine,
                                            fuel=fuel)
                        for engine in ENGINES}
            for threshold in (2, 3, 4):
                # (a built translation would be entered at pc 0)
                pre._tier2 = _TIER2_UNBUILT
                sim = Simulator(module, Memory(), engine=FAST, fuel=fuel,
                                osr=True, osr_threshold=threshold)
                try:
                    result = sim.run("f", [6])
                    outcomes[f"osr{threshold}"] = (
                        "ok", result.value, result.instructions,
                        result.cycles, result.branches, sim._executed)
                except TrapError as exc:
                    outcomes[f"osr{threshold}"] = ("trap", str(exc),
                                                   sim._executed)
                entered += sim.osr_entries
            assert_agree(outcomes, f"fuel={fuel}")
        assert entered > want[-1] // 2     # every run with fuel for it
        source = sources["<pvi-sim-t2:f>"]
        assert f"if pc == {header}:\n" in source
        assert MERGED_EXIT.search(source)
        loop = source[source.index("\n            while 1:"):]
        loop = loop[:loop.index("\n        elif pc ==")]
        assert not re.search(r"_r_\w+ \+= \d", loop)


def test_build_stats_say_which_loops_run_fused():
    """``loops_fused`` / ``loops_ladder`` per build: both two-block
    layouts fuse; a loop of three blocks (``fir``'s outer one) and a
    one-block self loop go round the ladder; a backward jump that
    closes no cycle is layout and counts as neither."""
    def built(engine, predecode, func, module):
        engine.reset_tier2_build_stats()
        assert predecode(func, module).tier2(warm=True) is not None
        stats = engine.tier2_build_stats()
        return stats["loops_fused"], stats["loops_ladder"]

    for code, want in ((TestEmptyHeaderLoop.SIM_CODE, (1, 0)),
                       (ROTATED_SIM_CODE, (1, 0))):
        module = machine_module(code, params=1)
        assert built(dispatch, dispatch.predecode_machine,
                     module.functions["f"], module) == want
    self_loop = machine_module([
        MInst("bin", ty.I32, ("int", 0), [("int", 0), ("imm", 1)], "sub",
              cost=1),
        MInst("brif", None, None, [("int", 0)], 0, cost=2),
        MInst("br", None, None, [], 4, cost=1),
        MInst("ret", None, None, [("int", 0)], None, cost=2),
        MInst("br", None, None, [], 3, cost=1),     # back, but no loop
    ], params=1)
    assert built(dispatch, dispatch.predecode_machine,
                 self_loop.functions["f"], self_loop) == (0, 1)
    artifact = offline_compile(ALL_KERNELS["fir"].source, "fir")
    for target in ("x86", "sparc", "arm"):
        image = deploy(artifact, target, "split")
        (func,) = image.functions.values()
        assert built(dispatch, dispatch.predecode_machine, func,
                     image) == (1, 1), target
    bytecode = select_bytecode(artifact, "split")
    (func,) = bytecode.functions.values()
    assert built(threaded, threaded.predecode, func, bytecode) == (1, 1)


# ---------------------------------------------------------------------------
# one Predecoded base: identity and the thread-safe lazy build
# ---------------------------------------------------------------------------

def test_engines_share_one_predecoded_protocol():
    assert threaded.PredecodedFunction.tier2 is \
        dispatch.PredecodedMachine.tier2
    # one trampoline: both machines inherit the scaffold's policy and
    # neither keeps a counting loop of its own
    for machine in (VM, Simulator):
        assert issubclass(machine, TieredMachine)
        assert not hasattr(machine, "_run_osr")


LOOP = "int f(int n) { int s = 0;" \
       " for (int i = 0; i < n; i++) s += i; return s; }"


NO_TIERING = {"tier2_promotions": 0, "osr_entries": 0,
              "deopt_reentries": 0}


@pytest.mark.parametrize("engine_module", [threaded, dispatch])
class TestPaybackGate:
    """The promotion policy: OSR builds a function's tier-2 only once
    the function has spent, over all calls on its predecode, what the
    build costs; what is built is entered at pc 0 from then on."""

    #: back edges per call: seven gate questions each (stride 64)
    N = 500

    @pytest.fixture(autouse=True)
    def default_policy(self, monkeypatch):
        """CI's engine matrix sets ``PVI_OSR_THRESHOLD``; these tests
        are about what happens when nobody does."""
        monkeypatch.delenv(OSR_THRESHOLD_ENV, raising=False)

    def fresh(self, engine_module, source=LOOP):
        """``(module, predecode, call)`` over a never-run image of
        ``source``; ``call(n, engine, **knobs)`` runs ``f(n)`` on a
        new machine: ``(value and counts, tiering stats)``."""
        if engine_module is threaded:
            module, _ = emit_module(lower_checked(source))
            pre = threaded.predecode(module.functions["f"], module)

            def call(n, engine=FAST, **knobs):
                vm = VM(module, engine=engine, **knobs)
                value = vm.call("f", [n])
                return (value, vm.instructions_executed), \
                    vm.tiering_stats()
        else:
            module = deploy(offline_compile(source), X86, "split")
            pre = dispatch.predecode_machine(module["f"], module)

            def call(n, engine=FAST, **knobs):
                sim = Simulator(module, Memory(), engine=engine, **knobs)
                got = sim.run("f", [n])
                return (got.value, got.instructions, got.cycles,
                        got.branches, sim._executed), sim.tiering_stats()
        engine_module.reset_tier2_build_stats()
        return module, pre, call

    def test_call_shorter_than_the_payback_builds_nothing(
            self, engine_module):
        _, pre, call = self.fresh(engine_module)
        want, _ = call(self.N, REFERENCE)
        got, tiering = call(self.N, osr=True)
        assert got == want and tiering == NO_TIERING
        stats = engine_module.tier2_build_stats()
        assert stats["request"] == 0 and stats["deferred"] == 7
        assert pre.built_tier2() is None
        assert 0 < pre.spent < pre.payback == \
            TIER2_PAYBACK * len(pre.steps.low.code)

    def test_short_calls_add_up_to_one_promotion(self, engine_module):
        """The counter lives on the predecode: the k-th short call
        builds and enters mid-call, k fixed by the arithmetic; every
        later call starts in tier-2.  Value, instruction and cycle
        counts match the reference on every call across the build."""
        _, pre, call = self.fresh(engine_module)
        want, _ = call(self.N, REFERENCE)
        got, tiering = call(self.N, osr=True)
        assert got == want and tiering == NO_TIERING
        per_call = pre.spent
        building = -(-pre.payback // per_call)          # ceil
        assert building > 2
        for number in range(2, building):
            got, tiering = call(self.N, osr=True)
            assert got == want and tiering == NO_TIERING, number
        assert pre.built_tier2() is None
        got, tiering = call(self.N, osr=True)
        assert got == want
        assert tiering == dict(NO_TIERING, osr_entries=1), \
            f"call {building} repays the build and enters mid-call"
        spent = pre.spent
        for _ in range(3):
            got, tiering = call(self.N, osr=True)
            assert got == want
            assert tiering == dict(NO_TIERING, tier2_promotions=1)
        stats = engine_module.tier2_build_stats()
        assert stats["request"] == 1 and stats["warm"] == 0
        assert pre.spent == spent, "nothing left to ask the gate"

    def test_explicit_threshold_bypasses_the_gate(self, monkeypatch,
                                                  engine_module):
        """``osr_threshold=`` / ``PVI_OSR_THRESHOLD`` mean "enter at
        exactly this back-edge count", whatever was spent."""
        for knobs, env in (({"osr_threshold": 8}, None), ({}, "8")):
            if env is not None:
                monkeypatch.setenv(OSR_THRESHOLD_ENV, env)
            _, pre, call = self.fresh(engine_module)
            _, tiering = call(7, osr=True, **knobs)
            assert tiering == NO_TIERING and pre.built_tier2() is None
            want, _ = call(8, REFERENCE)
            got, tiering = call(8, osr=True, **knobs)
            assert got == want
            assert tiering == dict(NO_TIERING, osr_entries=1)
            assert pre.spent == 0
            stats = engine_module.tier2_build_stats()
            assert stats["request"] == 1 and stats["deferred"] == 0

    def test_osr_off_never_enters_tier2_unhinted(self, engine_module):
        _, pre, call = self.fresh(engine_module)
        want, _ = call(50 * self.N, REFERENCE)
        got, tiering = call(50 * self.N, osr=False)
        assert got == want and tiering == NO_TIERING
        assert pre.spent == 0 and pre.built_tier2() is None
        assert callable(pre.tier2())    # even with a translation built
        got, tiering = call(50 * self.N, osr=False)
        assert got == want and tiering == NO_TIERING
        assert engine_module.tier2_build_stats()["deferred"] == 0

    def test_declined_build_stops_the_call_asking(self, monkeypatch,
                                                  engine_module):
        """"Not yet" keeps counting; a build that declined is asked
        for once per call and the call stops counting back edges."""
        _, pre, call = self.fresh(engine_module)
        asked = []
        real = Predecoded.tier2_repaid
        monkeypatch.setattr(
            Predecoded, "tier2_repaid",
            lambda self, executed: asked.append(executed)
            or real(self, executed))
        want, _ = call(self.N, REFERENCE)
        call(self.N, osr=True)
        assert len(asked) == 7 and not pre.tier2_declined
        pre._tier2 = None
        del asked[:]
        got, tiering = call(self.N, osr=True)
        assert got == want and tiering == NO_TIERING
        assert len(asked) == 1

    def test_spent_includes_what_callees_ran(self, engine_module):
        """The gate's clock is the machine's one executed counter: a
        loop's spending counts the instructions its callees ran, and
        a loop-free callee never asks."""
        source = "int helper(int x) { int t = x * x; return t + 1; }" \
                 + LOOP.replace("s += i;", "s += helper(i);")
        module, pre, call = self.fresh(engine_module, source)

        def executed(entry, n):
            return (vm_outcome if engine_module is threaded
                    else sim_outcome)(module, [n], REFERENCE,
                                      entry=entry)[-1]

        per_trip = executed("f", 2) - executed("f", 1)
        assert per_trip > executed("helper", 1) > 0
        want, _ = call(self.N, REFERENCE)
        got, tiering = call(self.N, osr=True)
        assert got == want and tiering == NO_TIERING
        # seven crossings, 64 back edges apart
        assert 448 * per_trip <= pre.spent < 449 * per_trip

    def test_mid_call_entry_at_every_fuel_value(self, engine_module):
        """A built translation is entered at pc 0, so a sweep over one
        image would enter mid-call once: un-build it before every
        run, and the fuel trap lands on the reference's instruction
        whether the call is still in the block tier, just entered, or
        long inside tier-2."""
        module, pre, _ = self.fresh(engine_module)
        outcome = vm_outcome if engine_module is threaded \
            else sim_outcome
        total = outcome(module, [9], REFERENCE)[-1]
        entered = []
        for fuel in range(total + 2):
            want = outcome(module, [9], REFERENCE, fuel=fuel)
            pre._tier2 = _TIER2_UNBUILT
            assert outcome(module, [9], FAST, fuel=fuel, osr=True,
                           osr_threshold=3) == want, fuel
            if pre.built_tier2() is not None:
                entered.append(fuel)
        # the third back edge is reached from some fuel value on
        assert entered == list(range(entered[0], total + 2))
        assert 0 < entered[0] < total - 10


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
    assert pre._tier2 is _TIER2_UNBUILT
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


def test_osr_threshold_below_one_is_refused(monkeypatch):
    from repro.engine import osr_threshold
    monkeypatch.setenv(OSR_THRESHOLD_ENV, "0")
    with pytest.raises(ValueError, match="must be >= 1, got 0"):
        osr_threshold()


def test_call_through_an_unfrozen_module_with_a_slot_argument():
    """A module open to edits binds no callee: the call looks ``g`` up
    when it runs, and an argument read from a spill slot reaches it,
    on every engine alike."""
    g = CompiledFunction(name="g", target_name="x86", code=[
        MInst("bin", ty.I32, ("int", 1), [("int", 0), ("imm", 1)], "add"),
        MInst("ret", None, None, [("int", 1)], None)],
        param_locs=[("int", 0)], ret_void=False)
    f = CompiledFunction(name="f", target_name="x86", code=[
        MInst("mov", None, ("int", 0), [("imm", 41)], None),
        MInst("spill.st", None, None, [("int", 0)], 0),
        MInst("call", None, ("int", 1), [("slot", 0)], "g"),
        MInst("ret", None, None, [("int", 1)], None)],
        ret_void=False)
    module = CompiledModule("x86")
    module.add(g)
    module.add(f)
    assert not module.frozen
    outcomes = {engine: sim_outcome(module, [], engine)
                for engine in ENGINES}
    assert_agree(outcomes)
    assert outcomes[REFERENCE][:2] == ("ok", 42)


def test_rounding_negation_in_machine_tier2():
    """An f32 negation is inlined in tier-2 with its rounding, which
    can raise, so its line is marked."""
    image = deploy(offline_compile("float f(float x) { return -x; }"),
                   X86, "split")
    outcomes = {engine: sim_outcome(image, [1.25], engine)
                for engine in ENGINES}
    assert_agree(outcomes)
    assert outcomes[TIER2][:2] == ("ok", -1.25)
