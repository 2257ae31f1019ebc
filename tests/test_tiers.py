"""The tier scaffold shared by both predecode engines
(:mod:`repro.tiers`): loop fusion, the counter-vector debit protocol,
the raw-closure fallback, trap rollback through the tier-2 line table,
and the thread-safe lazy tier-2 build."""

from __future__ import annotations

import random
import re
import threading
from types import SimpleNamespace

import pytest

from repro import tiers
from repro.bytecode import emit_module
from repro.bytecode.module import BytecodeFunction, BytecodeModule
from repro.bytecode.opcodes import BCInstr
from repro.core import deploy, offline_compile
from repro.engine import (
    CodegenEnv, FAST, REFERENCE, TIER2, backedge_targets, fuel_blocks,
)
from repro.lang import types as ty
from repro.semantics import Memory, TrapError
from repro.targets import Simulator, X86, dispatch
from repro.targets.isa import CompiledFunction, CompiledModule, MInst
from repro.vm import VM, threaded
from tests.support import lower_checked
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


def sim_outcome(module, args, engine, memory=None, **kwargs):
    sim = Simulator(module, memory or Memory(), engine=engine, **kwargs)
    try:
        result = sim.run("f", list(args))
        return ("ok", result.value, result.instructions, result.cycles,
                result.branches, sim._executed)
    except TrapError as exc:
        return ("trap", str(exc), sim._executed)


def vm_outcome(module, args, engine, **kwargs):
    vm = VM(module, engine=engine, **kwargs)
    try:
        return ("ok", vm.call("f", list(args)), vm.instructions_executed)
    except TrapError as exc:
        return ("trap", str(exc), vm.instructions_executed)


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
# the raw-closure fallback
# ---------------------------------------------------------------------------

class TestFallbackWrapper:
    """A block whose lowering raises (here: a malformed instruction)
    runs through the raw closures under the same block-entry debit,
    rolled back to the trapping instruction."""

    STEPS = 4

    @pytest.mark.parametrize("position", range(2 * STEPS + 1))
    def test_vm_unknown_opcode_at_every_position(self, position):
        code = []
        for step in range(self.STEPS):
            code += [BCInstr("const", "i32", step), BCInstr("pop")]
        code.insert(position, BCInstr("bogus"))
        code += [BCInstr("const", "i32", 7), BCInstr("ret")]
        module = BytecodeModule()
        func = module.add(BytecodeFunction("f", [], "i32", code=code))
        # the verifier would reject it; machine code has none
        outcomes = {engine: vm_outcome(module, [], engine, verify=False)
                    for engine in ENGINES}
        assert_agree(outcomes, f"bogus at {position}")
        assert outcomes[FAST][:2] == ("trap", "unknown opcode 'bogus'")
        handler = threaded.predecode(func, module).handlers[0]
        assert "_raw" in handler.__code__.co_names

    @pytest.mark.parametrize("position", range(STEPS + 1))
    def test_sim_bad_opcode_at_every_position(self, position):
        code = [MInst("mov", None, ("int", step), [("imm", step)], None,
                      cost=step + 1) for step in range(self.STEPS)]
        code.insert(position, MInst("bogus"))
        code.append(MInst("ret", None, None, [("imm", 0)], None))
        module = machine_module(code)
        outcomes = {engine: sim_outcome(module, [], engine)
                    for engine in ENGINES}
        assert_agree(outcomes, f"bogus at {position}")
        assert outcomes[FAST][:2] == \
            ("trap", "bad machine opcode 'bogus'")
        handler = dispatch.predecode_machine(
            module["f"], module).handlers[0]
        assert "_raw" in handler.__code__.co_names

    @pytest.mark.parametrize("engine_module", [threaded, dispatch])
    def test_fallback_runs_clean_blocks_to_completion(
            self, monkeypatch, engine_module):
        """With *every* block-tier lowering failing, whole programs
        (loops, fuel exhaustion mid-block) still match the reference."""
        real = engine_module._gen_block_lines

        def failing(low, leader, length, tier):
            if not tier.tier2:
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
