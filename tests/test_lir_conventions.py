"""The pass conventions of ``repro.ir.function``: dense register ids
behind per-register tables and bitmask sets, the verifier invariant
that makes them safe, and when ``PassManager`` runs the verifier."""

from __future__ import annotations

from typing import Dict, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.opt.pass_manager as pass_manager
from repro.bytecode import emit_module
from repro.core import offline_compile
from repro.ir import (
    Const, Function, IRBuilder, IRVerifyError, verify_function,
)
from repro.ir.liveness import analyze, live_ranges
from repro.ir.values import VReg
from repro.jit.frontend import decode_function
from repro.jit.peephole import fold_cast_chains, quick_cleanup
from repro.lang import types as ty
from repro.opt import (
    PassManager, PassResult, copyprop, dce, standard_passes,
)
from repro.workloads import ALL_KERNELS, REGALLOC_CORPUS
from tests.support import lower_checked
from tests.test_property_programs import statement_list


# ---------------------------------------------------------------------------
# bitmask liveness against the set-based analysis it replaced
# ---------------------------------------------------------------------------

def reference_analyze(func) -> Dict[str, Dict[str, Set[VReg]]]:
    """Backward may-liveness over sets of registers (the reference)."""
    info = {}
    for block in func.blocks:
        use, defs = set(), set()
        for instr in block.instrs:
            use.update(reg for reg in instr.uses() if reg not in defs)
            defs.update(instr.defs())
        info[block.label] = {"use": use, "defs": defs,
                             "live_in": set(), "live_out": set()}
    changed = True
    while changed:
        changed = False
        for block in reversed(func.blocks):
            bl = info[block.label]
            out = set()
            for succ in block.successors():
                out |= info[succ]["live_in"]
            new_in = bl["use"] | (out - bl["defs"])
            if out != bl["live_out"] or new_in != bl["live_in"]:
                bl["live_out"], bl["live_in"] = out, new_in
                changed = True
    return info


def reference_live_ranges(func) -> Dict[VReg, Tuple[int, int]]:
    info = reference_analyze(func)
    starts = {param: -1 for param in func.params}
    ends = dict(starts)
    index = 0
    bounds = {}
    for block in func.blocks:
        begin = index
        for instr in block.instrs:
            for reg in instr.uses() + instr.defs():
                starts.setdefault(reg, index)
                ends[reg] = index
            index += 1
        bounds[block.label] = (begin, index - 1)
    for block in func.blocks:
        begin, end = bounds[block.label]
        for regs, position in ((info[block.label]["live_in"], begin),
                               (info[block.label]["live_out"], end)):
            for reg in regs:
                starts[reg] = min(starts[reg], position)
                ends[reg] = max(ends[reg], position)
    return {reg: (starts[reg], ends[reg]) for reg in starts}


def assert_liveness_matches(func) -> None:
    expected = reference_analyze(func)
    got = analyze(func)
    assert list(got) == list(expected)
    for label, sets in expected.items():
        for name, regs in sets.items():
            assert getattr(got[label], name) == regs, (label, name)
    ranges = live_ranges(func)
    reference = reference_live_ranges(func)
    assert ranges == reference
    # Key order decides ties in the allocator's stable sort.
    assert [reg.id for reg in ranges] == [reg.id for reg in reference]


def lir_functions(source: str, name: str):
    """Both bytecode flavours of a program, decoded: every function as
    the JIT front end leaves it, and again after the always-on cleanup
    (what register allocation sees)."""
    artifact = offline_compile(source, name)
    for module in (artifact.bytecode, artifact.scalar_bytecode):
        for bc_func in module:
            yield decode_function(bc_func, module.functions)[0]
            cleaned = decode_function(bc_func, module.functions)[0]
            quick_cleanup(cleaned)
            yield cleaned


class TestBitmaskLiveness:
    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_kernels_scalar_and_vector_lir(self, name):
        for func in lir_functions(ALL_KERNELS[name].source, name):
            assert_liveness_matches(func)

    @pytest.mark.parametrize("name", sorted(REGALLOC_CORPUS))
    def test_regalloc_corpus(self, name):
        for func in lir_functions(REGALLOC_CORPUS[name], name):
            assert_liveness_matches(func)
        for func in lower_checked(REGALLOC_CORPUS[name]):
            PassManager(standard_passes()).run(func)
            assert_liveness_matches(func)

    @settings(max_examples=25, deadline=None)
    @given(body=statement_list())
    def test_random_programs(self, body):
        source = f"""
        int f(int a, int b, int c) {{
            for (int i = 0; i < a; i++) {{
                {body}
            }}
            return a ^ b ^ c;
        }}"""
        for func in lower_checked(source):
            assert_liveness_matches(func)
            PassManager(standard_passes()).run(func)
            assert_liveness_matches(func)
        module = lower_checked(source)
        bc, _ = emit_module(module)
        lir, _ = decode_function(bc["f"], bc.functions)
        assert_liveness_matches(lir)


# ---------------------------------------------------------------------------
# tables sized by reg_count: the degenerate sizes
# ---------------------------------------------------------------------------

def no_registers():
    func = Function("f", ty.VOID)
    builder = IRBuilder(func)
    builder.set_block(func.new_block("entry"))
    builder.ret()
    return func


def parameters_only():
    func = Function("f", ty.I32)
    a = func.new_param(ty.I32, "a")
    func.new_param(ty.I32, "b")
    builder = IRBuilder(func)
    builder.set_block(func.new_block("entry"))
    builder.ret(a)
    return func


def defined_never_used():
    func = Function("f", ty.I32)
    a = func.new_param(ty.I32, "a")
    builder = IRBuilder(func)
    builder.set_block(func.new_block("entry"))
    wide = builder.cast(a, ty.I32, ty.I64)
    builder.cast(wide, ty.I64, ty.U64)
    builder.binop("add", a, Const(1, ty.I32), ty.I32)
    builder.move(a)
    builder.ret(a)
    return func


class TestDegenerateFunctions:
    def test_no_registers(self):
        func = no_registers()
        assert func.reg_count == 0
        assert copyprop(func) == PassResult(changed=False, work=2)
        assert fold_cast_chains(func) == PassResult(changed=False, work=1)
        assert dce(func) == PassResult(changed=False, work=1)
        assert live_ranges(func) == {}
        verify_function(func)

    def test_parameters_only(self):
        func = parameters_only()
        assert func.reg_count == 2
        assert copyprop(func) == PassResult(changed=False, work=2)
        assert fold_cast_chains(func) == PassResult(changed=False, work=1)
        assert dce(func) == PassResult(changed=False, work=1)
        a, b = func.params
        assert live_ranges(func) == {a: (-1, 0), b: (-1, -1)}
        verify_function(func)

    def test_defined_never_used(self):
        func = defined_never_used()
        assert copyprop(func) == PassResult(changed=False, work=10)
        # The outer cast absorbs the inner one, which dies with it.
        assert fold_cast_chains(func) == PassResult(changed=True,
                                                    work=5 + 1)
        # One counting walk over the five instructions, then one pop
        # per instruction removed: both casts, the add and the move
        # (it was 5 + 1: a second use scan to see nothing else died).
        assert dce(func) == PassResult(changed=True, work=5 + 4)
        assert [type(i).__name__ for i in func.entry.instrs] == ["Ret"]
        verify_function(func)


# ---------------------------------------------------------------------------
# the invariant behind the tables
# ---------------------------------------------------------------------------

class TestRegisterInvariant:
    def test_reg_count_counts_every_register(self):
        func = defined_never_used()
        assert func.reg_count == 5
        func.new_reg(ty.I32)
        assert func.reg_count == 6

    def test_rejects_id_outside_the_function(self):
        other = Function("other", ty.I32)
        for _ in range(4):
            foreign = other.new_reg(ty.I32)
        func = parameters_only()
        func.entry.instrs[-1].srcs[0] = foreign
        with pytest.raises(IRVerifyError, match="outside the function"):
            verify_function(func)

    def test_rejects_two_objects_with_one_id(self):
        func = parameters_only()
        twin = VReg(func.params[0].id, ty.I32, "twin")
        assert twin == func.params[0] and twin is not func.params[0]
        func.entry.instrs[-1].srcs[0] = twin
        with pytest.raises(IRVerifyError, match="share id 0"):
            verify_function(func)


# ---------------------------------------------------------------------------
# when PassManager runs the verifier
# ---------------------------------------------------------------------------

def break_ir(func) -> None:
    """Drop the terminator of the entry block."""
    func.entry.instrs.pop()


def quiet(func) -> PassResult:
    return PassResult(work=1)


class TestVerifyWhenChanged:
    def test_changing_pass_is_blamed_by_name(self):
        def vandal(func):
            break_ir(func)
            return PassResult(changed=True, work=1)

        manager = PassManager([("quiet", quiet), ("vandal", vandal)],
                              verify=True)
        with pytest.raises(AssertionError,
                           match=r"pass 'vandal' \(or quiet, .*\) "
                                 r"broke 'f'.*lacks a terminator"):
            manager.run(parameters_only())
        assert [r.name for r in manager.stats.records] == \
            ["quiet", "vandal"]

    def test_silent_mutation_is_caught_when_run_ends(self):
        ran = []

        def sneak(func):
            ran.append("sneak")
            if len(ran) == 1:
                break_ir(func)
            return PassResult(work=1)

        def after(func):
            ran.append("after")
            return PassResult(work=1)

        manager = PassManager([("sneak", sneak), ("after", after)],
                              verify=True)
        with pytest.raises(AssertionError,
                           match=r"reported no change \(one of sneak, "
                                 r"after\) broke 'f'"):
            manager.run(parameters_only())
        assert ran == ["sneak", "after"]    # raised at the end of run()

    def test_malformed_input_raises_before_any_pass(self):
        ran = []
        func = parameters_only()
        break_ir(func)
        manager = PassManager([("spy", lambda f: ran.append(f) or
                                PassResult())], verify=True)
        with pytest.raises(AssertionError,
                           match="entered the pipeline malformed"):
            manager.run(func)
        assert ran == []
        PassManager([("spy", quiet)]).run(func)     # verify=False: silent

    def test_verifier_runs_once_per_change_plus_two(self, monkeypatch):
        """On entry, after each changing pass, once at the end — never
        after an unchanged pass in between, and never for a pass the
        manager skipped (a skipped pass leaves no record)."""
        calls = []
        real = pass_manager.verify_function
        monkeypatch.setattr(
            pass_manager, "verify_function",
            lambda func: calls.append(func.name) or real(func))
        sources = {name: kernel.source
                   for name, kernel in ALL_KERNELS.items()}
        sources.update(REGALLOC_CORPUS)
        for source in sources.values():
            for func in lower_checked(source):
                del calls[:]
                stats = PassManager(standard_passes(),
                                    verify=True).run(func)
                changed = sum(r.changed for r in stats.records)
                ends_on_change = stats.records[-1].changed
                # Each of the pipeline's eight pass functions runs at
                # least once; no more can be promised, as an invocation
                # that could only confirm is skipped (it was 26: two
                # full rounds of thirteen, the second to confirm).
                assert len(stats.records) >= 8
                assert {r.name.split(".")[0] for r in stats.records} \
                    == {name.split(".")[0]
                        for name, _ in standard_passes()}
                assert len(calls) == changed + 2 - ends_on_change
