"""``quick_cleanup`` never runs a round only to confirm, and is still
equal to two unconditional rounds.

The oracle is written here from the public passes: ``copyprop;
fold_cast_chains; dce``, twice, whatever the first round reported
(what ``quick_cleanup`` was on every input that changed at all).  The
cleanup runs its second round only when a pass of the first reports
``reopened``; each way a first round can leave the second something
to do (DESIGN.md §3a lists them) has a hand-written function below on
which one round is *not* enough, so the signal is tested and not only
the corpus, where it never fires.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.bytecode import emit_module
from repro.bytecode.module import BytecodeModule
from repro.core import offline_compile
from repro.ir import Function
from repro.ir import instructions as ins
from repro.ir.printer import format_function
from repro.ir.values import Const
from repro.jit import peephole
from repro.jit.frontend import decode_function
from repro.jit.peephole import fold_cast_chains, quick_cleanup
from repro.jit.scalarize import scalarize_vectors
from repro.lang import types as ty
from repro.opt import copyprop, dce
from repro.targets import as_target, target_names
from repro.workloads import ALL_KERNELS
from tests.support import admit, corpus_sources, lower_checked, mutate
from tests.test_property_programs import statement_list

SOURCES = corpus_sources()

#: the targets whose images are scalarized and cleaned a second time
SCALAR_TARGETS = [target for target in map(as_target, target_names())
                  if not target.has_simd]

MUTANTS_PER_FUNCTION = 40


def one_round(func):
    copyprop(func)
    fold_cast_chains(func)
    dce(func)


def two_rounds(func):
    one_round(func)
    one_round(func)


def rounds_of_cleanup(func, monkeypatch) -> int:
    """Run ``quick_cleanup``; how many rounds did it take?"""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(peephole, "dce",
                      lambda func: calls.append(1) or dce(func))
        quick_cleanup(func)
    return len(calls)


def assert_equal_to_two_rounds(make, label):
    """``make()`` builds the input afresh for each side."""
    cleaned, oracle = make(), make()
    quick_cleanup(cleaned)
    two_rounds(oracle)
    assert format_function(cleaned) == format_function(oracle), label
    assert cleaned.reg_count == oracle.reg_count, label


def decoded(module, name):
    return decode_function(module[name], module.functions)[0]


def scalarized(module, name, target):
    func = decoded(module, name)
    quick_cleanup(func)
    scalarize_vectors(func, target)
    return func


def cleanup_inputs(module, label):
    """Every input ``compile_function`` hands the cleanup for one
    module: each function as decoded and, for the targets without
    SIMD, again after ``scalarize_vectors``."""
    for bc_func in module:
        yield (lambda f=bc_func.name: decoded(module, f),
               (label, bc_func.name))
        for target in SCALAR_TARGETS:
            yield (lambda f=bc_func.name, t=target:
                   scalarized(module, f, t), (label, bc_func.name,
                                              target.name))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_corpus_in_both_flavours_and_after_scalarize(name, monkeypatch):
    artifact = offline_compile(SOURCES[name], name)
    for flavour in ("bytecode", "scalar_bytecode"):
        for make, label in cleanup_inputs(getattr(artifact, flavour),
                                          flavour):
            assert_equal_to_two_rounds(make, label)
            # ... and on compiled code one round is all it takes
            assert rounds_of_cleanup(make(), monkeypatch) == 1, label


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_mutants_that_still_verify(name):
    """Bytecode no compiler emits: the instruction-level mutants of
    ``tests/test_facts_checked.py`` that the device would admit, and
    the unoptimized emission of the same source."""
    artifact = offline_compile(SOURCES[name], name)
    raw, _ = emit_module(lower_checked(SOURCES[name]))
    for make, label in cleanup_inputs(raw, "unoptimized"):
        assert_equal_to_two_rounds(make, label)
    checked = 0
    for flavour in ("bytecode", "scalar_bytecode"):
        module = getattr(artifact, flavour)
        for bc_func in module:
            rng = random.Random(f"{name}/{flavour}/cleanup")
            for index in range(MUTANTS_PER_FUNCTION):
                mutant = mutate(bc_func, rng)
                admitted = admit(BytecodeModule(
                    module.name, {**module.functions,
                                  mutant.name: mutant}))
                if admitted is None:
                    continue
                try:
                    decoded(admitted, mutant.name)
                except Exception:       # the decoder's to reject
                    continue
                checked += 1
                for make, label in cleanup_inputs(
                        BytecodeModule(admitted.name,
                                       {mutant.name:
                                        admitted[mutant.name]}),
                        (flavour, index)):
                    assert_equal_to_two_rounds(make, label)
    assert checked >= MUTANTS_PER_FUNCTION // 8


@settings(max_examples=25, deadline=None)
@given(body=statement_list())
def test_generated_programs(body):
    source = f"""
    int f(int a, int b, int c) {{
        for (int i = 0; i < a; i++) {{
            {body}
        }}
        return a ^ b ^ c;
    }}"""
    artifact = offline_compile(source, "generated")
    raw, _ = emit_module(lower_checked(source))
    for module, label in ((artifact.bytecode, "vector"),
                          (artifact.scalar_bytecode, "scalar"),
                          (raw, "unoptimized")):
        for make, where in cleanup_inputs(module, label):
            assert_equal_to_two_rounds(make, where)


# ---------------------------------------------------------------------------
# inputs on which the second round does change something
# ---------------------------------------------------------------------------

def carried_constant():
    """``copyprop``'s block-local phase carries a constant out of a
    multi-definition local into a single-definition temporary that
    another block reads: only then is the temporary the *global*
    phase's to replace (it ran first)."""
    func = Function("f", ty.I32)
    p = func.new_param(ty.I32, "p")
    x, t, r = (func.new_reg(ty.I32) for _ in range(3))
    entry, then, done = (func.new_block(label)
                         for label in ("entry", "then", "done"))
    entry.instrs = [ins.Move(x, Const(5, ty.I32)), ins.Move(t, x),
                    ins.Branch(p, then.label, done.label)]
    then.instrs = [ins.Move(x, Const(7, ty.I32)), ins.Jump(done.label)]
    done.instrs = [ins.BinOp("add", r, t, x, ty.I32), ins.Ret(r)]
    return func


def dead_second_user():
    """A widening cast's result has two users, so the chain through it
    stands; ``dce`` then removes the dead one and the count is one."""
    func = Function("f", ty.U64)
    a = func.new_param(ty.I32, "a")
    wide, out, dead = (func.new_reg(t) for t in (ty.I64, ty.U64, ty.I64))
    func.new_block("entry").instrs = [
        ins.Cast(wide, a, ty.I32, ty.I64),
        ins.Cast(out, wide, ty.I64, ty.U64),
        ins.BinOp("add", dead, wide, Const(1, ty.I64), ty.I64),
        ins.Ret(out)]
    return func


def chain_of_three():
    """One walk folds each cast against the inner cast *as it stood
    when the walk began*: the last link of three still reads a cast."""
    func = Function("f", ty.I64)
    z = func.new_param(ty.U8, "z")
    a, b, c = (func.new_reg(t) for t in (ty.I16, ty.I32, ty.I64))
    func.new_block("entry").instrs = [
        ins.Cast(a, z, ty.U8, ty.I16), ins.Cast(b, a, ty.I16, ty.I32),
        ins.Cast(c, b, ty.I32, ty.I64), ins.Ret(c)]
    return func


def read_moved_into_reach_of_a_copy():
    """The fold moves the read of ``s`` from ``head`` into ``tail``,
    behind ``s = mov p``: the next block-local walk rewrites it."""
    func = Function("f", ty.U64)
    p = func.new_param(ty.I32, "p")
    s, wide, out = (func.new_reg(t) for t in (ty.I32, ty.I64, ty.U64))
    head, tail = func.new_block("head"), func.new_block("tail")
    head.instrs = [ins.Cast(wide, s, ty.I32, ty.I64),
                   ins.Jump(tail.label)]
    tail.instrs = [ins.BinOp("add", p, p, Const(1, ty.I32), ty.I32),
                   ins.Move(s, p), ins.Cast(out, wide, ty.I64, ty.U64),
                   ins.Ret(out)]
    return func


@pytest.mark.parametrize("make", [
    carried_constant, dead_second_user, chain_of_three,
    read_moved_into_reach_of_a_copy])
def test_second_round_runs_when_it_has_something_to_do(make, monkeypatch):
    once, twice = make(), make()
    one_round(once)
    two_rounds(twice)
    # a one-round cleanup is wrong on this input ...
    assert format_function(once) != format_function(twice)
    # ... and the cleanup knows: it is told, not confirmed
    assert_equal_to_two_rounds(make, make.__name__)
    assert rounds_of_cleanup(make(), monkeypatch) == 2


def test_nothing_to_clean_takes_one_round(monkeypatch):
    func = lower_checked("int f(int a) { return a; }")["f"]
    assert rounds_of_cleanup(func, monkeypatch) == 1
