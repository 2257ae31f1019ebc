"""Shipped facts are checked by the pass that consumes them.

The VM tier-2 lane/tuple rules are stated once
(:class:`repro.analysis.passes.LaneRules`) and called by two walks:
the analysis fixpoint that computes a table and the emitter that
generates code under one.  These tests replace the prose contract
that used to tie two hand-kept copies together:

* the tables of the workload corpus are pinned, as the parent commit
  (the last one with the separate copy) computed them;
* on instruction-level mutants of the corpus the emitter is the
  oracle of the analysis: the fixpoint always returns, the emitter's
  own pass accepts its table, and what still verifies runs the same
  on tier-2 as on the reference;
* past an instruction whose lowering raises, the table only grows in
  the conservative direction;
* a table that is not an invariant of the code it is attached to (a
  foreign sidecar) makes tier-2 decline, never changes a result.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis.facts import (
    FACTS_SCHEMA, FunctionFacts, bytecode_facts, facts_to_wire,
)
from repro.analysis.passes import lane_fixpoint
from repro.bytecode.encode import decode_module, encode_module
from repro.bytecode.module import BytecodeFunction, BytecodeModule
from repro.bytecode.opcodes import ALL_OPS, BCInstr, CMP_PREDS, TYPE_TAGS
from repro.bytecode.varint import read_bytes, write_bytes
from repro.bytecode.verifier import verify_module
from repro.core import offline_compile
from repro.engine import CodegenEnv, FAST, REFERENCE, TIER2
from repro.semantics import Memory, TrapError
from repro.service import deserialize_artifact, serialize_artifact
from repro.service.cache import ARTIFACT_MAGIC
from repro.vm import VM, threaded
from repro.workloads import ALL_KERNELS

N = 16
FUEL = 4000
MEMORY_BYTES = 1 << 16
MUTANTS_PER_FUNCTION = 30

ARTIFACTS = {name: offline_compile(kernel.source, name)
             for name, kernel in sorted(ALL_KERNELS.items())}

#: (kernel, flavour, module, function): 11 kernels x 2 flavours
CORPUS = [(name, flavour, module, func)
          for name, artifact in ARTIFACTS.items()
          for flavour, module in (("bytecode", artifact.bytecode),
                                  ("scalar", artifact.scalar_bytecode))
          for func in module.functions.values()]

#: ``(tuple_locals, lane_locals, access_widths)`` of the corpus as
#: commit 440c856 computed them, with its separate abstract
#: interpreter: the shared rules must not move one
PINNED_TABLES = {
    "dscal_fp/bytecode/dscal": ([], [(1, 2), (8, 2)], [8, 16]),
    "dscal_fp/scalar/dscal": ([], [], [8]),
    "fir/bytecode/fir": ([], [], [4]),
    "fir/scalar/fir": ([], [], [4]),
    "histogram/bytecode/hist": ([], [], [1, 4]),
    "histogram/scalar/hist": ([], [], [1, 4]),
    "max_u8/bytecode/max_u8": ([], [(7, 16)], [1, 16]),
    "max_u8/scalar/max_u8": ([], [], [1]),
    "minmax_i32/bytecode/spread": ([], [(9, 4), (27, 4)], [4, 16]),
    "minmax_i32/scalar/spread": ([], [], [4]),
    "prefix_sum/bytecode/prefix": ([], [], [4]),
    "prefix_sum/scalar/prefix": ([], [], [4]),
    "saxpy_fp/bytecode/saxpy": (
        [10, 12], [(1, 4), (9, 4), (10, 4), (11, 4), (12, 4)], [4, 16]),
    "saxpy_fp/scalar/saxpy": ([], [], [4]),
    "sdot/bytecode/sdot": ([8], [(8, 4), (10, 4), (11, 4)], [4, 16]),
    "sdot/scalar/sdot": ([], [], [4]),
    "sum_u16/bytecode/sum_u16": ([], [(8, 8)], [2, 16]),
    "sum_u16/scalar/sum_u16": ([], [], [2]),
    "sum_u8/bytecode/sum_u8": ([], [(7, 16)], [1, 16]),
    "sum_u8/scalar/sum_u8": ([], [], [1]),
    "vecadd_fp/bytecode/vecadd": (
        [8, 11], [(8, 4), (10, 4), (11, 4)], [4, 16]),
    "vecadd_fp/scalar/vecadd": ([], [], [4]),
}


def _table(func):
    tuple_locals, lane_locals, widths = lane_fixpoint(func)
    return (sorted(tuple_locals), sorted(lane_locals.items()),
            sorted(widths))


def test_corpus_tables_are_the_parents():
    computed = {f"{name}/{flavour}/{func.name}": _table(func)
                for name, flavour, _, func in CORPUS}
    assert computed == PINNED_TABLES


# ---------------------------------------------------------------------------
# the emitter is the oracle of the analysis
# ---------------------------------------------------------------------------

#: what an edit draws from when it does not borrow from a neighbour:
#: locals in and out of range, predicates, tags, a reduce pair, and
#: values no operand, tag or opcode may be
OPERANDS = [0, 1, 7, 99, -1, 2.5, None, "x", ("mul", "f32"),
            *CMP_PREDS, *TYPE_TAGS]
TAGS = [*TYPE_TAGS, None, "bogus"]
OPS = [*ALL_OPS, "bogus"]


def _mutate(func: BytecodeFunction, rng: random.Random) -> BytecodeFunction:
    """One or two instruction-level edits: opcode, type tag or
    operand replaced (by another instruction's, three times in four,
    so that some mutants still verify); two instructions swapped; one
    deleted; one duplicated."""
    code = [BCInstr(i.op, i.ty, i.arg) for i in func.code]

    def draw(field, pool):
        if rng.randrange(4):
            return getattr(rng.choice(code), field)
        return rng.choice(pool)

    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(code))
        edit = rng.randrange(6)
        if edit == 0:
            code[at].op = draw("op", OPS)
        elif edit == 1:
            code[at].ty = draw("ty", TAGS)
        elif edit == 2:
            code[at].arg = draw("arg", OPERANDS)
        elif edit == 3:
            other = rng.randrange(len(code))
            code[at], code[other] = code[other], code[at]
        elif edit == 4 and len(code) > 1:
            del code[at]
        else:
            code.insert(at, BCInstr(code[at].op, code[at].ty,
                                    code[at].arg))
    return BytecodeFunction(func.name, list(func.param_types),
                            func.ret_type, list(func.local_types),
                            list(func.frame_slots), code)


def _emitter_accepts(func, table) -> None:
    """Lower every block of ``func`` for tier-2 under ``table`` (a
    block that cannot be lowered keeps no arm) and let the pass judge
    the table: silent, or ``ValueError``."""
    tuple_locals, lane_locals, widths = table
    facts = FunctionFacts("bytecode", func.name,
                          tuple_locals=tuple_locals,
                          lane_locals=lane_locals, access_widths=widths)
    low = threaded._BytecodeLowering(func)
    low.env = CodegenEnv({})
    low.begin_tier2(facts)
    for leader, length in low.blocks.items():
        try:
            low.lower(leader, length, low.tier2_tier)
        except Exception:       # malformed on purpose: any error is
            pass                # "this block stays in the block tier"
    low.check_facts(facts)


def _observe(module, kernel, engine):
    """Everything an engine lets a caller see of one kernel run."""
    memory = Memory(MEMORY_BYTES)
    run = kernel.prepare(memory, N)
    vm = VM(module, memory=memory, engine=engine, fuel=FUEL,
            verify=False)
    try:
        outcome = ("ok", repr(vm.call(kernel.entry, run.args)))
    except TrapError as exc:
        outcome = ("trap", str(exc))
    return outcome, bytes(memory.data), vm.instructions_executed


def _admitted(module):
    """``module`` as a device would receive it (off the wire, then
    verified), or ``None``: hand-built instructions can hold operands
    no encoding has, which the verifier does not look at."""
    try:
        module = decode_module(encode_module(module))
        verify_module(module)
    except Exception:           # garbage in, any rejection out
        return None
    return module


def test_emitter_accepts_the_table_of_every_mutant():
    verified = 0
    for name, flavour, module, func in CORPUS:
        rng = random.Random(f"{name}/{flavour}")
        for _ in range(MUTANTS_PER_FUNCTION):
            mutant = _mutate(func, rng)
            listing = (name, flavour, [repr(i) for i in mutant.code])
            try:
                table = lane_fixpoint(mutant)
                _emitter_accepts(mutant, table)
            except Exception as exc:
                raise AssertionError(listing) from exc
            admitted = _admitted(
                BytecodeModule(module.name, {mutant.name: mutant}))
            if admitted is None:
                continue
            verified += 1
            oracle = _observe(admitted, ALL_KERNELS[name], REFERENCE)
            assert _observe(admitted, ALL_KERNELS[name], TIER2) \
                == oracle, listing
    # about one mutant in six still verifies: the run half is not
    # vacuous
    assert verified >= len(CORPUS)


# ---------------------------------------------------------------------------
# past an instruction the emitter cannot lower, facts only grow
# ---------------------------------------------------------------------------

_I = BCInstr
_TUPLE_STORE = [_I("ldarg", None, 0), _I("vec.load", "f32"),
                _I("stloc", None, 0)]

#: name -> (code, the parent's table): the parent stopped its walk at
#: the instruction the emitter raises on, in lockstep; the walk now
#: continues, so it also sees the tuple store and the broken lane
#: count that follow (``brif`` ends its block: nothing follows)
RAISING_BLOCKS = {
    "frame out of range": (
        [_I("frame", None, 7), _I("pop"), *_TUPLE_STORE,
         _I("ldarg", None, 0), _I("stloc", None, 1), _I("ret")],
        ([], [(0, 4), (1, 4)], [])),
    "undefined vec.reduce op": (
        [_I("ldloc", None, 0), _I("vec.reduce", "f32", ("mul", "f32")),
         _I("pop"), *_TUPLE_STORE, _I("ret")],
        ([], [(0, 4), (1, 4)], [])),
    "brif to a non-integer": (
        [*_TUPLE_STORE, _I("const", "i32", 1), _I("brif", None, "x"),
         _I("ldarg", None, 0), _I("vec.load", "f32"),
         _I("stloc", None, 1), _I("ret")],
        ([0, 1], [(0, 4), (1, 4)], [16])),
}


@pytest.mark.parametrize("case", sorted(RAISING_BLOCKS))
def test_table_past_a_raising_instruction_is_a_superset(case):
    code, (tuples, lanes, widths) = RAISING_BLOCKS[case]
    func = BytecodeFunction("f", ["u64"], None,
                            ["v128:f32", "v128:f32"], [], code)
    now_tuples, now_lanes, now_widths = _table(func)
    assert set(now_tuples) >= set(tuples)       # may-hold-a-tuple grows
    assert set(now_lanes) <= set(lanes)         # proven lanes shrink
    assert set(now_widths) >= set(widths)       # hoisted widths grow
    _emitter_accepts(func, lane_fixpoint(func))


def test_a_forgotten_store_is_caught_by_the_emitter():
    """``check_facts`` is the validator: drop one fact from a sound
    table and the pass that would consume it refuses."""
    func = ARTIFACTS["saxpy_fp"].bytecode.functions["saxpy"]
    tuple_locals, lane_locals, widths = lane_fixpoint(func)
    _emitter_accepts(func, (tuple_locals, lane_locals, widths))
    unsound = [
        (tuple_locals - {10}, lane_locals, widths),
        (tuple_locals, {**lane_locals, 0: 4}, widths),
        (tuple_locals, lane_locals, widths - {16}),
    ]
    for table in unsound:
        with pytest.raises(ValueError, match="not an invariant"):
            _emitter_accepts(func, table)


# ---------------------------------------------------------------------------
# a foreign sidecar declines
# ---------------------------------------------------------------------------

def _with_sidecar(blob: bytes, edit) -> bytes:
    """``blob`` with ``edit(meta)`` applied to its JSON sidecar."""
    assert blob[:4] == ARTIFACT_MAGIC
    meta_raw, pos = read_bytes(blob, 4)
    meta = json.loads(meta_raw.decode("utf-8"))
    edit(meta)
    out = bytearray(ARTIFACT_MAGIC)
    write_bytes(out, json.dumps(meta, sort_keys=True).encode("utf-8"))
    return bytes(out) + blob[pos:]


def _declined_or_agrees(artifact, kernel) -> int:
    """Every function under a table from elsewhere: tier-2 declined
    (counted), or built because the table *is* an invariant here; the
    three engines agree either way and only ``TrapError`` may escape
    (``_observe`` catches nothing else)."""
    declined = 0
    for module in (artifact.bytecode, artifact.scalar_bytecode):
        for func in module.functions.values():
            pre = threaded.predecode(func, module)
            if pre.tier2(warm=True) is None:
                assert pre.tier2_declined
                declined += 1
        oracle = _observe(module, kernel, REFERENCE)
        assert _observe(module, kernel, FAST) == oracle
        assert _observe(module, kernel, TIER2) == oracle
    return declined


class TestForeignSidecar:
    def test_swapped_flavours_decline(self):
        """Same function names, different code: the scalar table
        under the vectorized code and the reverse."""
        def swap(meta):
            facts = meta["facts"]
            facts["bytecode"], facts["scalar"] = \
                facts["scalar"], facts["bytecode"]

        declined = 0
        for name, artifact in ARTIFACTS.items():
            revived = deserialize_artifact(
                _with_sidecar(serialize_artifact(artifact), swap))
            assert revived._pvi_facts_revived == 2      # accepted
            declined += _declined_or_agrees(revived, ALL_KERNELS[name])
        assert declined         # vectorized code under a scalar table

    def test_another_kernels_table_declines(self):
        """Every kernel's vectorized table grafted under every other
        kernel's function name, both flavours."""
        wires = {name: facts_to_wire(bytecode_facts(func)[0])
                 for name, artifact in ARTIFACTS.items()
                 for func in artifact.bytecode.functions.values()}
        declined = grafts = 0
        for name, artifact in ARTIFACTS.items():
            blob = serialize_artifact(artifact)
            for donor in wires.keys() - {name}:
                def graft(meta):
                    for table in (meta["facts"]["bytecode"],
                                  meta["facts"]["scalar"]):
                        for func_name in table:
                            table[func_name] = dict(wires[donor],
                                                    name=func_name)

                revived = deserialize_artifact(_with_sidecar(blob, graft))
                assert revived._pvi_facts_revived == 2
                declined += _declined_or_agrees(revived,
                                                ALL_KERNELS[name])
                grafts += 2
        # most grafts contradict the code; some tables are invariants
        # of other code too (two kernels with no vector local at all)
        assert 0 < declined < grafts

    def test_another_facts_schema_restores_nothing(self):
        def restamp(meta):
            meta["facts"]["schema"] = FACTS_SCHEMA - 1

        artifact = ARTIFACTS["saxpy_fp"]
        revived = deserialize_artifact(
            _with_sidecar(serialize_artifact(artifact), restamp))
        assert revived._pvi_facts_revived == 0
        for name, func in revived.bytecode.functions.items():
            facts, fresh = bytecode_facts(func)
            assert fresh        # recomputed on first use
            assert facts == bytecode_facts(
                artifact.bytecode.functions[name])[0]
