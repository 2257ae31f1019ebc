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
  foreign annotation) makes tier-2 decline, never changes a result;
* a table that does not hold at entry, or whose payload is not a
  table at all, is refused at the door: the function computes its
  own, or the module does not decode.  Nothing is ever executed out
  of a table.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

import pytest

from repro.analysis.passes import lane_fixpoint
from repro.bytecode.annotations import Annotation, LaneFactsAnnotation
from repro.bytecode.encode import decode_module, encode_module
from repro.bytecode.module import (
    BytecodeFunction, BytecodeModule, is_vector_local,
)
from repro.bytecode.opcodes import BCInstr
from repro.bytecode.varint import read_bytes, write_bytes
from repro.core import offline_compile
from repro.engine import (
    CodegenEnv, FAST, OSR_GUARDS_ENV, REFERENCE, TIER2,
)
from repro.semantics import Memory, TrapError
from repro.service import deserialize_artifact, serialize_artifact
from repro.service.cache import ARTIFACT_MAGIC
from repro.vm import VM, threaded
from repro.workloads import ALL_KERNELS
from repro.workloads.kernels import Kernel, KernelRun
from tests.support import DECODE_REJECTIONS, admit, mutate

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


def _pin(table: LaneFactsAnnotation):
    return (sorted(table.tuple_locals), sorted(table.lane_locals.items()),
            sorted(table.access_widths))


def _shipped(module, func_name):
    """The lane tables ``module`` carries for one function."""
    return module.annotations_for(func_name, LaneFactsAnnotation)


def test_corpus_tables_are_the_parents():
    computed = {f"{name}/{flavour}/{func.name}": _pin(lane_fixpoint(func))
                for name, flavour, _, func in CORPUS}
    assert computed == PINNED_TABLES
    # what ships is what was computed: one table per function of the
    # vector flavour, none on the scalar one
    shipped = {f"{name}/{flavour}/{func.name}":
               [_pin(table) for table in _shipped(module, func.name)]
               for name, flavour, module, func in CORPUS}
    assert shipped == {key: [table] if "/bytecode/" in key else []
                       for key, table in PINNED_TABLES.items()}


# ---------------------------------------------------------------------------
# the emitter is the oracle of the analysis
# ---------------------------------------------------------------------------

def _emitter_accepts(func, table) -> None:
    """Lower every block of ``func`` for tier-2 under ``table`` (a
    block that cannot be lowered keeps no arm) and let the pass judge
    the table: silent, or ``ValueError``."""
    low = threaded._BytecodeLowering(func)
    low.env = CodegenEnv({})
    low.begin_tier2(table)
    for leader, length in low.blocks.items():
        try:
            low.lower(leader, length, low.tier2_tier)
        except Exception:       # malformed on purpose: any error is
            pass                # "this block stays in the block tier"
    low.check_facts(table)


def _observe(module, kernel, engine, **options):
    """Everything an engine lets a caller see of one kernel run."""
    memory = Memory(MEMORY_BYTES)
    run = kernel.prepare(memory, N)
    vm = VM(module, memory=memory, engine=engine, fuel=FUEL,
            verify=False, **options)
    try:
        outcome = ("ok", repr(vm.call(kernel.entry, run.args)))
    except TrapError as exc:
        outcome = ("trap", str(exc))
    return outcome, bytes(memory.data), vm.instructions_executed


def test_emitter_accepts_the_table_of_every_mutant():
    verified = 0
    for name, flavour, module, func in CORPUS:
        rng = random.Random(f"{name}/{flavour}")
        for _ in range(MUTANTS_PER_FUNCTION):
            mutant = mutate(func, rng)
            listing = (name, flavour, [repr(i) for i in mutant.code])
            try:
                table = lane_fixpoint(mutant)
                _emitter_accepts(mutant, table)
            except Exception as exc:
                raise AssertionError(listing) from exc
            admitted = admit(
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
    now_tuples, now_lanes, now_widths = _pin(lane_fixpoint(func))
    assert set(now_tuples) >= set(tuples)       # may-hold-a-tuple grows
    assert set(now_lanes) <= set(lanes)         # proven lanes shrink
    assert set(now_widths) >= set(widths)       # hoisted widths grow
    _emitter_accepts(func, lane_fixpoint(func))


def test_a_forgotten_store_is_caught_by_the_emitter():
    """``check_facts`` is the validator: drop one fact from a sound
    table and the pass that would consume it refuses."""
    func = ARTIFACTS["saxpy_fp"].bytecode.functions["saxpy"]
    table = lane_fixpoint(func)
    _emitter_accepts(func, table)
    unsound = [
        replace(table, tuple_locals=table.tuple_locals - {10}),
        replace(table, lane_locals={**table.lane_locals, 0: 4}),
        replace(table, access_widths=table.access_widths - {16}),
    ]
    for table in unsound:
        with pytest.raises(ValueError, match="not an invariant"):
            _emitter_accepts(func, table)


# ---------------------------------------------------------------------------
# a table from elsewhere declines, is refused at the door, or does not decode
# ---------------------------------------------------------------------------

def _delivered(module, tables) -> BytecodeModule:
    """``module`` shipping ``tables`` in place of its own lane tables,
    as a consumer receives it: through the real encoder and decoder
    (fresh function objects, and nothing a payload cannot say)."""
    kept = [a for a in module.annotations
            if not isinstance(a, LaneFactsAnnotation)]
    return decode_module(encode_module(
        BytecodeModule(module.name, module.functions, kept + list(tables))))


def _declined_or_agrees(module, kernels) -> int:
    """Every function under whatever table arrived with it: tier-2
    declined (counted), or built, because the table *is* an invariant
    here or was refused at the door and computed afresh; the three
    engines agree either way and only ``TrapError`` may escape
    (``_observe`` catches nothing else)."""
    declined = 0
    for func in module.functions.values():
        pre = threaded.predecode(func, module)
        if pre.tier2(warm=True) is None:
            assert pre.tier2_declined
            declined += 1
    for kernel in kernels:
        oracle = _observe(module, kernel, REFERENCE)
        assert _observe(module, kernel, FAST) == oracle
        assert _observe(module, kernel, TIER2) == oracle
    return declined


class TestForeignAnnotation:
    def test_swapped_functions_decline(self):
        """Two functions of one module, each under the other's table.
        ``fir``'s names no vector local: it holds at the entry of
        anything, and the emitter refuses it under vectorized code.
        ``saxpy``'s does not hold at the entry of ``fir``: refused at
        the door, and ``fir`` computes its own."""
        fir, saxpy = ALL_KERNELS["fir"], ALL_KERNELS["saxpy_fp"]
        module = offline_compile(fir.source + saxpy.source, "two").bytecode
        (of_fir,), (of_saxpy,) = (_shipped(module, name)
                                  for name in ("fir", "saxpy"))
        swapped = _delivered(module, [replace(of_fir, function="saxpy"),
                                      replace(of_saxpy, function="fir")])
        threaded.reset_tier2_build_stats()
        assert _declined_or_agrees(swapped.freeze(), [fir, saxpy]) == 1
        assert threaded.predecode(swapped["saxpy"], swapped).tier2_declined
        assert threaded.tier2_build_stats()["facts_warm"] == 1

    def test_another_kernels_table_declines(self):
        """Every kernel's table grafted under every other kernel's
        function name."""
        tables = {name: _shipped(artifact.bytecode, func.name)[0]
                  for name, artifact in ARTIFACTS.items()
                  for func in artifact.bytecode.functions.values()}
        declined = grafts = 0
        for name, artifact in ARTIFACTS.items():
            module = artifact.bytecode
            for donor in tables.keys() - {name}:
                grafted = _delivered(module, [
                    replace(tables[donor], function=func_name)
                    for func_name in module.functions])
                declined += _declined_or_agrees(grafted,
                                                [ALL_KERNELS[name]])
                grafts += 1
        # a graft that names no vector local holds at any entry and
        # mostly contradicts the code; one that names some is mostly
        # refused at the door; some tables are invariants of other
        # code too (two kernels with no vector local at all)
        assert 0 < declined < grafts

    def test_module_without_annotation_computes_its_table(self):
        """No table shipped (the scalar flavour, ``emit_module``
        output, a module stripped on the way): the build runs the lane
        walk itself and counts it, and generates what the annotated
        module's build generates."""
        kernel, module = ALL_KERNELS["saxpy_fp"], ARTIFACTS["saxpy_fp"].bytecode
        stats = {}
        for ships, tables in (("none", []),
                              ("own", _shipped(module, kernel.entry))):
            delivered = _delivered(module, tables)
            assert _shipped(delivered, kernel.entry) == tables
            threaded.reset_tier2_build_stats()
            assert _declined_or_agrees(delivered, [kernel]) == 0
            stats[ships] = threaded.tier2_build_stats()
        assert stats["none"]["warm"] == stats["none"]["facts_warm"] == 1
        assert stats["own"] == {**stats["none"], "facts_warm": 0}
        assert stats["own"]["guards_elided"] + stats["own"]["guards_kept"]


#: the smallest verified function with a loop: scalar locals only, no
#: memory access (so *any* width set passes the emitter's check)
INT_LOOP = Kernel(
    "int_loop", "int f(int n) { int s = 0; "
    "for (int i = 0; i < n; i++) s += i; return s; }", "f", "extra", "i32",
    False, lambda memory, n, seed: KernelRun(args=[50]))

#: subject -> (kernel, its verified and annotated module)
SUBJECTS = {
    "int loop": (INT_LOOP, offline_compile(INT_LOOP.source, "loop").bytecode),
    "saxpy": (ALL_KERNELS["saxpy_fp"], ARTIFACTS["saxpy_fp"].bytecode),
}


@dataclass
class _RawTable(Annotation):
    """A lane-table annotation with whatever payload bytes it is told."""
    raw: bytes = b""

    KIND = LaneFactsAnnotation.KIND

    def payload(self) -> bytes:
        return self.raw


def _hostile(func, honest: LaneFactsAnnotation, rng: random.Random):
    """case -> deliveries, a delivery being the lane-table annotations
    one module ships for ``func`` in place of ``honest``.  The first
    seven say something false in well-formed payloads; the last three
    are payload bytes: every proper prefix, a count larger than the
    payload, and every byte position set to 0x00, to 0xFF, with its
    continuation bit flipped and to one seeded value."""
    scalars = [index for index, tag in enumerate(func.local_types)
               if not is_vector_local(tag)]
    tuples = replace(honest, tuple_locals=frozenset(scalars[:2]))
    vector = next(iter(honest.lane_locals), scalars[0])
    raw = honest.payload()
    edits = {raw[:at] + bytes([byte]) + raw[at + 1:]
             for at, old in enumerate(raw)
             for byte in (0x00, 0xFF, old ^ 0x80, rng.randrange(256))}
    return {
        "tuple_locals naming scalar locals": [[tuples]],
        "lane_locals naming a missing local": [[replace(
            honest, lane_locals={**honest.lane_locals, 99: 4})]],
        "lane_locals naming a scalar local": [[replace(
            honest, lane_locals={**honest.lane_locals, scalars[0]: 4})]],
        "lane_locals with a wrong lane count": [[replace(
            honest, lane_locals={**honest.lane_locals, vector: 3})]],
        "widths 0 and 2**70": [[replace(
            honest, access_widths=frozenset({0, 2 ** 70}))]],
        "two annotations for one function": [[tuples, honest],
                                             [honest, tuples]],
        "an annotation for a function the module lacks": [[
            honest, replace(tuples, function="nobody")]],
        "payload truncated": [[_RawTable(func.name, raw[:cut])]
                              for cut in range(len(raw))],
        "payload count past its end": [[_RawTable(
            func.name, bytes([len(raw) + 1]) + raw[1:])]],
        "payload byte edits": [[_RawTable(func.name, edit)]
                               for edit in sorted(edits - {raw})],
    }


HOSTILE_CASES = list(_hostile(SUBJECTS["int loop"][1]["f"],
                              LaneFactsAnnotation("f"), random.Random(0)))


@pytest.mark.parametrize("guards", [None, "1"], ids=["elided", "kept"])
@pytest.mark.parametrize("subject", sorted(SUBJECTS))
@pytest.mark.parametrize("case", HOSTILE_CASES)
def test_hostile_table_declines_or_agrees(case, subject, guards,
                                          monkeypatch):
    """A table that lies, or bytes that are no table, delivered
    through the real decoder: the module does not decode (one of the
    decoder's documented rejections), or reference, fast + OSR and
    tier-2 see what the honest module's reference run sees: value or
    trap text, memory, executed count.  With the OSR fact guards
    elided and kept: a guard is generated from the table too."""
    if guards is None:
        monkeypatch.delenv(OSR_GUARDS_ENV, raising=False)
    else:
        monkeypatch.setenv(OSR_GUARDS_ENV, guards)
    kernel, module = SUBJECTS[subject]
    honest, = _shipped(module, kernel.entry)
    oracle = _observe(module, kernel, REFERENCE)
    deliveries = _hostile(module[kernel.entry], honest,
                          random.Random(f"{subject}/{case}"))[case]
    decoded = 0
    for tables in deliveries:
        try:
            delivered = _delivered(module, tables)
        except DECODE_REJECTIONS:
            continue
        decoded += 1
        assert _observe(delivered, kernel, REFERENCE) == oracle
        assert _observe(delivered, kernel, FAST, osr=True,
                        osr_threshold=2) == oracle
        assert _observe(delivered, kernel, TIER2) == oracle
    # well-formed payloads always arrive; so do some byte edits of a
    # payload that has entries to edit
    if not case.startswith("payload"):
        assert decoded == len(deliveries)
    elif case == "payload byte edits" and honest.lane_locals:
        assert decoded


def test_a_sidecar_facts_key_is_ignored(tmp_path):
    """Regression, defect (a) of the channel the tables used to travel
    in (the artifact cache's JSON sidecar): its ``access_widths``
    reached ``f"_ms{n} = _ms - {n}"`` and ``exec`` uncoerced, so a
    string there was a statement of ``_t2``.  A persisted entry that
    still carries a ``facts`` key deserializes (a reader ignores a key
    it does not know), runs, and the statement has not run."""
    marker = tmp_path / "ran"
    statement = f"0 = 0; open({str(marker)!r}, 'w').close()  #"
    wire = {"kind": "bytecode", "name": "f", "blocks": [], "reachable": [],
            "tuple_locals": [], "lane_locals": [],
            "access_widths": [statement], "param_regs": [],
            "written_at_entry": [], "ranges": [], "range_notes": [],
            "maybe_uninit": [], "dead_stores": []}

    blob = serialize_artifact(offline_compile(INT_LOOP.source, "m"))
    meta_raw, pos = read_bytes(blob, len(ARTIFACT_MAGIC))
    meta = json.loads(meta_raw.decode("utf-8"))
    assert "facts" not in meta
    #: schema 2: the last analysis plane that wrote such a block
    meta["facts"] = {"schema": 2, "bytecode": {"f": wire},
                     "scalar": {"f": wire}}
    planted = bytearray(ARTIFACT_MAGIC)
    write_bytes(planted, json.dumps(meta, sort_keys=True).encode("utf-8"))
    revived = deserialize_artifact(bytes(planted) + blob[pos:])

    for module in (revived.bytecode, revived.scalar_bytecode):
        oracle = _observe(module, INT_LOOP, REFERENCE)
        assert oracle[0] == ("ok", "1225")
        assert _observe(module, INT_LOOP, FAST, osr=True,
                        osr_threshold=2) == oracle
        assert _observe(module, INT_LOOP, TIER2) == oracle
    assert not marker.exists()
