"""Counted tier-2 loops (:mod:`repro.counted`).

A fused loop whose header tests ``iv < bound`` and whose latch steps
``iv += c`` is compiled as a ``for iv in range(iv, bound, c)`` with no
fuel compare, no exit test and no bounds check or wrap on a value
affine in ``iv``, under one guard at loop entry that checks those
values on the first and the last trip; an integer reduction folds
every trip but the last into one builtin.  A state the guard refuses
deopts at the header, the block tier runs it, and OSR re-enters the
counted version once the state heals.  Either way every engine
(reference, block tier, tier-2, the block tier entering tier-2
mid-loop by OSR, and tier-2 re-entered by OSR after a deopt) observes
the same value, memory, instruction and cycle counts and trap.  The
hand-picked cases sit on both sides of each clause of the guard, on
the VM and x86; two hypothesis generators draw more, the second over
stores, ``a[i - 1]``, reductions and IV-derived values left behind,
four element types, bases at the edges of memory, of the base range
and of the address space, the VM and all six native targets, and the
``split`` and ``online-only`` flows.  ``tests/guard_mutants.py``
drops each clause of the guard in turn: this file must fail on every
one."""

from __future__ import annotations

import functools
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tiering, tiers
from repro.analysis.intervals import Affine
from repro.bytecode import BCInstr
from repro.bytecode.module import BytecodeFunction, BytecodeModule
from repro.counted import (
    BASE_LIMIT, I32_LIMIT, Access, Induction, counted_loop, fold_of,
)
from repro.core import deploy, offline_compile, select_bytecode
from repro.jit import compile_for_target
from repro.engine import FAST, REFERENCE, TIER2, CodegenEnv
from repro.lang import types as ty
from repro.semantics import Memory, TrapError
from repro.semantics.kernels import inline_binop
from repro.semantics.memory import NULL_GUARD
from repro.targets import Simulator, dispatch, target_names
from repro.targets.isa import CompiledFunction, CompiledModule, MInst
from repro.vm import VM, threaded
from repro.workloads import ALL_KERNELS
from tests.test_engine_differential import ENGINES, assert_engines_agree

#: ``a[i]`` read and written each trip: memory, a bounds check and an
#: IV-derived address over a loop-invariant base
ARRAY = """
int f(int *a, int start, int n) {
    int s = 0;
    for (int i = start; i < n; i += %d) {
        s += a[i];
        a[i] = s - i;
    }
    return s;
}
"""

#: no memory at all: only the induction and an accumulator
SUM = """
int f(int start, int n) {
    int s = 0;
    for (int i = start; i < n; i += %d)
        s += i;
    return s;
}
"""

MEMORY_BYTES = 1024
ELEMENTS = 40


@functools.lru_cache(maxsize=None)
def images(source: str, step: int):
    """``{machine: image}`` of ``source`` with the loop's step."""
    artifact = offline_compile(source % step, "counted")
    return {"vm": select_bytecode(artifact, "split"),
            "x86": deploy(artifact, "x86", "split")}


def array_memory():
    """``(memory, base)``: ``ELEMENTS`` i32 at ``base`` of a fresh
    ``MEMORY_BYTES`` memory."""
    memory = Memory(MEMORY_BYTES)
    return memory, memory.alloc_array(ty.I32, range(3, 3 + ELEMENTS))


def filled_memory():
    """``(memory, None)``: every byte of a fresh memory holds data, so
    a run that reads past an array reads the same bytes on every
    engine, up to the last byte."""
    memory = Memory(MEMORY_BYTES)
    memory.data[:] = bytes((k * 37 + 11) & 0xFF
                           for k in range(MEMORY_BYTES))
    return memory, None


def past_entry(machine):
    """``machine``, entered past the check of argument values.  The
    public entry refuses an integer argument outside its parameter's
    type (``TieredMachine._entry``; ``tests/test_engine_differential.py``
    holds every engine to that), but a guard must be sound for
    whatever a frame holds: the rows that put ``2**40`` in an ``int``
    reach the clauses that refuse it this way."""
    machine._entry = lambda name, args: machine.module.functions[name]
    return machine


def run(machine: str, image, args, engine: str, fuel=None,
        fill=array_memory, **knobs):
    """One call of ``f``, entered :func:`past_entry`: its outcome,
    counts and all of memory.  ``fill`` makes the memory and an
    array's address, which ``args`` maps to the argument list."""
    memory, base = fill()
    fuel = {} if fuel is None else {"fuel": fuel}
    if machine == "vm":
        vm = past_entry(VM(image, memory, engine=engine, **fuel, **knobs))
        try:
            got = ("ok", vm.call("f", args(base)))
        except TrapError as exc:
            got = ("trap", str(exc))
        return got + (vm.instructions_executed, bytes(memory.data)), vm
    sim = past_entry(Simulator(image, memory, engine=engine, **fuel,
                               **knobs))
    try:
        result = sim.run("f", args(base))
        got = ("ok", result.value, result.instructions, result.cycles,
               result.branches)
    except TrapError as exc:
        got = ("trap", str(exc))
    return got + (sim._executed, bytes(memory.data)), sim


def predecoded(machine: str, image, name: str = "f"):
    func = image.functions[name]
    if machine == "vm":
        return threaded.predecode(func, image)
    return dispatch.predecode_machine(func, image)


def agree(machine: str, image, args, fuel=None,
          fill=array_memory) -> tuple:
    """Reference / block tier / tier-2, tier-2 re-entered by OSR
    after a deopt, and the block tier entering a fresh translation at
    the loop header by OSR: one observation, and the ``osr_entries``
    of the two OSR runs."""
    outcomes = {engine: run(machine, image, args, engine, fuel, fill)[0]
                for engine in ENGINES}
    outcomes["reentry"], reentered = run(machine, image, args, TIER2,
                                         fuel, fill, osr=True,
                                         osr_threshold=2)
    pre = predecoded(machine, image)
    pre._tier2 = tiering._TIER2_UNBUILT       # else entered at pc 0
    outcomes["osr"], entered = run(machine, image, args, FAST, fuel,
                                   fill, osr=True, osr_threshold=2)
    assert_engines_agree(outcomes, f"{machine} fuel={fuel}")
    return outcomes[REFERENCE], {"reentry": reentered.osr_entries,
                                 "osr": entered.osr_entries}


@pytest.fixture(params=["vm", "x86"])
def machine(request):
    return request.param


def test_both_machines_count_the_loop(machine):
    """The shapes under test do run counted (else this file would
    test the ``while`` form)."""
    engine = threaded if machine == "vm" else dispatch
    for source in (ARRAY, SUM):
        for step in (1, 2, 4):
            engine.reset_tier2_build_stats()
            image = images(source, step)[machine]
            assert predecoded(machine, image).tier2(warm=True) \
                is not None
            stats = engine.tier2_build_stats()
            assert stats["loops_counted"] == stats["loops_fused"] == 1


@pytest.mark.parametrize("step", [1, 2, 4])
@pytest.mark.parametrize("start, n", [(0, ELEMENTS), (1, ELEMENTS - 3),
                                      (5, 5), (9, 5)],
                         ids=["full", "ragged", "zero trips", "empty"])
def test_steps_and_trip_counts(machine, step, start, n):
    got, entries = agree(machine, images(ARRAY, step)[machine],
                         lambda base: [base, start, n])
    assert got[0] == "ok"
    assert entries["reentry"] == 0          # the guard admitted it
    if n - start >= 4 * step:
        assert entries["osr"] == 1


@pytest.mark.parametrize("start, n, fuel, heals", [
    (-1, 10, None, True),           # negative start: refused, deopts,
    (-3, 10, None, True),           # ... and OSR re-enters at iv >= 0
    (2**31 - 5, 2**31 - 1, None, False),    # bound past 2**31 - c
    (2**31 - 4, 2**31 - 1, 900, False),     # ... and i wraps
], ids=["negative start -1", "negative start", "bound at the i32 edge",
      "i32 wrap"])
def test_guard_refusals_on_the_induction(machine, start, n, fuel, heals):
    """A refused state deopts at the header and the block tier runs
    it.  Tier-2 entered at pc 0 re-enters the counted version by OSR
    where the state heals: by the second back edge a negative start
    has counted up past 0, which the bound never does."""
    got, entries = agree(machine, images(SUM, 2)[machine],
                         lambda base: [start, n], fuel)
    assert got[0] == ("trap" if fuel else "ok")
    assert (entries["reentry"] >= 1) == heals


def test_refusal_that_does_not_heal_is_retired(machine):
    """Fuel 50 short of the loop is refused at every entry: the block
    tier traps on the reference's instruction, and the refused OSR
    entry is retired for the call, never counted as an entry."""
    image = images(SUM, 1)[machine]

    def args(base):
        return [0, 100]

    want, _ = agree(machine, image, args)
    got, entries = agree(machine, image, args, want[-2] - 50)
    assert got[0] == "trap" and "fuel" in got[1]
    assert entries == {"reentry": 0, "osr": 0}


def test_negative_index_traps_alike(machine):
    got, _ = agree(machine, images(ARRAY, 1)[machine],
                   lambda base: [base, -3, 10])
    assert got[0] == "trap" and "out of bounds" in got[1]


def test_out_of_bounds_at_iteration_k(machine):
    """The loop runs off the end of memory: a trap in trip k of the
    counted body is debited exactly k trips plus the rolled-back part
    of the latch."""
    for step in (1, 4):
        got, _ = agree(machine, images(ARRAY, step)[machine],
                       lambda base: [base, 0, MEMORY_BYTES])
        assert got[0] == "trap" and "out of bounds" in got[1]


def test_base_pointer_past_2_62_wraps_like_the_ladder(machine):
    """A base near 2**64 whose sum with the offset wraps back into
    memory: the guard refuses it, so the block tier's 64-bit mask
    keeps the access in bounds, as on the reference."""
    wrap = 2**64 - 16

    def args(base):
        start = (base + 16) // 4
        return [wrap, start, start + ELEMENTS]

    got, _ = agree(machine, images(ARRAY, 1)[machine], args)
    assert got[0] == "ok"


def test_fuel_ending_mid_loop(machine):
    """Every fuel value up to past the total: where the fuel does not
    cover every trip the guard refuses and the metered block tier
    traps on exactly the reference's instruction; where it does, the
    counted version runs and debits the same total."""
    image = images(ARRAY, 2)[machine]

    def args(base):
        return [base, 1, 13]

    want, _ = agree(machine, image, args)
    total = want[-2]
    for fuel in range(total + 2):
        got, _ = agree(machine, image, args, fuel)
        assert (got[0] == "ok") == (fuel >= total)


#: what each source's ``f`` takes, given the array and the loop
ARGUMENTS = {SUM: lambda base, start, n: [start, n],
             ARRAY: lambda base, start, n: [base, start, n]}


@functools.lru_cache(maxsize=None)
def period(machine: str, source: str, step: int) -> int:
    """Instructions of one trip of the loop (its header plus latch),
    from two reference runs a trip apart."""
    image = images(source, step)[machine]
    counts = [run(machine, image,
                  lambda base: ARGUMENTS[source](base, 0, trips * step),
                  REFERENCE)[0][-2] for trips in (1, 2)]
    return counts[1] - counts[0]


@pytest.mark.parametrize("machine", ["vm", "x86"])
@pytest.mark.parametrize("source", [SUM, ARRAY], ids=["SUM", "ARRAY"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_guard_edges_generated(machine, source, data):
    """Drawn across the guard's clauses: a step, a start near 0 or
    within 3 of the i32 edge ``2**31 - step``, 0..40 trips (the bound
    kept an i32, so a start at the edge may wrap), and a fuel within
    two trips either side of what the call executes (a wrapping loop
    runs until a cap of 50 trips)."""
    step = data.draw(st.sampled_from([1, 2, 3, 4, 8]), "step")
    edge = I32_LIMIT - step
    start = data.draw(st.integers(-3, 3) | st.integers(
        edge - 3, min(edge + 3, I32_LIMIT - 1)), "start")
    n = min(start + data.draw(st.integers(0, 40), "trips") * step,
            I32_LIMIT - 1)
    image = images(source, step)[machine]
    trip = period(machine, source, step)

    def args(base):
        return ARGUMENTS[source](base, start, n)

    budget = run(machine, image, args, REFERENCE, 50 * trip)[0][-2]
    agree(machine, image, args, max(0, budget + data.draw(
        st.integers(-2 * trip, 2 * trip), "fuel slack")))


#: the widened generator's loops over ``{T} *a``: a store, a read of
#: ``a[i - 1]``, the add / min / max reductions the offline compiler
#: vectorizes, three that look like them, and three that leave an
#: IV-derived value behind; ``s0`` starts the accumulator
SHAPES = {
    "store": """
int f({T} *a, int s0, int start, int n) {{
    for (int i = start; i < n; i++)
        a[i] = s0 + i;
    return n;
}}
""",
    "prev": """
int f({T} *a, int s0, int start, int n) {{
    for (int i = start; i < n; i++)
        a[i] = a[i] + a[i - 1];
    return n;
}}
""",
    "add": """
int f({T} *a, int s0, int start, int n) {{
    int s = s0;
    for (int i = start; i < n; i++)
        s += a[i];
    return s;
}}
""",
    "max": """
int f({T} *a, int s0, int start, int n) {{
    int m = s0;
    for (int i = start; i < n; i++)
        if (a[i] > m)
            m = a[i];
    return m;
}}
""",
    "min": """
int f({T} *a, int s0, int start, int n) {{
    int m = s0;
    for (int i = start; i < n; i++)
        if (a[i] < m)
            m = a[i];
    return m;
}}
""",
    # a sum that also stores, one that walks down, and one over every
    # other element: each reduces into one accumulator, none may fold
    "scan": """
int f({T} *a, int s0, int start, int n) {{
    int s = s0;
    for (int i = start; i < n; i++) {{
        s += a[i];
        a[i] = s;
    }}
    return s;
}}
""",
    "reverse": """
int f({T} *a, int s0, int start, int n) {{
    int s = s0;
    for (int i = start; i < n; i++)
        s += a[start + n - 1 - i];
    return s;
}}
""",
    "stride": """
int f({T} *a, int s0, int start, int n) {{
    int s = s0;
    for (int i = start; i < n; i++)
        s += a[2 * i];
    return s;
}}
""",
    # what the loop leaves behind: the i32 ``i + s0`` (its wrap is a
    # guard clause), and ``(long) s0 + i`` (no wrap while ``s0`` is in
    # the base range), read through an arithmetic shift, which keeps
    # the sign a wrap would flip
    "offset": """
int f({T} *a, int s0, int start, int n) {{
    int k = 0;
    for (int i = start; i < n; i++) {{
        k = i + s0;
        a[i] = k;
    }}
    return k;
}}
""",
    "wide": """
int f({T} *a, int s0, int start, int n) {{
    long w = 0;
    for (int i = start; i < n; i++) {{
        w = (long) s0 + i;
        a[i] = i;
    }}
    return (int) (w >> 40);
}}
""",
    # ``(unsigned long) i`` is the identity only while ``0 <= i``: a
    # negative start leaves a u64 behind that a float conversion shows
    "unsigned": """
int f({T} *a, int s0, int start, int n) {{
    unsigned long u = 0;
    for (int i = start; i < n; i++) {{
        u = i;
        a[i] = s0;
    }}
    return (int) ((double) u / 1e18);
}}
""",
}

#: element type -> (MiniC spelling, bytes)
ELEMENT_TYPES = {"u8": ("unsigned char", 1), "u16": ("unsigned short", 2),
            "i32": ("int", 4), "f32": ("float", 4)}

#: the VM, then every native target (the wasm32 stack image runs on the
#: VM: its loops are the VM's)
MACHINES = ("vm",) + tuple(t for t in target_names() if t != "wasm32")
FLOWS = ("split", "online-only")


@functools.lru_cache(maxsize=None)
def shaped_artifact(shape: str, elem: str):
    return offline_compile(
        SHAPES[shape].format(T=ELEMENT_TYPES[elem][0]), "gen")


@functools.lru_cache(maxsize=None)
def shaped_image(shape: str, elem: str, machine: str, flow: str):
    artifact = shaped_artifact(shape, elem)
    if machine == "vm":
        return select_bytecode(artifact, flow)
    return deploy(artifact, machine, flow)


#: where the array starts: inside memory; so that its last element
#: sits at, or one element past, the end of memory; below the null
#: guard; near ``2**62`` (the base range's edge); near ``2**64``, where
#: ``a + size * start`` wraps back into memory; and below ``size *
#: -start`` for a negative start, where the first address wraps below
#: zero
BASES = ("inside", "end", "null", "huge", "wrap", "low")

#: accumulator starts: small, at either i32 edge, outside i32, and at
#: the i64 edge
STARTS = (0, 7, -5, 2**31 - 3, -2**31 - 5, 2**40, -2**40, 2**63 - 4)


@pytest.mark.parametrize("machine", MACHINES)
@settings(max_examples=24, deadline=None, derandomize=True)
@given(data=st.data())
def test_shapes_generated(machine, data):
    """Drawn over the shapes, element types and flows, the bases above,
    0..48 trips (now and then a float bound), an accumulator start in
    or out of i32, and a fuel either unlimited or within a few trips of
    what the call executes: every engine agrees three-way, with OSR at
    the header."""
    shape = data.draw(st.sampled_from(sorted(SHAPES)), "shape")
    elem = data.draw(st.sampled_from(sorted(ELEMENT_TYPES)), "elem")
    flow = data.draw(st.sampled_from(FLOWS), "flow")
    where = data.draw(st.sampled_from(BASES), "base")
    size = ELEMENT_TYPES[elem][1]
    start = data.draw(st.integers(0, 3), "start")
    trips = data.draw(st.integers(0, 48), "trips")
    if where == "inside":
        base = 256
        start -= data.draw(st.sampled_from([0, 4]), "negative")
    elif where == "end":
        base = MEMORY_BYTES - (start + trips) * size \
            + data.draw(st.integers(-1, 1), "past") * size
    elif where == "null":
        base = data.draw(st.integers(0, NULL_GUARD - 1), "null base")
    elif where == "huge":
        base = BASE_LIMIT + data.draw(st.integers(-2, 2)) * size
    elif where == "wrap":
        back = data.draw(st.integers(1, 8)) * size
        base, start = 2**64 - back, (back + 128) // size
    else:
        start = data.draw(st.integers(-3, -1), "negative start")
        base = data.draw(st.integers(0, size * -start - 1), "low base")
    s0 = data.draw(st.sampled_from(STARTS), "s0")
    n = start + trips
    if shape != "reverse" and data.draw(st.integers(0, 9), "float") == 0:
        n += 0.5    # refused by the type clause ("reverse" indexes by n)
    image = shaped_image(shape, elem, machine, flow)

    def args(_):
        return [base, s0, start, n]

    fuel = None
    if data.draw(st.booleans(), "metered"):
        total = run(machine, image, args, REFERENCE, 10**6,
                    filled_memory)[0][-2]
        fuel = max(0, total + data.draw(st.integers(-40, 40), "slack"))
    agree(machine, image, args, fuel, filled_memory)


@pytest.mark.parametrize("machine", ["vm", "x86"])
@pytest.mark.parametrize("shape, elem, args, clause", [
    ("add", "i32", [16, 0, 0, 8], "the first address below the null "
     "guard"),
    ("add", "i32", [256, 0, 0, 8.5], "a float bound"),
    ("unsigned", "i32", [256, 0, -3, -1], "a negative start"),
    ("offset", "i32", [256, 2**31 - 3, 0, 8], "i + s0 past the i32 top"),
    ("offset", "i32", [256, -2**31 - 5, 0, 3], "i + s0 below the i32 "
     "bottom"),
    ("wide", "i32", [256, 2**63 - 4, 0, 8], "(long) s0 past the base "
     "range"),
    ("max", "i32", [256, 2**40, 0, 40], "a max accumulator outside i32"),
    ("min", "i32", [256, -2**40, 0, 40], "a min accumulator outside i32"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_new_clauses_refuse(machine, shape, elem, args, clause):
    """One state per clause the guard gained with hoisting and the
    fold, refused by that clause alone: each runs in the block tier,
    as the reference does, and gives the reference's answer."""
    image = shaped_image(shape, elem, machine, "split")
    got, _ = agree(machine, image, lambda _: args, fill=filled_memory)
    assert (got[0] == "trap") == ("null" in clause), got[:2]


#: the tier-2 build counters of ``exec_steady``'s 44 entry functions
#: (every kernel on the VM, x86, sparc and arm, under ``split``): the
#: 7 fused loops not counted are sparc headers that reload the IV from
#: a spill slot; the 4 checked accesses are ``histogram``'s
#: ``hist[data[i]]``, which is not affine, once per machine
EXEC_STEADY_BUILDS = {"loops_fused": 84, "loops_ladder": 4,
                      "loops_counted": 77, "loops_folded": 30,
                      "accesses_hoisted": 172, "accesses_checked": 4}


def test_every_exec_steady_kernel_counts(monkeypatch):
    """Every kernel the ``exec_steady`` workload runs has a counted
    loop in its VM and its x86 tier-2 source, and no counted loop of
    them keeps a per-trip check on an affine access; the build
    counters of all 44 entry functions are pinned."""
    loops = []
    def spy(low, header, latch):
        loop = counted_loop(low, header, latch)
        if loop is not None:
            loops.append(loop)
        return loop

    monkeypatch.setattr(tiers, "counted_loop", spy)
    for engine in (threaded, dispatch):
        engine.reset_tier2_build_stats()
    for name, kernel in ALL_KERNELS.items():
        artifact = offline_compile(kernel.source, name)
        for machine in ("vm", "x86", "sparc", "arm"):
            image = artifact.bytecode if machine == "vm" else \
                compile_for_target(artifact.bytecode, machine, "split")
            loops.clear()
            for func in image.functions:
                pre = predecoded(machine, image, func)
                pre._tier2 = tiering._TIER2_UNBUILT
                assert pre.tier2(warm=True) is not None
            if machine not in ("vm", "x86"):
                continue
            assert loops, (name, machine)
            # Every access of a counted latch is affine and hoisted,
            # but histogram's bin, whose address is a loaded value.
            assert sum(loop.checked for loop in loops) \
                == (name == "histogram"), (name, machine)
    stats = [engine.tier2_build_stats() for engine in (threaded, dispatch)]
    assert {key: stats[0][key] + stats[1][key]
            for key in EXEC_STEADY_BUILDS} == EXEC_STEADY_BUILDS


def _machine_loop(prelude=(), latch=None, limit=("int", 0), step=1):
    """``s = 0; for (i = 0; i < limit; i += step) s += i; return s``
    in x86-style machine code: ``r0`` is the parameter, ``r1`` the
    induction, ``r2`` the sum; ``latch`` replaces the latch's
    instructions before its back edge."""
    i32 = ty.I32
    header = 2 + len(prelude)
    code = [MInst("mov", None, ("int", 1), [("imm", 0)], None),
            MInst("mov", None, ("int", 2), [("imm", 0)], None),
            *prelude,
            MInst("cmp", i32, ("int", 3), [("int", 1), limit], "lt"),
            MInst("brif", None, None, [("int", 3)], header + 3),
            MInst("ret", None, None, [("int", 2)], None)]
    code += latch or [
        MInst("bin", i32, ("int", 2), [("int", 2), ("int", 1)], "add"),
        MInst("bin", i32, ("int", 1), [("int", 1), ("imm", step)], "add")]
    code.append(MInst("br", None, None, [], header))
    return code


def _add(dst, a, b):
    return MInst("bin", ty.I32, ("int", dst), [("int", a), b], "add")


def _mov(dst, src):
    return MInst("mov", None, ("int", dst), [src], None)


@pytest.mark.parametrize("code, counted", [
    (_machine_loop(), True),
    (_machine_loop(limit=("imm", 5)), True),
    (_machine_loop(latch=[_add(1, 1, ("imm", 1))]), False),
    (_machine_loop(step=0), False),
    (_machine_loop(latch=[_add(2, 2, ("int", 1)),
                          _add(4, 1, ("imm", 1))]), False),
    (_machine_loop(latch=[_add(2, 2, ("int", 1)), _add(4, 1, ("imm", 1)),
                          _mov(1, ("int", 2))]), False),
    (_machine_loop(prelude=[_mov(4, ("imm", 0))],
                   latch=[_add(2, 2, ("int", 4)), _add(4, 1, ("imm", 1)),
                          _mov(1, ("int", 4))]), False),
    (_machine_loop(latch=[_mov(1, ("int", 1)), _add(2, 2, ("int", 1)),
                          _add(1, 1, ("imm", 1))]), False),
    (_machine_loop(latch=[_add(0, 0, ("imm", 0)), _add(2, 2, ("int", 1)),
                          _add(1, 1, ("imm", 1))]), False),
    (_machine_loop(limit=("slot", 0)), False),
    (_machine_loop(prelude=[MInst("mov", None, ("flt", 0), [("imm", 5.0)],
                                  None)], limit=("flt", 0)), False),
    (_machine_loop(limit=("int", 5)), False),
    (_machine_loop()[:-1] + [MInst("br", None, None, [], 99)], False),
    ([MInst("mov", None, ("int", 1), [("imm", 0)], None),
      MInst("mov", None, ("int", 2), [("imm", 0)], None),
      MInst("cmp", ty.I32, ("int", 3), [("int", 1), ("int", 0)], "ge"),
      MInst("brif", None, None, [("int", 3)], 7),
      _add(2, 2, ("int", 1)), _add(1, 1, ("imm", 1)),
      MInst("br", None, None, [], 2),
      MInst("ret", None, None, [("int", 2)], None)], False),
], ids=["canonical", "constant bound", "latch of two", "step 0",
        "increment into another register", "copy of another value",
        "increment temp read first", "induction written twice",
        "bound written", "bound in a slot", "bound in a float register",
        "header that can raise",
        "back edge out of the code", "exit taken, latch falls through"])
def test_machine_induction(code, counted):
    """Each clause of the machine engine's induction match, one loop
    away from it: the loop runs counted only when every clause holds,
    and every engine gives the same outcome either way (fuel bounds
    the loops that never end)."""
    func = CompiledFunction(name="f", target_name="x86", code=code,
                            param_locs=[("int", 0)], ret_void=False)
    module = CompiledModule("x86")
    module.add(func)
    dispatch.reset_tier2_build_stats()
    outcomes = {}
    for engine in ENGINES:
        sim = Simulator(module, Memory(), engine=engine, fuel=500)
        try:
            result = sim.run("f", [5])
            outcomes[engine] = ("ok", result.value, result.instructions)
        except TrapError as exc:
            outcomes[engine] = ("trap", str(exc), sim._executed)
    assert_engines_agree(outcomes)
    stats = dispatch.tier2_build_stats()
    fused = code[-1].arg != 99
    assert (stats["loops_fused"], stats["loops_counted"]) == \
        (int(fused), int(counted))


def test_constant_bound_counts_on_the_vm():
    artifact = offline_compile(
        "int f(void) { int s = 0; for (int i = 0; i < 9; i++) s += i; "
        "return s; }", "constant")
    threaded.reset_tier2_build_stats()
    pre = predecoded("vm", artifact.bytecode)
    assert pre.tier2(warm=True) is not None
    assert threaded.tier2_build_stats()["loops_counted"] == 1
    outcomes = {engine: VM(artifact.bytecode, engine=engine).call("f", [])
                for engine in ENGINES}
    assert set(outcomes.values()) == {36}


#: loops whose latch values the interval walk gives up on, each a
#: different way: ``i * i`` has no affine form and may wrap, ``3 * i``
#: is a constant times the induction, ``i / 3`` an op it does not
#: follow, ``a[i] + (int) 2.5`` sums a value no fold admits; and one
#: whose lane reduction converts each lane
GIVE_UPS = {
    "square": "void f(int *a, int n) { for (int i = 0; i < n; i++) "
              "a[i] = i * i; }",
    "scaled": "void f(int *a, int n) { for (int i = 0; i < n; i++) "
              "a[i] = 3 * i; }",
    "divided": "void f(int *a, int n) { for (int i = 0; i < n; i++) "
               "a[i] = i / 3; }",
    "offset sum": "int f(int *a, int n) { int s = 0; "
                  "for (int i = 0; i < n; i++) s += a[i] + (int) 2.5; "
                  "return s; }",
    # signed lanes summed into an unsigned accumulator: the widening
    # is not the identity
    "widened": "unsigned f(char *a, int n) { unsigned s = 0; "
               "for (int i = 0; i < n; i++) s += a[i]; return s; }",
}


@pytest.mark.parametrize("machine", ["vm", "x86"])
@pytest.mark.parametrize("name", sorted(GIVE_UPS))
def test_values_the_interval_walk_gives_up_on(machine, name):
    """Three-way parity, at every trip count up to the array's."""
    artifact = offline_compile(GIVE_UPS[name], "giveup")
    image = artifact.bytecode if machine == "vm" else \
        deploy(artifact, machine, "split")
    for n in (0, 1, 7, ELEMENTS):
        agree(machine, image, lambda base: [base, n])


def test_vm_induction_stored_twice_is_not_counted():
    """A VM loop whose latch stores the induction twice runs as a
    ``while``, and every engine agrees on it."""
    code = [BCInstr(*i) for i in [
        ("const", "i32", 0), ("stloc", None, 0),
        ("const", "i32", 0), ("stloc", None, 1),
        ("ldloc", None, 0), ("ldarg", None, 0), ("cmp", "i32", "lt"),
        ("brif", None, 10), ("ldloc", None, 1), ("ret",),
        ("ldloc", None, 1), ("ldloc", None, 0), ("add", "i32"),
        ("stloc", None, 1), ("ldloc", None, 0), ("stloc", None, 0),
        ("ldloc", None, 0), ("const", "i32", 1), ("add", "i32"),
        ("stloc", None, 0), ("br", None, 4)]]
    module = BytecodeModule("m")
    module.add(BytecodeFunction("f", ["i32"], "i32", ["i32", "i32"],
                                code=code))
    threaded.reset_tier2_build_stats()
    pre = threaded.predecode(module.functions["f"], module)
    assert pre.tier2(warm=True) is not None
    stats = threaded.tier2_build_stats()
    assert (stats["loops_fused"], stats["loops_counted"]) == (1, 0)
    assert {VM(module, engine=engine).call("f", [6])
            for engine in ENGINES} == {15}


def mutant(source: str, name: str, pc: int, instr: BCInstr,
           vector: bool = True, original: bool = False) -> BytecodeModule:
    """The compiled ``name`` of ``source`` (vector or scalar bytecode)
    as ``f``, with the instruction at ``pc`` replaced by ``instr``
    (unless ``original``): a shape the verifier refuses, which the
    engines still run alike."""
    artifact = offline_compile(source, name)
    func = (artifact.bytecode if vector
            else artifact.scalar_bytecode).functions[name]
    code = [BCInstr(i.op, i.ty, i.arg) for i in func.code]
    assert code[pc].op == instr.op, code[pc]
    if not original:
        code[pc] = instr
    module = BytecodeModule("m")
    module.add(BytecodeFunction("f", list(func.param_types), func.ret_type,
                                list(func.local_types), code=code))
    return module


def falling_bytes():
    """``(memory, None)``: the bytes 200, 100, 50 over and over, past
    ``i8``'s range and falling, so that a trip's wrap into ``i8``
    changes what a later trip computes."""
    memory = Memory(MEMORY_BYTES)
    memory.data[:] = bytes((200, 100, 50) * MEMORY_BYTES)[:MEMORY_BYTES]
    return memory, None


#: a combine whose operand is not the accumulator's type, verifier
#: aside: each trip wraps into the narrower type, so no trip may be
#: folded into one builtin wrapped once
UNFOLDABLE_COMBINES = {
    # lanes of i8 summed into an i8 each trip, then added into an int
    "lane sum wraps to i8": (
        "int f(char *a, int n) { int s = 0; "
        "for (int i = 0; i < n; i++) s += a[i]; return s; }",
        "f", 21, BCInstr("vec.reduce", "i8", ("add", "i8")), True),
    # u8 elements folded by an i8 max: 200 is -56 there
    "u8 elements into an i8 max": (
        ALL_KERNELS["max_u8"].source, "max_u8", 18,
        BCInstr("max", "i8", None), False),
}


@pytest.mark.parametrize("name", sorted(UNFOLDABLE_COMBINES))
def test_combines_of_another_type_do_not_fold(name):
    """The loop still runs counted but no longer folds, and every
    engine agrees at every trip count."""
    def built(module):
        threaded.reset_tier2_build_stats()
        assert predecoded("vm", module).tier2(warm=True) is not None
        stats = threaded.tier2_build_stats()
        return stats["loops_counted"], stats["loops_folded"]

    module = mutant(*UNFOLDABLE_COMBINES[name])
    counted, folded = built(mutant(*UNFOLDABLE_COMBINES[name],
                                   original=True))
    assert built(module) == (counted, folded - 1)
    for n in (0, 1, 3, 17, 40, 300):
        outcomes = {engine: run("vm", module, lambda _: [NULL_GUARD, n],
                                engine, fill=falling_bytes,
                                verify=False)[0]
                    for engine in ENGINES}
        assert_engines_agree(outcomes, f"{name} n={n}")


def test_a_latch_that_loses_its_back_edge_is_not_counted(monkeypatch):
    """An induction whose dropped pcs include the latch's back edge
    lowers a latch that does not end in it: the loop is refused its
    counted form and runs as a ``while``, alike on every engine."""
    real = threaded._BytecodeLowering.induction

    def induction(low, header, latch):
        found = real(low, header, latch)
        end = latch + low.blocks[latch] - 1
        return None if found is None \
            else found._replace(skip=found.skip | {end})

    monkeypatch.setattr(threaded._BytecodeLowering, "induction", induction)
    image = select_bytecode(offline_compile(SUM % 1, "counted"), "split")
    threaded.reset_tier2_build_stats()
    assert predecoded("vm", image).tier2(warm=True) is not None
    stats = threaded.tier2_build_stats()
    assert (stats["loops_fused"], stats["loops_counted"]) == (1, 0)
    agree("vm", image, lambda _: [0, 9])


def _trip(*edit: str):
    """The fold of a counted latch's trip that folds, ``s += a[i]``
    over i32 as the engines spell it, with ``edit``'s lines inserted
    before the combine (or ``None``)."""
    env = CodegenEnv({})
    unpack = env.bind(struct.Struct("<i").unpack_from, "u")
    combine = inline_binop("add", ty.I32, None)[0].format(a="t2", b="s")
    body = ["t1 = 4 * i + a", f"t2 = {unpack}(_md, t1)[0]", *edit,
            f"s = {combine}"]
    latch = SimpleNamespace(
        body=body, reductions={},
        accesses=[Access("t1", Affine(4, 0, (("a", 1),)), 4, "<i", 1)])
    induction = Induction("i", "n", 1, None, frozenset(), 0,
                          frozenset(("a", "n", "k")))
    return fold_of([], latch, induction, env)


@pytest.mark.parametrize("edit, control", [
    # a shift by a count the text does not mask may be negative
    ("t3 = t2 << k", "t3 = t2 << (k & 31)"),
    # a scalar unpack holds one element: another index raises
    ("t3 = u0(_md, t1)[1]", "t3 = u0(_md, t1)[0]"),
], ids=["unmasked shift count", "element past the first"])
def test_fold_refuses_a_trip_statement_that_can_raise(edit, control):
    """One statement that may raise keeps every trip; the same
    statement that cannot is skipped with the rest."""
    assert _trip(control) is not None
    assert _trip(edit) is None
