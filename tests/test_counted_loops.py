"""Counted tier-2 loops (:meth:`repro.tiers.Tier2Writer.counted`).

A fused loop whose header tests ``iv < bound`` and whose latch steps
``iv += c`` is compiled as a ``for iv in range(iv, bound, c)`` with no
fuel compare and no exit test, under one guard at loop entry; a state
the guard refuses deopts at the header, the block tier runs it, and
OSR re-enters the counted version once the state heals.  Either way
every engine (reference, block tier, tier-2, the block tier entering
tier-2 mid-loop by OSR, and tier-2 re-entered by OSR after a deopt)
observes the same value, memory, instruction and cycle counts and
trap, on the VM and on x86.  The hand-picked cases sit on both sides
of each clause of the guard; a hypothesis generator draws more."""

from __future__ import annotations

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tiers
from repro.core import deploy, offline_compile, select_bytecode
from repro.engine import FAST, REFERENCE, TIER2
from repro.lang import types as ty
from repro.semantics import Memory, TrapError
from repro.targets import Simulator, dispatch
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


def run(machine: str, image, args, engine: str, fuel=None, **knobs):
    """One call of ``f``: its outcome, counts and all of memory.
    ``args`` maps the array's address to the argument list."""
    memory = Memory(MEMORY_BYTES)
    base = memory.alloc_array(ty.I32, range(3, 3 + ELEMENTS))
    fuel = {} if fuel is None else {"fuel": fuel}
    if machine == "vm":
        vm = VM(image, memory, engine=engine, **fuel, **knobs)
        try:
            got = ("ok", vm.call("f", args(base)))
        except TrapError as exc:
            got = ("trap", str(exc))
        return got + (vm.instructions_executed, bytes(memory.data)), vm
    sim = Simulator(image, memory, engine=engine, **fuel, **knobs)
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


def agree(machine: str, image, args, fuel=None) -> tuple:
    """Reference / block tier / tier-2, tier-2 re-entered by OSR
    after a deopt, and the block tier entering a fresh translation at
    the loop header by OSR: one observation, and the ``osr_entries``
    of the two OSR runs."""
    outcomes = {engine: run(machine, image, args, engine, fuel)[0]
                for engine in ENGINES}
    outcomes["reentry"], reentered = run(machine, image, args, TIER2,
                                         fuel, osr=True, osr_threshold=2)
    pre = predecoded(machine, image)
    pre._tier2 = tiers._TIER2_UNBUILT       # else entered at pc 0
    outcomes["osr"], entered = run(machine, image, args, FAST, fuel,
                                   osr=True, osr_threshold=2)
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
    edge = tiers.I32_LIMIT - step
    start = data.draw(st.integers(-3, 3) | st.integers(
        edge - 3, min(edge + 3, tiers.I32_LIMIT - 1)), "start")
    n = min(start + data.draw(st.integers(0, 40), "trips") * step,
            tiers.I32_LIMIT - 1)
    image = images(source, step)[machine]
    trip = period(machine, source, step)

    def args(base):
        return ARGUMENTS[source](base, start, n)

    budget = run(machine, image, args, REFERENCE, 50 * trip)[0][-2]
    agree(machine, image, args, max(0, budget + data.draw(
        st.integers(-2 * trip, 2 * trip), "fuel slack")))


def test_every_exec_steady_kernel_counts(monkeypatch):
    """Every kernel the ``exec_steady`` workload runs has a counted
    loop in its VM and its x86 tier-2 source."""
    sources = {}

    def spy(source, filename, mode):
        sources[filename] = source
        return compile(source, filename, mode)

    monkeypatch.setattr(tiers, "compile", spy, raising=False)
    for name, kernel in ALL_KERNELS.items():
        artifact = offline_compile(kernel.source, name)
        for machine, image in (("vm", artifact.bytecode),
                               ("x86", deploy(artifact, "x86", "split"))):
            sources.clear()
            for func in image.functions:
                assert predecoded(machine, image, func).tier2(
                    warm=True) is not None
            assert any(re.search(r"^ +for \w+ in range\(", source, re.M)
                       for source in sources.values()), (name, machine)
