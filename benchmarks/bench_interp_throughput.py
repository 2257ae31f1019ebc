"""Execution-core throughput: fast and tier-2 vs reference engines.

The fast engines (predecoded closure threading + type-specialized
semantics kernels) and the tier-2 whole-function translations layered
on top of them exist to make the host-side execution layer — the
slowest path in every experiment — cheap.  This bench measures VM and
simulator throughput in MIPS (million executed instructions per
second) for all three engines across the Table 1 kernels, asserting
along the way that the engines execute *identical* instruction and
cycle counts (the perf claim is meaningless without the parity claim).

The ``osr_loop`` row measures the on-stack-replacement path: one long
unannotated call, which can only reach tier-2 by repaying the build
and promoting at the loop header mid-call, timed with OSR off (the
pure block tier) and on.  All rounds share one image, so the untimed
first round pays the gate's wait and the build (its ``tiering`` stats
in the JSON prove the entry actually fired) and the timed ones start
in the translation it left.  The ``osr_first_call`` row times the
same call on a never-run image per round, wait and build included:
what a first call gets.

The ``break_even`` table (full-size runs only) sizes the promotion
policy: per kernel and machine, what a tier-2 build costs against
what a call saves, as executed block-tier instructions per
instruction of code.  ``repro.tiers.TIER2_PAYBACK`` cites its median
and quartiles.

The ``predecode`` table verifies the block tier's template traffic
instead of guessing it: per kernel and machine, how many blocks a
predecode instantiates from how many distinct shapes, what it costs
with the template memo empty and with it resident, and what a
never-seen kernel compiles when the other ten are resident on that
machine.  Its floors assert on counts read off the memo's own
counters (``repro.tiers.template_stats``), which repeat exactly.

The machine-readable ``BENCH_interp_throughput.json`` anchors the perf
trajectory per PR; the CI smoke job fails if the fast engine ever
regresses below the reference engine, tier-2 below the block-threaded
fast engine, or the OSR-enabled tier below the block tier (sanity
floors on the median of interleaved pairs, not flaky absolute
thresholds).
"""

import copy
import statistics
import time

import pytest

from repro.bench import format_table
from repro.core import deploy, offline_compile
from repro.engine import FAST, REFERENCE, TIER2
from repro.semantics import Memory
from repro.targets import X86, Simulator, dispatch
from repro.tiers import TIER2_PAYBACK, block_template, template_stats
from repro.vm import VM, threaded
from repro.workloads import ALL_KERNELS, TABLE1

from conftest import SMOKE, register_report

KERNELS = ("sum_u8",) if SMOKE else tuple(TABLE1)
N = 64 if SMOKE else 512
SEED = 7
REPEATS = 3 if SMOKE else 5
MEMORY_BYTES = 1 << 21
ENGINES = (FAST, TIER2, REFERENCE)

#: the OSR workload: one long unannotated call, so the only road to
#: tier-2 is a mid-call loop-entry promotion.  Full-size runs clear
#: the >= 1e5 back edges the acceptance floor is stated over.  The
#: smoke size must still cross the payback gate in one call: the VM's
#: 31-instruction function is promoted at trip 2 752 (63 301
#: instructions spent against a 62 000 payback), the x86 one (16
#: instructions) at trip 3 200, so smoke stays at n = 5 000.
OSR_SOURCE = (
    "int f(int n) { int s = 0;"
    "  for (int i = 0; i < n; i++) s += i * 3 - (s >> 2);"
    "  return s; }"
)
N_OSR = 5_000 if SMOKE else 200_000

#: the break-even census (full-size runs only): every kernel on the
#: VM and three simulated machines, at the e2e ``exec_steady`` size
BREAK_EVEN_MACHINES = ("vm", "x86", "sparc", "arm")
N_BREAK_EVEN = 4096
BREAK_EVEN_CALLS = 7

#: smoke-size calls finish in well under a millisecond — far inside
#: timer/scheduler noise — so the timed region batches several calls
#: and reports the per-call best.  Full-size calls are long enough on
#: their own.
CALLS = 16 if SMOKE else 1


def _vm_round(artifact, kernel, engine):
    """(per-call instructions, per-call seconds) of one timed batch on
    the VM.

    The fast/tier-2 rows pin ``osr=False``: OSR would promote the
    block tier on any loopy kernel, and the fast row is meant to
    measure the block tier itself (the OSR row below measures the
    promotion)."""
    memory = Memory(MEMORY_BYTES)
    run = kernel.prepare(memory, N, SEED)
    vm = VM(artifact.bytecode, memory=memory, verify=False,
            engine=engine, osr=False)
    start = time.perf_counter()
    for _ in range(CALLS):
        vm.call(kernel.entry, run.args)
    seconds = (time.perf_counter() - start) / CALLS
    return vm.instructions_executed // CALLS, seconds


def _sim_round(compiled, kernel, engine):
    """(per-call (instructions, cycles), per-call seconds)."""
    memory = Memory(MEMORY_BYTES)
    run = kernel.prepare(memory, N, SEED)
    simulator = Simulator(compiled, memory, engine=engine, osr=False)
    start = time.perf_counter()
    for _ in range(CALLS):
        result = simulator.run(kernel.entry, run.args)
    seconds = (time.perf_counter() - start) / CALLS
    return (result.instructions, result.cycles), seconds


def _interleaved(one_round, labels, warm=True):
    """``REPEATS`` rounds of one timed batch per label, the order
    reversed every other round so no label always runs first or
    last: ``({label: counts}, {label: [seconds per round]})``.  A
    floor compares two labels round by round (:func:`_paired`), so a
    noise burst hits both sides of a pair or neither; ``warm`` takes
    one untimed batch per label first, so no round pays a build."""
    counts, seconds = {}, {label: [] for label in labels}
    for index in range(-1 if warm else 0, REPEATS):
        for label in labels[::-1] if index % 2 else labels:
            counts[label], took = one_round(label)
            if index >= 0:
                seconds[label].append(took)
    return counts, seconds


def _paired(seconds, slow, quick) -> float:
    """Median over rounds of ``slow`` time / ``quick`` time."""
    return statistics.median(
        s / q for s, q in zip(seconds[slow], seconds[quick]))


def _mips(count, seconds) -> float:
    return count / min(seconds) / 1e6


def _osr_vm_call(bytecode, osr):
    vm = VM(bytecode, verify=False, engine=FAST, osr=osr)
    start = time.perf_counter()
    vm.call("f", [N_OSR])
    took = time.perf_counter() - start
    return (vm.instructions_executed,), took, vm.tiering_stats()


def _osr_sim_call(compiled, osr):
    sim = Simulator(compiled, Memory(), engine=FAST, osr=osr)
    start = time.perf_counter()
    result = sim.run("f", [N_OSR])
    took = time.perf_counter() - start
    return (result.instructions, result.cycles), took, \
        sim.tiering_stats()


#: machine -> (a never-run image of ``OSR_SOURCE``, one timed call:
#: ``(counts, seconds, tiering stats)``)
_OSR_MACHINES = {
    "vm": (lambda: offline_compile(OSR_SOURCE).bytecode, _osr_vm_call),
    "sim": (lambda: deploy(offline_compile(OSR_SOURCE), X86, "split"),
            _osr_sim_call),
}


def _osr_reference():
    """machine -> the reference engine's counts for the OSR call."""
    artifact = offline_compile(OSR_SOURCE)
    vm = VM(artifact.bytecode, verify=False, engine=REFERENCE)
    vm.call("f", [N_OSR])
    result = Simulator(deploy(artifact, X86, "split"), Memory(),
                       engine=REFERENCE).run("f", [N_OSR])
    return {"vm": (vm.instructions_executed,),
            "sim": (result.instructions, result.cycles)}


def _osr_row(kernel, fresh, reference):
    """One long single call, block tier vs OSR-enabled tier, in
    interleaved pairs on both machines.  ``fresh`` compiles a
    never-run image for every round, so each timed OSR call waits out
    the payback gate and pays the build; otherwise the rounds share
    one image, the untimed first round does both, and the timed ones
    start in its translation (the build outside the timing).  Either
    way the first OSR-enabled round must enter tier-2 mid-call."""
    row = {"kernel": kernel, "n": N_OSR, "tiering": {}}
    for machine, (image_of, call) in _OSR_MACHINES.items():
        shared = None if fresh else image_of()
        first = {}

        def one_round(label):
            counts, took, tiering = call(
                image_of() if fresh else shared, label == "osr")
            if label == "osr":
                first.setdefault("tiering", tiering)
            return counts, took

        counts, seconds = _interleaved(one_round, ("fast", "osr"),
                                       warm=not fresh)
        assert counts["fast"] == counts["osr"] == reference[machine], \
            f"OSR changed the {machine}'s executed / modeled counts"
        assert first["tiering"]["osr_entries"] >= 1, \
            "the OSR row must actually enter tier-2 mid-call"
        row["tiering"][machine] = first["tiering"]
        row.update({
            f"{machine}_instructions": counts["osr"][0],
            f"{machine}_fast_mips": _mips(counts["fast"][0],
                                          seconds["fast"]),
            f"{machine}_osr_mips": _mips(counts["osr"][0],
                                         seconds["osr"]),
            f"{machine}_tier2_osr_over_fast": min(seconds["fast"])
            / min(seconds["osr"]),
            f"{machine}_osr_over_fast_paired": _paired(seconds, "fast",
                                                       "osr"),
        })
    row["sim_cycles"] = reference["sim"][1]
    return row


def _break_even_row(name, machine):
    """One (kernel, machine) pair of the break-even census: what the
    tier-2 build of the entry function costs, what a call takes on
    the block tier and entering tier-2 at pc 0 (best of
    ``BREAK_EVEN_CALLS`` each), and after how many executed block-tier
    instructions per instruction of code the saving repays the build
    (``None`` where tier-2 saves nothing)."""
    kernel = ALL_KERNELS[name]
    artifact = offline_compile(kernel.source)
    n = N_BREAK_EVEN // 8 if name == "fir" else N_BREAK_EVEN
    if machine == "vm":
        image, predecode = artifact.bytecode, threaded.predecode
    else:
        image = deploy(artifact, machine, "split")
        predecode = dispatch.predecode_machine

    def call_seconds(runner, args):
        best = float("inf")
        for _ in range(BREAK_EVEN_CALLS):
            start = time.perf_counter()
            result = runner(kernel.entry, args)
            best = min(best, time.perf_counter() - start)
        return best, result

    build = float("inf")
    for _ in range(REPEATS):                # each on a never-run copy
        fresh = copy.deepcopy(image)
        pre = predecode(fresh.functions[kernel.entry], fresh)
        start = time.perf_counter()
        assert pre.tier2() is not None, f"{name} on {machine}"
        build = min(build, time.perf_counter() - start)
    seconds = {}
    for osr in (False, True):       # ``fresh`` has its tier-2: with
        memory = Memory(MEMORY_BYTES)       # osr on, calls enter it
        args = kernel.prepare(memory, n, SEED).args         # at pc 0
        if machine == "vm":
            vm = VM(fresh, memory=memory, verify=False, engine=FAST,
                    osr=osr)
            seconds[osr], _ = call_seconds(vm.call, args)
            executed = vm.instructions_executed // BREAK_EVEN_CALLS
            promoted = vm.tier2_promotions
        else:
            sim = Simulator(fresh, memory, engine=FAST, osr=osr)
            seconds[osr], result = call_seconds(sim.run, args)
            executed = result.instructions
            promoted = sim.tier2_promotions
        assert promoted == (BREAK_EVEN_CALLS if osr else 0)
    code = len(fresh.functions[kernel.entry].code)
    saved = seconds[False] - seconds[True]
    return {
        "kernel": name, "machine": machine, "n": n, "code": code,
        "build_ms": build * 1e3,
        "block_ms": seconds[False] * 1e3,
        "tier2_ms": seconds[True] * 1e3,
        "executed": executed,
        "break_even": build * executed / saved / code
        if saved > 0 else None,
    }


def _break_even_table(break_even) -> str:
    return format_table(
        ["kernel", "machine", "code", "build ms", "block ms",
         "tier-2 ms", "executed", "break-even"],
        [(row["kernel"], row["machine"], row["code"],
          f"{row['build_ms']:.2f}", f"{row['block_ms']:.2f}",
          f"{row['tier2_ms']:.2f}", row["executed"],
          "never" if row["break_even"] is None
          else f"{row['break_even']:.0f}")
         for row in break_even["rows"]],
        title=f"Tier-2 break-even, executed block-tier instructions "
              f"per instruction of code (n={break_even['n']}, calls "
              f"best of {break_even['calls']}): median "
              f"{break_even['median']:.0f}, quartiles "
              f"{break_even['q1']:.0f} / {break_even['q3']:.0f}; "
              f"TIER2_PAYBACK = {TIER2_PAYBACK}")


def _predecode_image(image, machine):
    """Predecode every function of a never-run copy of ``image``:
    ``(predecoded forms, seconds, templates compiled)``."""
    fresh = copy.deepcopy(image)
    predecode = threaded.predecode if machine == "vm" \
        else dispatch.predecode_machine
    compiled = template_stats()["misses"]
    start = time.perf_counter()
    pres = [predecode(func, fresh) for func in fresh.functions.values()]
    took = time.perf_counter() - start
    return pres, took, template_stats()["misses"] - compiled


def _block_texts(pres):
    """The template text of every block of ``pres``, lowered again
    (the memo is not consulted)."""
    texts = []
    for pre in pres:
        low = pre.steps.low
        texts += [low.block_source(leader, length,
                                   low.lower_block(leader, length))[0]
                  for leader, length in low.blocks.items()]
    return texts


def _predecode_rows(machine):
    """One machine's rows of the predecode census.  Every count is
    taken twice — from the memo's ``misses`` counter and from the
    template texts themselves — and the two must agree."""
    images = {}
    for name, kernel in ALL_KERNELS.items():
        artifact = offline_compile(kernel.source, name)
        images[name] = artifact.bytecode if machine == "vm" \
            else deploy(artifact, machine, "split")
    rows, texts = [], {}
    for name, image in images.items():
        empty = resident = float("inf")
        for _ in range(REPEATS):
            block_template.cache_clear()
            pres, took, compiled = _predecode_image(image, machine)
            empty = min(empty, took)
            _, took, again = _predecode_image(image, machine)
            resident = min(resident, took)
        texts[name] = _block_texts(pres)
        assert compiled == len(set(texts[name])), (name, machine)
        rows.append({
            "kernel": name, "machine": machine,
            "blocks": len(texts[name]), "shapes": compiled,
            "chars": sum(map(len, texts[name])),
            "empty_ms": empty * 1e3, "resident_ms": resident * 1e3,
            "resident_compiled": again})
    for row in rows:        # leave one kernel out: the other ten
        block_template.cache_clear()        # resident on this machine
        others = set()
        for name, image in images.items():
            if name != row["kernel"]:
                _predecode_image(image, machine)
                others.update(texts[name])
        _, _, compiled = _predecode_image(images[row["kernel"]], machine)
        unseen = set(texts[row["kernel"]]) - others
        assert compiled == len(unseen), (row["kernel"], machine)
        row["unseen_compiled"] = compiled
        row["unseen_chars_compiled"] = sum(map(len, unseen))
    return rows


def _predecode_table(predecode) -> str:
    return format_table(
        ["kernel", "machine", "blocks", "shapes", "empty ms",
         "resident ms", "unseen shapes", "unseen chars"],
        [(row["kernel"], row["machine"], row["blocks"], row["shapes"],
          f"{row['empty_ms']:.2f}", f"{row['resident_ms']:.2f}",
          f"{row['unseen_compiled']} / {row['blocks']}",
          f"{row['unseen_chars_compiled']} / {row['chars']} "
          f"({100 * row['unseen_chars_compiled'] / row['chars']:.0f} %)")
         for row in predecode["rows"]],
        title=f"Block-tier predecode of every function of a kernel "
              f"(best of {REPEATS}): template memo empty vs resident, "
              f"and never-seen with the other "
              f"{len(ALL_KERNELS) - 1} kernels resident on the machine "
              f"(shapes compiled / blocks, characters compiled / "
              f"characters); all rows: {predecode['blocks']} blocks, "
              f"{predecode['empty_ms']:.1f} ms empty, "
              f"{predecode['resident_ms']:.1f} ms resident")


@pytest.fixture(scope="module")
def measurements():
    rows = []
    for name in KERNELS:
        kernel = TABLE1[name]
        artifact = offline_compile(kernel.source)
        compiled = deploy(artifact, X86, "split")

        vm_counts, vm_seconds = _interleaved(
            lambda engine: _vm_round(artifact, kernel, engine), ENGINES)
        for engine in (FAST, TIER2):
            assert vm_counts[engine] == vm_counts[REFERENCE], \
                f"{name}: {engine} VM executed a different " \
                f"instruction count than the reference"
        vm = {engine: _mips(vm_counts[engine], vm_seconds[engine])
              for engine in ENGINES}

        sim_counts, sim_seconds = _interleaved(
            lambda engine: _sim_round(compiled, kernel, engine), ENGINES)
        for engine in (FAST, TIER2):
            assert sim_counts[engine] == sim_counts[REFERENCE], \
                f"{name}: {engine} simulator disagrees with the " \
                f"reference on instructions/cycles"
        sim = {engine: _mips(sim_counts[engine][0], sim_seconds[engine])
               for engine in ENGINES}

        rows.append({
            "kernel": name,
            "vm_instructions": vm_counts[FAST],
            "vm_fast_mips": vm[FAST],
            "vm_tier2_mips": vm[TIER2],
            "vm_reference_mips": vm[REFERENCE],
            "vm_speedup": vm[FAST] / vm[REFERENCE],
            "vm_tier2_speedup": vm[TIER2] / vm[REFERENCE],
            "vm_tier2_over_fast": vm[TIER2] / vm[FAST],
            "vm_tier2_over_fast_paired": _paired(vm_seconds, FAST, TIER2),
            "sim_instructions": sim_counts[FAST][0],
            "sim_cycles": sim_counts[FAST][1],
            "sim_fast_mips": sim[FAST],
            "sim_tier2_mips": sim[TIER2],
            "sim_reference_mips": sim[REFERENCE],
            "sim_speedup": sim[FAST] / sim[REFERENCE],
            "sim_tier2_speedup": sim[TIER2] / sim[REFERENCE],
            "sim_tier2_over_fast": sim[TIER2] / sim[FAST],
            "sim_tier2_over_fast_paired": _paired(sim_seconds, FAST,
                                                  TIER2),
        })
    return rows


@pytest.fixture(scope="module")
def osr_reference():
    return _osr_reference()


@pytest.fixture(scope="module")
def osr_measurement(osr_reference):
    return _osr_row("osr_loop", False, osr_reference)


@pytest.fixture(scope="module")
def osr_first_call(osr_reference):
    return _osr_row("osr_first_call", True, osr_reference)


@pytest.fixture(scope="module")
def break_even():
    rows = [_break_even_row(name, machine)
            for name in ALL_KERNELS
            for machine in BREAK_EVEN_MACHINES]
    repaid = [row["break_even"] for row in rows
              if row["break_even"] is not None]
    q1, median, q3 = statistics.quantiles(repaid, n=4)
    return {"n": N_BREAK_EVEN, "calls": BREAK_EVEN_CALLS, "rows": rows,
            "never_repaid": len(rows) - len(repaid),
            "tier2_payback": TIER2_PAYBACK,
            "q1": q1, "median": median, "q3": q3}


@pytest.fixture(scope="module")
def predecode():
    """The predecode census: every kernel on the break-even machines
    (counts do not depend on the run size, so smoke runs it whole)."""
    rows = [row for machine in BREAK_EVEN_MACHINES
            for row in _predecode_rows(machine)]
    return {"machines": list(BREAK_EVEN_MACHINES), "rows": rows,
            "blocks": sum(row["blocks"] for row in rows),
            "empty_ms": sum(row["empty_ms"] for row in rows),
            "resident_ms": sum(row["resident_ms"] for row in rows)}


@pytest.fixture(scope="module")
def report(request, measurements, osr_measurement, osr_first_call,
           predecode):
    table_rows = [
        (row["kernel"],
         f"{row['vm_tier2_mips']:.2f}", f"{row['vm_fast_mips']:.2f}",
         f"{row['vm_reference_mips']:.2f}",
         f"{row['vm_tier2_speedup']:.1f}x",
         f"{row['sim_tier2_mips']:.2f}", f"{row['sim_fast_mips']:.2f}",
         f"{row['sim_reference_mips']:.2f}",
         f"{row['sim_tier2_speedup']:.1f}x")
        for row in measurements
    ]
    for osr in (osr_measurement, osr_first_call):
        table_rows.append(
            (f"{osr['kernel']} (n={osr['n']})",
             f"{osr['vm_osr_mips']:.2f}", f"{osr['vm_fast_mips']:.2f}",
             "-", f"{osr['vm_tier2_osr_over_fast']:.1f}x",
             f"{osr['sim_osr_mips']:.2f}", f"{osr['sim_fast_mips']:.2f}",
             "-", f"{osr['sim_tier2_osr_over_fast']:.1f}x"))
    table = format_table(
        ["kernel", "VM t2", "VM fast", "VM ref", "VM t2 gain",
         "sim t2", "sim fast", "sim ref", "sim t2 gain"],
        table_rows,
        title=f"Execution-core throughput, MIPS (n={N}, "
              f"best of {REPEATS}; osr_* gains are over the "
              f"block tier)")
    data = {
        "n": N,
        "repeats": REPEATS,
        "engines": list(ENGINES),
        "kernels": measurements,
        "osr": osr_measurement,
        "osr_first_call": osr_first_call,
        "predecode": predecode,
        "templates": template_stats(),
    }
    table += "\n\n" + _predecode_table(predecode)
    if not SMOKE:       # the census is a full-size measurement
        break_even = data["break_even"] = \
            request.getfixturevalue("break_even")
        table += "\n\n" + _break_even_table(break_even)
    register_report("interp_throughput", table, data=data)
    return table


class TestThroughput:
    def test_fast_vm_never_below_reference(self, measurements, report):
        """The CI sanity floor: predecode must never lose to the
        string ladder."""
        for row in measurements:
            assert row["vm_speedup"] >= 1.0, \
                f"{row['kernel']}: fast VM slower than reference " \
                f"({row['vm_speedup']:.2f}x)"

    def test_fast_simulator_never_below_reference(self, measurements):
        for row in measurements:
            assert row["sim_speedup"] >= 1.0, \
                f"{row['kernel']}: fast simulator slower than " \
                f"reference ({row['sim_speedup']:.2f}x)"

    def test_tier2_never_below_fast(self, measurements, report):
        """Whole-function translation must not lose to the block-
        threaded tier it is promoted from — on either engine (the
        median ratio of interleaved fast / tier-2 pairs: two
        independent best-of timings failed one run in ten)."""
        for row in measurements:
            assert row["vm_tier2_over_fast_paired"] >= 1.0, \
                f"{row['kernel']}: tier-2 VM slower than fast " \
                f"({row['vm_tier2_over_fast_paired']:.2f}x)"
            assert row["sim_tier2_over_fast_paired"] >= 1.0, \
                f"{row['kernel']}: tier-2 simulator slower than fast " \
                f"({row['sim_tier2_over_fast_paired']:.2f}x)"

    @pytest.mark.skipif(SMOKE, reason="full-size runs only")
    def test_saxpy_meets_speedup_targets(self, measurements):
        """The tentpole targets on the anchor kernel — asserted with
        headroom below the committed numbers to stay robust to slow
        CI hosts."""
        row = next(r for r in measurements if r["kernel"] == "saxpy_fp")
        assert row["vm_speedup"] >= 3.0, \
            f"VM speedup degraded to {row['vm_speedup']:.2f}x"
        assert row["sim_speedup"] >= 2.0, \
            f"simulator speedup degraded to {row['sim_speedup']:.2f}x"

    def test_osr_never_below_fast(self, osr_measurement, report):
        """The OSR sanity floor (smoke included): a call that starts
        in the translation an earlier call's OSR built must never lose
        to staying on the block tier — on either machine (the median
        ratio of interleaved pairs; the untimed first round crosses
        the payback gate at smoke size too, n = 5 000)."""
        row = osr_measurement
        assert row["vm_osr_over_fast_paired"] >= 1.0, \
            f"OSR VM slower than the block tier " \
            f"({row['vm_osr_over_fast_paired']:.2f}x)"
        assert row["sim_osr_over_fast_paired"] >= 1.0, \
            f"OSR simulator slower than the block tier " \
            f"({row['sim_osr_over_fast_paired']:.2f}x)"

    @pytest.mark.skipif(SMOKE, reason="full-size runs only")
    def test_osr_single_call_speedup_target(self, osr_measurement):
        """The tentpole acceptance floor: >= 1.5x the block tier on a
        single >= 1e5-back-edge call, the build outside the timing
        (asserted with headroom under the committed ~1.6x to stay
        robust to slow CI hosts)."""
        assert osr_measurement["vm_tier2_osr_over_fast"] >= 1.5, \
            f"OSR VM gain degraded to " \
            f"{osr_measurement['vm_tier2_osr_over_fast']:.2f}x"

    @pytest.mark.skipif(SMOKE, reason="full-size runs only")
    def test_osr_first_call_repays_its_build(self, osr_first_call):
        """Ski rental, end to end: a >= 1e5-back-edge first call of a
        never-run image, which waits out the payback gate on the
        block tier and then pays the build inside the timed region,
        still beats staying on the block tier — on either machine."""
        row = osr_first_call
        assert row["vm_osr_over_fast_paired"] >= 1.0, \
            f"first-call OSR VM slower than the block tier " \
            f"({row['vm_osr_over_fast_paired']:.2f}x)"
        assert row["sim_osr_over_fast_paired"] >= 1.0, \
            f"first-call OSR simulator slower than the block tier " \
            f"({row['sim_osr_over_fast_paired']:.2f}x)"

    @pytest.mark.skipif(SMOKE, reason="full-size runs only")
    def test_payback_constant_sits_in_the_measured_band(self, break_even):
        """``TIER2_PAYBACK`` is a measurement, not a guess: it must
        lie between the census's lower quartile and twice its upper
        one, so a lowering change that moves the build cost (or the
        tier-2 gain) by 2x fails here and re-derives the constant."""
        assert break_even["q1"] <= TIER2_PAYBACK \
            <= 2 * break_even["q3"], \
            f"TIER2_PAYBACK = {TIER2_PAYBACK} outside " \
            f"[{break_even['q1']:.0f}, 2 x {break_even['q3']:.0f}]"

    def test_second_predecode_compiles_nothing(self, predecode):
        """A fresh decode of a module this process has predecoded
        once finds every block shape resident."""
        for row in predecode["rows"]:
            assert row["resident_compiled"] == 0, row

    def test_never_seen_kernel_reuses_resident_shapes(self, predecode):
        """The memo is keyed on block shape, not on the function: a
        kernel the process has never seen, with the other kernels'
        shapes resident, compiles fewer shapes than it has blocks on
        every machine."""
        for row in predecode["rows"]:
            assert row["unseen_compiled"] < row["blocks"], row

    @pytest.mark.skipif(SMOKE, reason="full-size runs only")
    def test_saxpy_tier2_doubles_fast_mips(self, measurements):
        """The tier-2 tentpole target: >= 2x the block-threaded MIPS
        on the anchor kernel."""
        row = next(r for r in measurements if r["kernel"] == "saxpy_fp")
        assert row["vm_tier2_over_fast"] >= 2.0, \
            f"tier-2 VM gain over fast degraded to " \
            f"{row['vm_tier2_over_fast']:.2f}x"


def test_bench_fast_vm_call(benchmark):
    """Steady-state fast-engine VM latency on the anchor kernel."""
    kernel = TABLE1["sum_u8" if SMOKE else "saxpy_fp"]
    artifact = offline_compile(kernel.source)
    memory = Memory(MEMORY_BYTES)
    run = kernel.prepare(memory, N, SEED)
    vm = VM(artifact.bytecode, memory=memory, verify=False, engine=FAST)
    benchmark.pedantic(lambda: vm.call(kernel.entry, run.args),
                       rounds=5, iterations=3)
