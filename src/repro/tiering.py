"""The tiering runtime, written once for both machines: what
:mod:`repro.tiers` builds, this decides when to build and runs.

The predecoded form (:class:`Predecoded`) builds tier-2 lazily behind
a payback gate (:data:`TIER2_PAYBACK`; :func:`warm` prepays it), a
machine (:class:`TieredMachine`, which ``VM`` and ``Simulator``
inherit) holds the policy and its counters, and one trampoline runs a
call (:func:`run_tiered`): entry into a built or hinted translation,
OSR with the payback gate in front of the build, the block loop, and
the metered replay of a :class:`repro.engine.MeterTrip`
(:func:`replay_metered`).  Handlers are called with the engine's
frame tuple, ``handlers[pc](*frame)``: about 12-15 ns a dispatch on
CPython 3.11.7 (an 8-argument handler, 34 -> 46 ns on a 2-core Xeon);
a ``device_first_call`` operation dispatches 191 blocks in about
1.7 ms and an ``exec_steady`` call 1 496 on its first call after
warming, 165 by its sixth, in about 2.2 ms — at most 1 %.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.analysis.intervals import TAG_INTERVALS
from repro.engine import (
    REFERENCE, TIER2, MeterTrip, osr_enabled, osr_threshold, resolve_engine,
)
from repro.semantics.errors import TrapError
from repro.tiers import BUILD_LOCK, StepTable

#: "tier-2 code not built yet" sentinel (distinct from None = "build
#: failed or declined; stay block-threaded")
_TIER2_UNBUILT = object()

#: block-tier instructions a function must execute, per instruction of
#: its code, before OSR builds its tier-2 translation (ski rental: wait
#: until the rent paid equals the price).  Sized by the ``break_even``
#: table of ``benchmarks/results/BENCH_interp_throughput.json`` (11
#: kernels x VM / x86 / sparc / arm at n = 4096): a build costs 54-268
#: us per instruction of code (36-258 before counted loops lowered
#: their blocks twice; 37-122 on a box twice as fast), tier-2 then
#: runs 1.30-6.88x the block tier, and the saving repays the build
#: after a median of 1388 executed instructions per instruction of
#: code (quartiles 862 / 1676; 1334 and 670 / 1593 before counted
#: loops, 1599 and 1233 / 1782 before tier-2 loops got cheaper, 1797
#: and 1265 / 2120 when the constant was chosen).  2000 was the upper
#: quartile in round figures and now sits a fifth above it: late by
#: less than one build, and what keeps ``device_first_call`` free of
#: builds.  A full-size run of that bench fails when it leaves
#: [q1, 2 x q3].
TIER2_PAYBACK = 2000


class Predecoded:
    """One function's decoded form: block-compiled handlers at fuel
    block leaders, the lazy one-instruction :class:`StepTable` (the
    trap paths), the lazily built tier-2 whole-function translation
    with the payback gate in front of its OSR build, and — in the
    engine's subclass — the per-call frame initialization data.

    Promotion policy (ski rental): an unhinted function's translation
    is built from OSR only once the function has *spent*, in
    block-tier instructions executed in its counted loops and summed
    over every call on this object, what the build costs
    (:data:`TIER2_PAYBACK` per instruction of code).  The counter
    lives here, not on the call, so short calls add up; once a
    translation exists (:meth:`built_tier2`) every later call enters
    it at pc 0.  ``spent`` is read off the machine's one executed
    counter, so it *includes* what callees ran inside those loops
    (whatever tier they ran in), and a recursive function counts the
    same instructions once per active frame: a thin loop around a
    heavy callee is promoted before its own instructions would repay
    the build.  The overshoot is one build; telling the two apart
    would put a second counter on every call.

    ``tier2_hint`` (filled by the engine's ``frame_data``) is the
    offline evidence that a function is hot — its hotness annotation
    clears :func:`repro.flows.promotes_to_tier2`, read off its module
    by the VM and off the JIT's mark by the simulator: build before
    its first instruction, and at :func:`warm`."""

    __slots__ = ("token", "handlers", "steps", "osr_leaders", "_tier2",
                 "_tier2_args", "_spent", "tier2_hint")

    def __init__(self, token, handlers, steps: StepTable, osr_leaders,
                 shipped=None, **frame):
        self.token = token
        self.handlers = handlers
        self.steps = steps
        #: back-edge target leaders — the candidate on-stack
        #: replacement entry points the trampoline counts visits at.
        #: The generated ``_t2`` carries its own (possibly narrower)
        #: entry whitelist and validates the snapshot itself; this set
        #: only gates whether counting is worth doing at all.
        self.osr_leaders = osr_leaders
        self._tier2 = _TIER2_UNBUILT
        #: ``shipped``: the facts table the module carried for the
        #: function, if any (outside input: :meth:`Lowering.facts`)
        self._tier2_args = (steps.low.func, steps.low.binding, shipped)
        self._spent = 0
        for name, value in frame.items():
            setattr(self, name, value)

    @property
    def spent(self) -> int:
        """Block-tier instructions the gate has been told about."""
        return self._spent

    @property
    def payback(self) -> int:
        """What ``spent`` must reach before OSR builds tier-2."""
        return TIER2_PAYBACK * len(self.steps.low.code)

    def built_tier2(self):
        """The translation if one exists (an earlier call, a warm
        hook or a hint built it), else ``None`` — never builds."""
        t2 = self._tier2
        return None if t2 is _TIER2_UNBUILT else t2

    @property
    def tier2_declined(self) -> bool:
        """The build was tried and failed or declined: nothing left to
        ask for, the function stays block-threaded."""
        return self._tier2 is None

    def tier2_repaid(self, executed: int):
        """The payback gate, asked by a trampoline at an OSR threshold
        crossing with no translation in hand: ``executed`` instructions
        ran since it last asked (callees included, see the class
        docstring).  Returns the translation once the function has
        repaid its build (building it then), and ``None`` while it has
        not — or when the build declined (:attr:`tier2_declined`,
        after which the trampoline stops asking).  A race on
        ``_spent`` loses a few counts of a heuristic; the build itself
        is serialized in :meth:`tier2`."""
        if self._tier2 is _TIER2_UNBUILT:
            self._spent += executed
            if self._spent < self.payback:
                self.steps.low.stats.counts["deferred"] += 1
                return None
        return self.tier2()

    def tier2(self, warm: bool = False):
        """The whole-function tier-2 translation, built on first
        request and cached with the predecode (so it rides the same
        content-token invalidation).  ``None`` means the build failed
        or was declined — callers stay on the block-threaded tier.
        ``warm`` marks a build a caller asked for ahead of a run
        (``warm_module`` / ``warm_bytecode_module``), for the
        build-site stats."""
        t2 = self._tier2
        if t2 is _TIER2_UNBUILT:
            with BUILD_LOCK:
                t2 = self._tier2        # a racing thread may have won
                if t2 is _TIER2_UNBUILT:
                    t2 = self._tier2 = type(self.steps.low)._build_tier2(
                        *self._tier2_args, warm)
        return t2


def replay_metered(pre: Predecoded, leader: int, machine, *frame):
    """The *metered* path: a block-entry debit crossed the fuel limit
    (:class:`repro.engine.MeterTrip`, block undebited), so step the
    instructions the remaining fuel still covers — fewer than the
    block holds, hence never its terminator and never out of the
    block — and raise the engine's fuel trap on exactly the
    instruction the reference ladder raises it on; an earlier trap of
    a stepped instruction still wins.  Never returns.  ``frame`` is
    the tripped handler's argument list (``machine`` among it)."""
    low = pre.steps.low
    executed = getattr(machine, low.executed)
    covered = machine.fuel - executed
    if covered >= low.blocks[leader]:
        raise RuntimeError(f"{low.name}: metered replay of block "
                           f"{leader}, which the fuel covers")
    pc = leader
    for _ in range(covered):
        executed += 1
        setattr(machine, low.executed, executed)
        pc = pre.steps[pc](*frame)
    setattr(machine, low.executed, executed + 1)
    raise TrapError(low.fuel_trap)


def warm(module, predecode: Callable) -> None:
    """Predecode every function of ``module`` with the engine's
    ``predecode`` and pre-build tier-2 wherever a serving call could
    want it: hinted functions and every OSR candidate (any function
    with a loop header).  This prepays the build the payback gate
    would otherwise defer until the loops have repaid it, so later
    calls start in tier-2 at pc 0 and never build in-request (the
    ``warm`` bucket of :class:`Tier2BuildStats` counts it)."""
    for func in module.functions.values():
        pre = predecode(func, module)
        if pre.tier2_hint or pre.osr_leaders:
            pre.tier2(warm=True)


class TieredMachine:
    """The tiering state of one executing machine (``VM``,
    ``Simulator``): which engine, the promotion policy, its counters,
    the per-machine predecode memo and the check of a public call's
    entry.  A subclass sets ``module`` (whose ``functions`` map names
    to functions with a ``num_params``) and loads a predecode in
    ``_load``."""

    def __init__(self, engine: Optional[str], osr: Optional[bool],
                 threshold: Optional[int]):
        self.engine = resolve_engine(engine)
        #: the ``tier2`` engine builds every function before its first
        #: instruction; ``fast`` only those with a ``tier2_hint``
        self._tier2_all = self.engine == TIER2
        #: on-stack replacement: a call spinning in the block tier
        #: enters tier-2 at a hot loop header (and a deopted call may
        #: re-enter the same way); a call whose translation already
        #: exists starts in it.  ``None`` defers to ``PVI_OSR``.
        self._osr = self.engine != REFERENCE and \
            (osr_enabled() if osr is None else bool(osr))
        #: an explicit threshold enters at exactly that back-edge
        #: count; the default one only asks the payback gate
        self._osr_threshold, self._osr_gated = osr_threshold(threshold)
        #: calls entered via tier-2 at pc 0, successful mid-call OSR
        #: entries, and the subset of OSR entries that re-entered after
        #: an earlier tier-2 deopt in the same call
        self.tier2_promotions = 0
        self.osr_entries = 0
        self.deopt_reentries = 0
        #: validated predecodes, by function name
        self._predecoded: Dict[str, Predecoded] = {}

    def tiering_stats(self) -> Dict[str, int]:
        """The tiering counters in machine-readable form (bench JSON
        attaches these so BENCH files prove the policy fired)."""
        return {"tier2_promotions": self.tier2_promotions,
                "osr_entries": self.osr_entries,
                "deopt_reentries": self.deopt_reentries}

    def _entry(self, name: str, args):
        """The function a public call of ``name`` enters; a missing
        name, a wrong argument count or an integer argument outside
        its parameter's declared type traps, on every engine."""
        func = self.module.functions.get(name)
        if func is None:
            raise TrapError(f"no such function {name!r}")
        if len(args) != func.num_params:
            raise TrapError(f"{name} expects {func.num_params} args, "
                            f"got {len(args)}")
        for index, (value, tag) in enumerate(zip(args, func.param_types)):
            whole = TAG_INTERVALS.get(tag)
            if whole is not None and isinstance(value, int) and \
                    not whole.lo <= value <= whole.hi:
                raise TrapError(f"{name}: argument {index} = {value} "
                                f"is not an {tag}")
        return func

    def _predecode(self, func) -> Predecoded:
        pre = self._predecoded.get(func.name)
        if pre is None:
            pre = self._predecoded[func.name] = self._load(func)
        return pre

    def _load(self, func) -> Predecoded:
        raise NotImplementedError


#: per-call counter value that retires an OSR leader (a declined
#: entry can never succeed later in the same call — the counter is
#: parked so far negative it cannot re-cross the threshold)
_OSR_DISABLED = -(1 << 62)


def run_tiered(machine: TieredMachine, pre: Predecoded,
               frame: tuple) -> None:
    """Run one call of ``pre`` on ``machine`` to its return.  ``frame``
    is the handler argument tuple the engine built (its state, memory,
    the machine); the engine reads the result back from it.

    A hinted function (or any, under the ``tier2`` engine) builds
    before its first instruction; an OSR candidate starts in a
    translation that already exists.  ``_t2`` runs to completion (-1)
    or deopts by returning a block leader, undebited, for the block
    tier to continue from (which re-debits and meters the fuel trap
    exactly as usual).

    With OSR on, the block loop counts every backward transfer to a
    candidate loop header; at the threshold the live frame *is* the
    snapshot and ``_t2`` is entered at that leader.  With no
    translation in hand a crossing under the default threshold first
    asks the payback gate, handing it the instructions executed since
    the last crossing — once per ``threshold`` back edges, never per
    block; "not yet" keeps counting, a declined build stops the call
    counting at all.  The tier-2 prologue revalidates its entered-once
    facts from the snapshot and declines by returning the entry pc
    untouched, and that leader is retired for the rest of the call.  A
    deopted call keeps counting, so hot deopt sites re-enter ``_t2``
    instead of finishing the call in the block tier.  Entries and
    deopts are undebited: counts and traps stay byte-identical to the
    plain loop."""
    handlers = pre.handlers
    pc = 0
    deopted = False
    leaders = machine._osr and pre.osr_leaders
    t2 = pre.tier2() if machine._tier2_all or pre.tier2_hint \
        else pre.built_tier2() if leaders else None
    if t2 is not None:
        machine.tier2_promotions += 1
        pc = t2(*frame)
        deopted = pc >= 0
    if pc >= 0 and leaders:
        threshold = machine._osr_threshold
        gated = machine._osr_gated
        executed = pre.steps.low.executed
        counts: Dict[int, int] = {}
        asked_at = getattr(machine, executed)
        while pc >= 0:
            try:
                new_pc = handlers[pc](*frame)
            except MeterTrip as trip:
                replay_metered(pre, trip.pc, machine, *frame)
            if 0 <= new_pc <= pc and new_pc in leaders:
                count = counts.get(new_pc, 0) + 1
                if count < threshold:
                    counts[new_pc] = count
                else:
                    counts[new_pc] = 0
                    if t2 is None:
                        if gated:
                            now = getattr(machine, executed)
                            t2 = pre.tier2_repaid(now - asked_at)
                            asked_at = now
                        else:
                            t2 = pre.tier2()
                        if t2 is None:      # not repaid yet; or the
                            if pre.tier2_declined:  # build declined:
                                leaders = ()        # stop counting
                            pc = new_pc
                            continue
                    entered = new_pc
                    new_pc = t2(*frame, entered)
                    if new_pc == entered:
                        counts[entered] = _OSR_DISABLED
                    else:
                        machine.osr_entries += 1
                        if deopted:
                            machine.deopt_reentries += 1
                        deopted = new_pc >= 0
            pc = new_pc
    while pc >= 0:
        try:
            pc = handlers[pc](*frame)
        except MeterTrip as trip:
            replay_metered(pre, trip.pc, machine, *frame)
