"""The tier scaffold under both predecode engines.

:mod:`repro.vm.threaded` (PVI bytecode, a virtual operand stack) and
:mod:`repro.targets.dispatch` (machine code, ``_UNSET`` register
files) translate a function the same way: one Python function per
fuel block, a lazily built whole-function tier-2 translation, and
one-instruction handlers for the trap paths — all three generated
from the engine's one per-opcode lowering.  The block tier compiles
block *shapes*, not functions: a block is an instance of a memoized
template with its constants as holes (:func:`block_template`), so a
first call compiles only the shapes the process has never seen.
Everything about that translation that is *not* the operand model
lives here, once:

* the build-site statistics (:class:`Tier2BuildStats`) and the
  predecoded form with its lazy, thread-safe ``tier2()`` build and
  the promotion policy in front of it — build from OSR only what has
  repaid the build (:class:`Predecoded`, :data:`TIER2_PAYBACK`);
* the content-token cache protocol and the block-tier build loop
  (:meth:`Lowering.predecode`, :meth:`Lowering.build`);
* the template memo and instantiation (:func:`block_template`,
  :class:`Holes`, :meth:`Lowering.instance`), with its counters
  (:func:`template_stats`);
* one-instruction stepping: the lazy table of length-1 blocks
  (:class:`StepTable`) behind the bail-out fallback body and the
  metered replay (:func:`replay_metered`);
* the block line emitter (:class:`BlockEmitter`): temps, the marks
  of instructions that can raise, how constants are spelled (a hole
  or a literal), the bounds / store / reduce / quad forms both
  engines spell identically, and tier-2's in-block and interval
  knowledge (:class:`Interval`);
* the debit protocol over per-block *counter vectors*
  (:class:`Tier2Writer`, :meth:`Lowering.block_source`) and the one
  trap rollback of both tiers, a source-line table per block
  (:func:`body_under_rollback`);
* the tier-2 dispatcher: hot-span ordering, two-block loop fusion,
  counted loops — a fused loop whose induction the engine's hook
  finds (:meth:`Lowering.induction`, :class:`Induction`) runs as a
  ``for ... in range`` with no fuel compare, exit test, i32 / u64
  wrap or bounds check of an affine access per iteration, under one
  guard at loop entry whose refused states deopt at the header
  (:meth:`Tier2Writer.counted`; its latch's accesses as data,
  :class:`Access`), and an integer reduction folds every trip but
  the last into one builtin (:func:`fold_of`) — the OSR entry
  whitelist and prologue, the ``pc`` ladder and its deopt arms
  (:meth:`Lowering.tier2_source`, :func:`fused_loops`).

An engine is a :class:`Lowering` subclass: class attributes carry its
data (handler signature, counter names, fuel trap, source tags) and a
handful of hooks carry its operand model.  Nothing here asks which
engine is calling; the engines import this module, never the reverse.

The runtime half of tiering is written here too, once for both
machines: the policy state (:class:`TieredMachine`, which ``VM`` and
``Simulator`` inherit) and the one trampoline that runs a call
(:func:`run_tiered`): entry into a built or hinted translation, the
OSR back-edge counter with the payback gate in front of the build,
the plain block loop, and the metered replay of a
:class:`repro.engine.MeterTrip`.  It calls every handler with the
engine's frame tuple, ``handlers[pc](*frame)``.  That splat costs
about 12-15 ns a dispatch on CPython 3.11.7 (an 8-argument handler in
a dispatch loop, 34 -> 46 ns on a 2-core Xeon); a
``device_first_call`` operation dispatches 191 blocks in about 1.7 ms
and an ``exec_steady`` call 1 496 on its first call after warming,
165 by its sixth, in about 2.2 ms — at most 1 %.  What stays per
engine is the frame itself: building it, the memory frame push and
pop around the call, and reading the result back.
"""

from __future__ import annotations

import ast
import functools
import re
import struct
import threading
from types import CodeType, FunctionType
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.cfg import BlockCFG
from repro.bytecode.opcodes import TYPE_TAGS
from repro.engine import (
    REFERENCE, TIER2, CodegenEnv, MASK64_LITERAL, MeterTrip,
    backedge_targets, fuel_blocks, keep_osr_guards, osr_enabled,
    osr_threshold, resolve_engine,
)
from repro.lang import types as ty
from repro.semantics.errors import TrapError
from repro.semantics.kernels import (
    binop_kernel, cast_kernel, identity_kernel, inline_binop, inline_cast,
    is_f32_quad, quad_batch,
)
from repro.semantics.memory import (
    NULL_GUARD, PACK_COERCE_ERRORS, scalar_struct,
)


class Tier2BuildStats:
    """Tier-2 build-site accounting, one instance per engine.  What
    each bucket proves:

    * ``warm`` — builds a caller asked for ahead of a run
      (``warm_module`` / ``warm_bytecode_module``); ``request`` —
      builds that happened inside a run (a hinted function's first
      call, or an OSR crossing the payback gate let through).  An
      image built ahead keeps ``request`` at zero: the explicit call
      prepaid whole-function codegen.
    * ``deferred`` — OSR threshold crossings where the payback gate
      (:meth:`Predecoded.tier2_repaid`) said "not yet": the function
      was hot enough to ask and had not yet spent what a build costs.
      ``deferred > 0`` with ``request == 0`` answers "why did this
      function never promote?" — it never ran long enough to repay
      the build.
    * ``facts_warm`` / ``facts_request`` — builds that computed the
      table they generate code under, by the same split: fresh machine
      analyses, and VM builds that found no table they could adopt
      shipped in the bytecode.
    * ``guards_elided`` / ``guards_kept`` — OSR prologue fact guards
      the analysis proved redundant (kept only under
      ``PVI_OSR_GUARDS=1``).
    * ``loops_fused`` / ``loops_ladder`` / ``loops_counted`` — loops
      of the built translations (:func:`loop_back_edges`) that run as
      a native ``while`` (two blocks, either layout: :func:`fused_loops`),
      that go round the ``pc`` ladder, and the fused ones that run
      *counted* instead, a ``for`` over ``range`` under one guard at
      loop entry (:meth:`Tier2Writer.counted`).  They answer
      "why is this loop slow in tier-2?": ``loops_ladder > 0`` — it has
      one block, three or more, or two latches; fused but not counted
      — its function calls, its header can raise, or it is not
      ``for (iv < bound; iv += c)`` as far as the engine's induction
      hook (:meth:`Lowering.induction`) can tell.
    * ``accesses_hoisted`` / ``accesses_checked`` / ``loops_folded`` —
      of the counted loops' latches: the memory accesses whose address
      is affine in the induction variable, proven in range by the
      guard and unchecked in the body; those that keep a per-trip
      check (a loaded index, say); and the latches whose trips but the
      last fold into one builtin (:func:`fold_of`).  "Why does this
      loop still check?" — its ``accesses_checked``."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(
            ("warm", "request", "deferred", "facts_warm", "facts_request",
             "guards_elided", "guards_kept", "loops_fused",
             "loops_ladder", "loops_counted", "loops_folded",
             "accesses_hoisted", "accesses_checked"), 0)

    def tier2_build_stats(self) -> dict:
        """Copy of the tier-2 build-site counters."""
        return dict(self.counts)

    def reset_tier2_build_stats(self) -> None:
        for key in self.counts:
            self.counts[key] = 0


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

#: serializes first-time tier-2 and step builds.  Predecodes ride
#: shared images (the deploy memo hands one object to every caller);
#: the builds are pure Python, so one process-wide lock costs nothing
#: a per-function lock would save.
_BUILD_LOCK = threading.Lock()


class StepTable(dict):
    """``pc -> handler`` for one instruction at a time: the engine's
    block-tier lowering of the one-instruction block ``(pc, 1)``,
    instantiated on first use from a template without the debit
    prologue (same memo, same path as a block).  A length-1 block
    pops every operand it did not produce from the engine's storage
    and flushes every result back, so it is exactly one step of the
    reference ladder — the per-opcode lowering stays the only
    fast-engine statement of what an opcode does.

    Only trap paths step: the metered replay (:func:`replay_metered`)
    and the generated fallback body of a block whose lowering bailed.
    A step that cannot be lowered raises the lowering's exception when
    it is *executed*, as the reference ladder only fails on the
    instruction it runs: the look-up itself raises and stores nothing,
    so every execution lowers again and fails afresh (a stored
    exception would grow its traceback with every re-raise and pin
    each failed call's frames)."""

    def __init__(self, low: Lowering):
        super().__init__()
        #: the block-tier build's lowering, continued lazily
        self.low = low

    def __missing__(self, pc: int) -> Callable:
        with _BUILD_LOCK:
            if pc not in self:          # a racing thread may have won
                low = self.low
                em = low.lower_block(pc, 1)
                text = "\n".join([f"def _b({low.signature}):",
                                  *("    " + line for line in em.lines)])
                self[pc] = low.instance(text, em.env.env,
                                        f"{low.name}@{pc}")
        return self[pc]


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
            with _BUILD_LOCK:
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


# ---------------------------------------------------------------------------
# the runtime: one tiering policy and one trampoline for both machines
# ---------------------------------------------------------------------------

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
            bounds = _INT_BOUNDS.get(tag)
            if bounds is not None and isinstance(value, int) and \
                    not bounds[0] <= value <= bounds[1]:
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


#: integer type tag -> (least, greatest) value of the type
_INT_BOUNDS = {tag: (ty.int_min(t), ty.int_max(t))
               for tag, t in TYPE_TAGS.items() if ty.is_integer(t)}


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


class Tier(NamedTuple):
    """How one tier shapes the per-instruction lowering.  Exactly two
    instances exist per engine (:func:`block_tier`, :func:`whole_tier`)
    and ``_gen_block_lines`` is called with one of them."""

    #: whole-function tier: kernels inlined as expressions where
    #: provably identical, pure values deferred so statements fuse
    tier2: bool
    #: the engine's storage lvalue format (list cell vs Python local)
    place: str
    #: a control transfer: ``return pc`` to the trampoline vs ``pc =``
    #: inside the generated dispatcher
    goto_fmt: str
    #: memory buffer / size expressions (hoisted into locals in tier-2)
    data: str
    size: str


def block_tier(place: str) -> Tier:
    return Tier(False, place, "return {0}", "mem.data", "mem.size")


def whole_tier(place: str) -> Tier:
    return Tier(True, place, "pc = {0}", "_md", "_ms")


# ---------------------------------------------------------------------------
# block templates: one compile() per block shape, per process
# ---------------------------------------------------------------------------
#
# The block tier never compiles a function's source.  Every block (a
# fuel block, its stepping fallback, a one-instruction step) is lowered
# to a *template* — the text of one ``def _b(<signature>)`` — plus its
# hole values, and runs as an instance of the template's memoized code.
#
# Shape and hole.  The template text is the block's shape: the
# signature, which counters it debits, the statement structure,
# whether it has a ``try``.  Every number and every object the
# lowering formats is a hole, ``h<k>`` in order of occurrence (one per
# occurrence, bar a value the text structurally repeats, like the
# block length): register, local and slot indexes, immediates, branch
# targets, debit and charge amounts, the leader, kernels, messages,
# and the rollback line table (two blocks with one text may split
# their lines between instructions differently).  Constants that never
# vary (the 64-bit mask, the null guard, access sizes) stay literal; a
# literal left in the text is still correct, only less shared.
#
# An instance is a ``FunctionType`` over a *private copy* of the
# template's code and a small globals dict holding the holes: a hole
# costs one ``LOAD_GLOBAL`` where it is used and nothing per call, and
# CPython's inline caches are not shared between instances with
# different dicts.  Closure cells and default arguments cost every
# call in proportion to the hole count, cold-path holes included, and
# measured dearer: DESIGN.md section 2 has the numbers, do not retry
# them.

class Holes(CodegenEnv):
    """One block-tier block's constants: every object *and* every
    integer becomes the next positional hole of the block's template
    (``env``: hole name -> value, the instance's private globals)."""

    def __init__(self) -> None:
        super().__init__({})

    def bind(self, value, prefix: str = "h") -> str:
        return super().bind(value, "h")

    lit = bind


#: compiled templates the process keeps.  Measured populations: one
#: ``device_first_call`` census cycle (77 first calls on 7 targets,
#: 758 blocks) builds 89 shapes; the digest corpus (11 kernels x 2
#: flows x 7 targets, 1374 blocks) 97; the whole tier-1 suite
#: (fuzzers and malformed code included) 563 from 23536 blocks and
#: steps.  An evicted template only costs a recompile; live
#: instances hold their own code.
TEMPLATE_SHAPES = 1024


@functools.lru_cache(maxsize=TEMPLATE_SHAPES)
def block_template(engine: type, text: str) -> CodeType:
    """The compiled ``def`` of one template text, shared by every
    block of that shape: in this function, another function, another
    target, another module.  The key is the shape and nothing else (no
    function, token or target), so never-seen code reuses what other
    code compiled.  Two threads missing on one text compile it twice
    and keep one."""
    module = compile(text, f"<{engine.tags[0]}:block>", "exec")
    return next(const for const in module.co_consts
                if isinstance(const, CodeType))


def template_stats() -> dict:
    """The template memo's counters: shapes resident, instantiations
    that found theirs (``hits``) and ``compile()`` calls (``misses``)."""
    info = block_template.cache_info()
    return {"resident": info.currsize, "hits": info.hits,
            "misses": info.misses}


#: what a counted loop's guard admits: the induction variable stays
#: below ``I32_LIMIT`` (so ``iv + c`` never wraps), and a loop-invariant
#: base the lowering leaned on is below ``BASE_LIMIT`` (so a base plus
#: an offset derived from the induction variable is a u64 as it is)
I32_LIMIT = 1 << 31
BASE_LIMIT = 1 << 62


class Affine(NamedTuple):
    """A counted loop's value as a function of its trip: ``scale * iv
    + offset + sum(k * name for name, k in terms)`` in exact integer
    arithmetic, over loop-invariant ints ``terms`` (sorted)."""

    scale: int
    offset: int
    terms: Tuple[Tuple[str, int], ...] = ()

    def plus(self, other: "Affine", sign: int = 1) -> "Affine":
        terms = dict(self.terms)
        for name, k in other.terms:
            terms[name] = terms.get(name, 0) + sign * k
        return Affine(self.scale + sign * other.scale,
                      self.offset + sign * other.offset,
                      tuple(sorted((n, k) for n, k in terms.items() if k)))

    def times(self, k: int) -> "Affine":
        return Affine(self.scale * k, self.offset * k,
                      tuple((n, c * k) for n, c in self.terms if c * k))

    def at(self, iv: str) -> str:
        """Python text of the value on the trip whose induction
        variable is the expression ``iv``."""
        parts = [] if not self.scale else \
            [iv if self.scale == 1 else f"{self.scale} * {iv}"]
        parts += [n if k == 1 else f"{k} * {n}" for n, k in self.terms]
        text = " + ".join(parts) or "0"
        if self.offset:
            text += f" + {self.offset}" if self.offset > 0 \
                else f" - {-self.offset}"
        return text


class Interval(NamedTuple):
    """What a lowered integer name or operand is known to hold:
    ``lo <= value <= hi``.  ``deps`` names the loop-invariant values
    whose *assumed* range it rests on; a wrap dropped on its strength
    makes the counted loop's guard check them (:meth:`BlockEmitter.fits`).
    In a counted loop's latch, ``aff`` is the value's exact
    :class:`Affine` form, when it has one."""

    lo: int
    hi: int
    deps: frozenset = frozenset()
    aff: Optional[Affine] = None


def int_interval(int_ty) -> Interval:
    """Every value of ``int_ty``."""
    return Interval(ty.int_min(int_ty), ty.int_max(int_ty))


def affine_of(rng: Interval) -> Optional[Affine]:
    """The exact affine form of a value known to lie in ``rng``: its
    own, or a constant's."""
    if rng.aff is None and rng.lo == rng.hi and not rng.deps:
        return Affine(0, rng.lo)
    return rng.aff


class Access(NamedTuple):
    """One memory access of a counted loop's latch whose address is
    affine in the induction variable: proven in range for every trip
    by its guard, so the body carries no check
    (:meth:`BlockEmitter.proved`)."""

    #: the lowered name holding the address
    addr: str
    aff: Affine
    width: int
    #: the access's ``struct`` format (its element type and lane count)
    fmt: str
    #: the index of the latch line the access's statement follows
    line: int


class Induction(NamedTuple):
    """A fused loop that can run counted, as the engine's hook
    (:meth:`Lowering.induction`) reads it off the instructions: the
    header tests ``iv < bound`` (a signed compare, its ``brif`` taken
    into the latch), the latch ends in the only write of ``iv``, one
    i32 ``iv + step``, and nothing in the loop writes ``bound``.
    Names are the lowered (tier-2) ones."""

    iv: str
    #: a lowered name or an integer literal
    bound: str
    step: int
    #: the increment's destination when it is not ``iv`` (then copied
    #: into ``iv``); no instruction of the loop reads the value the
    #: increment leaves there, so the counted latch drops both
    temp: Optional[str]
    #: pcs of the increment (and the copy) the counted latch drops
    skip: frozenset
    #: pc of the header's compare: 1 on every counted iteration
    flag: int
    #: integer names no instruction of the loop writes
    invariants: frozenset


def wraps_u64(value_ty) -> bool:
    """Is a pure inline result of ``value_ty`` a wrapped u64: in range
    as an address, whatever it is computed from?"""
    return isinstance(value_ty, ty.IntType) and value_ty.bits == 64 \
        and not value_ty.signed


class BlockEmitter:
    """Source lines of one fuel block's body, plus the *marks* that
    say which instruction each line belongs to.

    A mark ``(line index, instruction offset)`` is recorded before the
    first line of every instruction whose generated code can raise —
    in both tiers: the per-opcode lowering sets :attr:`impure` where
    it emits a kernel call, a memory access or a ``raise``.  If that
    instruction traps mid-block, the rollback handler maps the
    trapping source line through the marks to roll the block-entry
    fuel debit back to exactly the reference engine's per-instruction
    count (:func:`body_under_rollback`); the hot path carries no
    progress stores, and a block with no mark gets no handler.

    ``env`` decides how constants appear in the lines: ``env.bind``
    for objects, :attr:`lit` for integers.  Tier-2 names objects into
    the function's exec environment and writes integers out; in the
    block tier both are the next hole of the block's template
    (:class:`Holes`).

    **In-block knowledge** (tier-2 only; the block tier's templates
    must not move).  A block is entered only at its leader and runs
    in program order, so what an earlier line established holds until
    the name it is about is assigned again (:meth:`rewrite`) — no
    fixpoint, no table: :attr:`proven` ``(address name, width)`` pairs
    a bounds check already raised on, :attr:`masked` names holding a
    wrapped-u64 inline result (no re-mask as an address), :attr:`lanes`
    of vectors a load, a splat or an inlined quad wrote.  ``widths``
    (the lowering's) collects the access widths checked against a
    ``_ms<width>`` limit, which the dispatcher hoists.

    **Interval knowledge** (the blocks of a counted loop only:
    ``induction``).  :attr:`ranges` holds an :class:`Interval` per
    name, seeded with what the loop's guard establishes — the
    induction variable in ``[0, I32_LIMIT - 1 - step]``, every
    loop-invariant integer *assumed* in ``[0, BASE_LIMIT)`` — and
    carried through the adds, subtracts, multiplies, constant shifts
    and integer casts the engine asks about (:meth:`exact_binop`,
    :meth:`fits`); the dict is empty in every other lowering.  Where
    a result provably needs no wrap the
    engine leaves the wrap out, and the assumptions that proved it
    land in :attr:`leaned`, which the guard then checks.  The engine
    also drops the pcs in :attr:`skip` and writes 1 for the compare
    at :attr:`flag`.

    **The loop as data** (a counted loop's latch only: ``hoist``).
    Each interval also carries the value's exact :class:`Affine` form
    in the induction variable, where it has one.  A wrap of an affine
    value that the interval cannot prove the identity is dropped
    anyway and recorded in :attr:`clauses` — the guard proves it the
    identity on the first and the last trip, which covers every trip
    between.  Every access whose address is affine is recorded in
    :attr:`accesses` instead of checked (:meth:`proved`); the others
    keep their check and are counted in :attr:`checked`.  Lane
    reductions folded by one builtin are recorded in
    :attr:`reductions`, for :func:`fold_of`."""

    def __init__(self, env: CodegenEnv, tier: Tier, widths: set,
                 induction: Optional[Induction] = None,
                 hoist: bool = False):
        self.env = env
        self.lit = env.lit
        self.tier = tier
        self.lines: List[str] = []
        self.marks: List[Tuple[int, int]] = []
        #: current instruction: where its lines start, and whether it
        #: emitted code that can raise (forces its mark)
        self.marker_at = 0
        self.impure = False
        self._temps = 0
        self.proven: set = set()
        self.masked: set = set()
        self.lanes: dict = {}
        self.widths = widths
        self.ranges: dict = {}
        self.leaned: set = set()
        self.skip: frozenset = frozenset()
        self.flag: Optional[int] = None
        self.clauses: Optional[set] = set() if hoist else None
        self.accesses: List[Access] = []
        self.checked = 0
        #: right-hand side text -> ``(reduce op, vector name, acc type)``
        self.reductions: dict = {}
        if induction is not None:
            self.skip, self.flag = induction.skip, induction.flag
            for name in induction.invariants:
                self.ranges[name] = Interval(
                    0, BASE_LIMIT - 1, frozenset((name,)),
                    Affine(0, 0, ((name, 1),)))
            self.ranges[induction.iv] = Interval(
                0, I32_LIMIT - 1 - induction.step, aff=Affine(1, 0))

    def newt(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def emit(self, text: str, indent: str = "") -> None:
        self.lines.append(indent + text)

    def begin(self) -> None:
        """Start lowering the next instruction."""
        self.marker_at = len(self.lines)
        self.impure = False

    def end(self, offset: int) -> None:
        """Finish the instruction at block offset ``offset``."""
        if len(self.lines) > self.marker_at and self.impure:
            self.marks.append((self.marker_at, offset))

    # -- in-block knowledge ---------------------------------------------------

    def rewrite(self, name: str, masked: bool = False,
                lanes: Optional[int] = None,
                rng: Optional[Interval] = None) -> None:
        """``name`` (a lowered register or local) is assigned: forget
        its old value, keep what is known of the new one."""
        self.proven = {pair for pair in self.proven if pair[0] != name}
        (self.masked.add if masked else self.masked.discard)(name)
        self.lanes[name] = lanes
        if rng is None:
            self.ranges.pop(name, None)
        else:
            self.ranges[name] = rng

    def fits(self, rng: Optional[Interval],
             int_ty) -> Optional[Interval]:
        """``rng`` if every value in it is a value of ``int_ty`` — a
        wrap into ``int_ty`` is then the identity, and the assumptions
        ``rng`` rests on are leaned on — else ``None``."""
        if rng is None or not isinstance(int_ty, ty.IntType):
            return None
        whole = int_interval(int_ty)
        if whole.lo <= rng.lo <= rng.hi <= whole.hi:
            self.leaned |= rng.deps
            return rng
        # An affine value in a latch: the guard makes the wrap the
        # identity instead, by a clause on the first and last trip.
        lo, hi = max(rng.lo, whole.lo), min(rng.hi, whole.hi)
        if self.clauses is None or rng.aff is None or lo > hi:
            return None
        clause = (rng.aff, whole.lo, whole.hi)
        self.clauses.add(clause)
        return rng._replace(lo=lo, hi=hi)

    def exact_binop(self, op: str, int_ty, a: Optional[Interval],
                    b: Optional[Interval]) -> Optional[Interval]:
        """The interval of ``a op b`` when the unwrapped result is a
        value of ``int_ty`` (:meth:`fits`), else ``None``."""
        if a is None or b is None or not isinstance(int_ty, ty.IntType):
            return None
        x, y = affine_of(a), affine_of(b)
        both = x is not None and y is not None
        aff = None
        if op == "add":
            lo, hi = a.lo + b.lo, a.hi + b.hi
            aff = x.plus(y) if both else None
        elif op == "sub":
            lo, hi = a.lo - b.hi, a.hi - b.lo
            aff = x.plus(y, -1) if both else None
        elif op == "mul":
            ends = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
            lo, hi = min(ends), max(ends)
            if both and not (x.scale or x.terms):
                aff = y.times(x.offset)
            elif both and not (y.scale or y.terms):
                aff = x.times(y.offset)
        elif op == "shl" and b.lo == b.hi:
            shift = b.lo & (int_ty.bits - 1)
            lo, hi = a.lo << shift, a.hi << shift
            aff = x.times(1 << shift) if x is not None else None
        else:
            return None
        return self.fits(Interval(lo, hi, a.deps | b.deps, aff), int_ty)

    def frame(self, offset: int) -> Optional[Interval]:
        """What is known of the frame address ``fb + offset`` (``fb``,
        the frame base, is an invariant of every loop)."""
        if not self.ranges:
            return None
        return Interval(offset, BASE_LIMIT - 1 + offset,
                        frozenset(("fb",)), Affine(0, offset, (("fb", 1),)))

    def address(self, expr: str, masked: bool,
                rng: Optional[Interval] = None) -> str:
        """The name of the 64-bit address ``expr``: a wrapped-u64
        inline result (``masked``) is in range already and is only
        given a single-evaluation name if it lacks one.  ``rng``: what
        is known of the unwrapped value (a counted loop's blocks), kept
        under the name for :meth:`proved`."""
        if not masked and rng is not None:
            rng = self.fits(rng, ty.U64)
            masked = rng is not None
        if masked and expr.isidentifier():
            name = expr
        else:
            name = self.newt()
            self.emit(f"{name} = {expr}" if masked
                      else f"{name} = ({expr}) & {MASK64_LITERAL}")
        if rng is not None:
            self.ranges[name] = rng
        return name

    def bound_limit(self, size: int) -> Optional[str]:
        """The upper-bound operand of a ``size``-byte access: tier-2
        hoists ``_ms - size``, so hot loops pay no add per check."""
        if not self.tier.tier2:
            return None
        self.widths.add(size)
        return f"_ms{size}"

    # -- templates both engines spell identically ----------------------------

    def proved(self, addr: str, packer) -> bool:
        """Is the access ``packer`` describes at ``addr`` in range with
        no check here?  It is when an earlier check of this block
        raised on the same pair and the name has not been assigned
        since, or — in a counted loop's latch — when the address is
        affine: then it is recorded for the guard (:class:`Access`)."""
        size = packer.size
        if (addr, size) in self.proven:
            return True
        if self.clauses is None:
            return False
        rng = self.ranges.get(addr)
        if rng is None or rng.aff is None:
            self.checked += 1
            return False
        self.accesses.append(Access(addr, rng.aff, size, packer.format,
                                    len(self.lines)))
        self.proven.add((addr, size))
        self.widths.add(size)
        return True

    def bounds(self, addr: str, packer) -> None:
        """Range-check the access ``packer`` describes at ``addr``,
        unless it is :meth:`proved`."""
        if self.proved(addr, packer):
            return
        size = packer.size
        limit = self.bound_limit(size)
        if limit is not None:
            self.proven.add((addr, size))
        upper = f"{addr} > {limit}" if limit is not None \
            else f"{addr} + {size} > {self.tier.size}"
        self.emit(f"if {addr} < {NULL_GUARD} or {upper}:")
        self.emit('raise TrapError(f"memory access out of bounds: '
                  'addr={' + addr + ':#x} size=' + str(size) + '")',
                  "    ")

    def store_kernels(self, value_ty):
        """``(packer, pack name, coerce name)`` for a scalar store —
        bound before the operands are read, like every kernel."""
        packer = scalar_struct(value_ty)
        pack = self.env.bind(packer.pack_into, "p")
        if isinstance(value_ty, ty.IntType):
            coerce = self.env.bind(
                lambda v, _t=value_ty: ty.wrap_int(int(v), _t), "w")
        else:
            coerce = "float"
        return packer, pack, coerce

    def store(self, pack: str, coerce: str, addr: str,
              value: str) -> None:
        """Pack straight into the buffer; values the struct rejects
        retry through the reference's coercion."""
        data = self.tier.data
        self.emit("try:")
        self.emit(f"{pack}({data}, {addr}, {value})", "    ")
        self.emit("except _PE:")
        self.emit(f"{pack}({data}, {addr}, {coerce}({value}))", "    ")

    def reduce(self, reduce_op: str, elem, acc_ty,
               read_vec: Callable[[], str]) -> str:
        """Fold a vector into an accumulator temp (returned).
        ``read_vec`` emits the operand read and names the vector.
        Lanes hold values of ``elem``, so where widening is the
        identity tier-2 folds in one builtin call: ``max`` / ``min``
        are the same left fold as the loop (NaN order included) over
        values no wrap changes, and two's-complement wrap distributes
        over ``+``, so an integer sum wraps once.  Float ``add`` keeps
        the loop: it rounds per lane."""
        if reduce_op not in ("add", "max", "min"):
            raise TrapError(f"reduce op {reduce_op!r} undefined")
        env = self.env
        widen_kernel = cast_kernel(elem, acc_ty)
        widen_tpl = fold_tpl = None
        if self.tier.tier2:
            if widen_kernel is identity_kernel:
                widen_tpl = ("{a}", True)
            else:
                widen_tpl = inline_cast(elem, acc_ty, env)
            fold_tpl = inline_binop(reduce_op, acc_ty, env)
        vec = read_vec()
        acc, lane = self.newt(), self.newt()
        if not self.lanes.get(vec):     # unless this block wrote lanes
            self.emit(f"if not {vec}:")
            self.emit("raise TrapError('reduce of empty vector')", "    ")
        if widen_tpl is not None and widen_tpl[1] \
                and fold_tpl is not None and fold_tpl[1]:
            # Inline the whole fold: no kernel call per lane.
            wexpr = widen_tpl[0]
            if widen_kernel is identity_kernel and (
                    reduce_op != "add" or isinstance(acc_ty, ty.IntType)):
                # One builtin; a sum wraps once.
                folded = f"{reduce_op}({vec})" if reduce_op != "add" \
                    else inline_cast(acc_ty, acc_ty, env)[0].format(
                        a=f"sum({vec})")
                self.emit(f"{acc} = {folded}")
                if self.clauses is not None:
                    self.reductions[folded] = (reduce_op, vec, acc_ty)
                return acc
            self.emit(f"{acc} = {wexpr.format(a=f'{vec}[0]')}")
            self.emit(f"for {lane} in {vec}[1:]:")
            self.emit(
                f"{acc} = "
                f"{fold_tpl[0].format(a=acc, b=wexpr.format(a=lane))}",
                "    ")
        else:
            widen = env.bind(widen_kernel, "k")
            fold = env.bind(binop_kernel(reduce_op, acc_ty), "k")
            self.emit(f"{acc} = {widen}({vec}[0])")
            self.emit(f"for {lane} in {vec}[1:]:")
            self.emit(f"{acc} = {fold}({acc}, {widen}({lane}))", "    ")
        return acc

    def quad_kernels(self, bop: str, elem):
        """``(pack name, unpack name, lane expressions)`` when tier-2
        can inline the 4-lane f32 batch kernel for ``bop``: the text
        the quad kernel is compiled from
        (:func:`repro.semantics.kernels.quad_batch`), minus the call.
        ``None`` for every other shape."""
        if not (self.tier.tier2 and is_f32_quad(bop, elem)):
            return None
        return quad_batch(bop, self.env)

    def quad(self, kernels, a: str, b: str, guards: List[str],
             dst: str, value_fmt: str, kernel: str) -> None:
        """``dst = value_fmt(quad(a, b))``; operands whose lane count
        is not proven (``guards``) fall back to the generic ``kernel``
        (any lane count, exact mismatch trap)."""
        qp, qu, cores = kernels
        pad = ""
        if guards:
            self.emit(f"if {' and '.join(guards)}:")
            pad = "    "
        self.emit(f"_a0, _a1, _a2, _a3 = {a}", pad)
        self.emit(f"_b0, _b1, _b2, _b3 = {b}", pad)
        self.emit(f"{dst} = {value_fmt.format(f'{qu}({qp}({cores}))')}",
                  pad)
        if guards:
            self.emit("else:")
            self.emit(f"{dst} = {kernel}({a}, {b})", "    ")


def fused_loops(code, blocks: Dict[int, int],
                bodies: Dict[int, Optional[List[str]]]) -> dict:
    """header -> ``(latch, condition, taken pc, fall pc)`` for every
    two-block natural loop — a header ending in ``brif`` and a lone
    latch ending in ``br header`` — that tier-2 runs as a native
    ``while`` inside the header's dispatch arm, so iterations pay no
    dispatch at all.  Layout does not matter: the header may precede
    its latch (``while``: the ``br`` is the back edge) or follow it
    (a rotated loop: the body ends in a forward ``br`` to the test
    block, whose ``brif`` jumps back).  What an iteration is debited
    and where a deopt returns is :meth:`Tier2Writer.loop`'s, counts
    byte-identical to the ladder form.  A latch that is itself a
    back-edge target (the rotated body always is) keeps a dispatch
    arm of its own, so it stays an OSR entry; any *other* entry into
    a fused latch lands in the else arm — a deopt, correct but
    slower; real loop latches have no such entries."""
    loops: dict = {}
    dropped = set()
    for src, instr in enumerate(code):
        if instr.op != "br" or not isinstance(instr.arg, int):
            continue
        header = instr.arg
        if header not in blocks:
            continue
        latch = max(b for b in blocks if b <= src)
        if latch == header or src != latch + blocks[latch] - 1:
            continue
        hbody, lbody = bodies.get(header), bodies.get(latch)
        if not hbody or not lbody or lbody[-1] != f"pc = {header}":
            continue
        branch = re.fullmatch(r"pc = (\d+) if (.+) else (\d+)",
                              hbody[-1])
        if branch is None:
            continue
        taken, fall = int(branch.group(1)), int(branch.group(3))
        if taken == fall or latch not in (taken, fall):
            continue
        if header in loops:
            dropped.add(header)     # two latches: keep the ladder form
        loops[header] = (latch, branch.group(2), taken, fall)
    for header in dropped:
        del loops[header]
    # (No block is both: a latch body ends in ``pc = <header>``, a
    # header body in a conditional ``pc = ... if ... else ...``.)
    return loops


def loop_back_edges(code) -> List[Tuple[int, int]]:
    """``(block, target)`` for every edge of the block graph that
    closes a loop: the back edges of a depth-first walk from the
    entry, one per loop of any size.  (A jump back to a block laid
    out earlier is layout, not a loop, unless it is one of these.)"""
    succ = BlockCFG(code).successors
    edges = []
    walk, path = {0: iter(succ.get(0, ()))}, [0]    # iterator: on the path
    while path:
        for target in walk[path[-1]]:
            if target not in succ:                  # leaves the function
                continue
            if target not in walk:
                walk[target] = iter(succ[target])
                path.append(target)
                break
            if walk[target] is not None:
                edges.append((path[-1], target))
        else:
            walk[path.pop()] = None
    return edges


def osr_entry_points(code, blocks, bodies) -> frozenset:
    """On-stack replacement entry points: the translated back-edge
    targets, each of which has a dispatch arm (a fused latch keeps
    its own only when it is one).  The trampoline may call
    ``_t2`` with ``pc`` at one of these, handing over the live
    block-tier frame mid-call; the prologue re-establishes every
    entered-once fact from that snapshot or declines the entry by
    returning ``pc`` untouched (nothing debited, nothing written — the
    block tier just continues)."""
    return frozenset(t for t in backedge_targets(code, blocks)
                     if bodies.get(t))


def body_under_rollback(out: List[str], pad: str, lines: List[str],
                        marks: List[Tuple[int, int]], length: int,
                        env: CodegenEnv) -> bool:
    """Append a block body to the source ``out`` at indent ``pad``:
    the one trap-rollback mechanism of both tiers.

    A block with no marks has no instruction that can raise — its
    lines go out bare and the result is ``False``.  Otherwise the
    body runs under one ``try`` whose ``except`` clause maps the
    trapping *source line* (the traceback's: its number in ``out``,
    which must hold the compiled text from its first line) back to
    the instruction offset whose mark covers it and leaves it in
    ``_i``; the caller appends, one level in, the statement that
    rolls its fuel debit back to that instruction, and ``raise``."""
    if not marks:
        out += [pad + line for line in lines]
        return False
    table = {}
    position, active = 0, length - 1
    out.append(pad + "try:")
    for index, line in enumerate(lines):
        while position < len(marks) and marks[position][0] <= index:
            active = marks[position][1]
            position += 1
        out.append(pad + "    " + line)
        table[len(out)] = active
    out.append(pad + "except Exception as _e:")
    out.append(f"{pad}    _i = {env.bind(table, 'lm')}.get("
               f"_e.__traceback__.tb_lineno, {env.lit(length - 1)})")
    return True


class Tier2Writer:
    """The source of one ``_t2`` and its debit protocol.

    Every fuel block has a *counter vector*: its length (the fuel
    debit) plus the engine's result counters (``charges`` — empty for
    the VM; ``instructions``, ``cycles`` and the non-zero ``branches``
    / ``spill_*`` / ``calls`` for the simulator, on the ``res``
    object).  Accounting comes in two shapes.  Functions containing
    calls keep every counter *live* on its object at every block debit
    (the callee's debits must interleave with the caller's exactly as
    per-instruction accounting would); call-free functions carry them
    in locals (``executed``, ``_r_<field>``) and flush on every exit
    path — except the raise paths, which flush fuel only: result
    counters are unobservable after a trap.  A field charged the fuel
    length in every block (the simulator's ``instructions``) is the
    fuel counter under another name: it is not carried, the flush adds
    the fuel delta to it.  Inside a fused loop of a call-free function
    (:meth:`loop`) only fuel is debited; the carried counters are
    settled from the fuel delta at each way out.

    A *deopt* writes the lowered state back, leaves the block
    **undebited** (every counter) and returns the leader to the
    block-threaded trampoline, which re-debits and — on fuel
    exhaustion — meters per instruction, so counts and trap messages
    stay byte-identical to the reference."""

    def __init__(self, env: CodegenEnv, fuel: str,
                 blocks: Dict[int, int], charges: Dict[int, dict],
                 fields: Tuple[str, ...], live: bool,
                 writeback: List[str]):
        self.out: List[str] = []
        self.env = env
        self.fuel = fuel
        self.blocks = blocks
        self.charges = charges
        self.live = live
        self.writeback = writeback
        used = [] if live else \
            [f for f in fields if any(f in c for c in charges.values())]
        #: fields that are the fuel counter under another name
        twins = [f for f in used
                 if all(charges[b].get(f) == n for b, n in blocks.items())]
        #: result counters carried in locals, in debit order
        self.carried = [f for f in used if f not in twins]
        #: inside a call-free loop, what its exits settle: the fuel of
        #: one iteration, then ``(field, per iteration, header's share)``
        self.settling: Optional[tuple] = None
        #: the carried counters' stores back to their objects
        self.flush: List[str] = []
        if not live:
            self.flush = [f"res.{f} += executed - {fuel}" for f in twins]
            self.flush.append(f"{fuel} = executed")
            if self.carried:
                self.flush.append("; ".join(
                    f"res.{f} = _r_{f}" for f in self.carried))

    def w(self, line: str, indent: int = 0) -> None:
        self.out.append(" " * indent + line)

    def load_carried(self, base: int) -> None:
        if not self.live:
            self.w(f"executed = {self.fuel}", base)
            if self.carried:
                self.w("; ".join(f"_r_{f} = res.{f}"
                                 for f in self.carried), base)

    def settle(self, base: int) -> None:
        """Leaving the loop in hand: per iteration the counter vector is
        a constant, so the fuel debited since loop entry (``_e0``) says
        what the carried counters are owed — whole iterations, plus the
        header's share when the remainder says the header was charged."""
        period, owed = self.settling
        if owed:
            self.w(f"_k, _h = divmod(executed - _e0, {period})", base)
            self.w("; ".join(
                f"_r_{f} += _k * {whole}"
                + (f" + ({part} if _h else 0)" if part else "")
                for f, whole, part in owed), base)

    def deopt(self, leader, base: int) -> None:
        if self.settling is not None:
            self.settle(base)
        for line in self.writeback + self.flush:
            self.w(line, base)
        self.w(f"return {leader}", base)

    def count(self, charge: dict, base: int) -> None:
        """Debit the result counters of one counter vector."""
        if self.live:
            for field, amount in charge.items():
                self.w(f"res.{field} += {amount}", base)
        elif self.settling is None:
            owed = [f"_r_{f} += {charge[f]}" for f in self.carried
                    if f in charge]
            if owed:
                self.w("; ".join(owed), base)

    def charge(self, leader: int, base: int) -> None:
        """Fuel check (deopt when the debit would cross the limit),
        then the whole counter vector."""
        length = self.blocks[leader]
        if self.live:
            self.w(f"executed = {self.fuel} + {length}", base)
            self.w("if executed > fuel:", base)
            self.deopt(leader, base + 4)
            self.w(f"{self.fuel} = executed", base)
        else:
            self.w(f"executed += {length}", base)
            self.w("if executed > fuel:", base)
            self.w(f"executed -= {length}", base + 4)
            self.deopt(leader, base + 4)
        self.count(self.charges[leader], base)

    def body(self, leader: int, base: int, lines: List[str],
             marks: List[Tuple[int, int]],
             debited: Optional[str] = None) -> None:
        """Block body at indent ``base``, under the line-table
        rollback (:func:`body_under_rollback`) when it can raise.
        ``debited``: the statement that first brings ``executed`` up
        to the block's debit (a counted loop debits nothing inside)."""
        length = self.blocks[leader]
        if not body_under_rollback(self.out, " " * base, lines, marks,
                                   length, self.env):
            return
        if debited is not None:
            self.w(debited, base + 4)
        if self.live:
            self.w(f"{self.fuel} -= {length} - _i - 1", base + 4)
        else:
            self.w(f"{self.fuel} = executed - ({length} - _i - 1)",
                   base + 4)
        self.w("raise", base + 4)

    def block(self, leader: int, base: int, lines, marks) -> None:
        self.charge(leader, base)
        self.body(leader, base, lines, marks)

    def per_trip(self, header: int, latch: int) -> tuple:
        """One iteration of a loop: its fuel, then what it charges each
        carried counter, ``(field, per iteration, header's share)``."""
        hcharge, lcharge = self.charges[header], self.charges[latch]
        return (self.blocks[header] + self.blocks[latch],
                [(f, whole, hcharge.get(f, 0)) for f in self.carried
                 if (whole := hcharge.get(f, 0) + lcharge.get(f, 0))])

    def loop(self, header: int, latch: int, exit_test: str,
             exit_target: int, base: int, hbody, hmarks, lbody,
             lmarks) -> None:
        """A fused two-block loop.  The header's terminal branch
        becomes the loop exit; the latch's terminal transfer to the
        header becomes the implicit back edge.

        The plain form debits per block, as the ladder does: what a
        function with calls and a header that can raise get.  A
        call-free function's loop debits fuel only (:meth:`settle`),
        and a header that cannot raise *merges* both fuel debits into
        one charge and one compare at the loop top: the exit refunds
        the latch's share, and when the merged debit crosses the limit
        the iteration runs in the ladder's order — header debit,
        header, exit, then the latch's debit, the one that crosses —
        so deopt pcs, fuel traps and counts stay byte-identical."""
        hlen, llen = self.blocks[header], self.blocks[latch]
        exits = [f"if {exit_test}:", f"    pc = {exit_target}",
                 "    break"]
        self.settling = self.per_trip(header, latch)
        if self.settling[1]:
            self.w("_e0 = executed", base)
        self.w("while 1:", base)
        inner = base + 4
        if self.live or hmarks:
            self.block(header, inner, hbody[:-1] + exits, hmarks)
            self.block(latch, inner, lbody[:-1], lmarks)
        else:
            self.w(f"executed += {hlen + llen}", inner)
            self.w("if executed > fuel:", inner)
            self.w(f"executed -= {llen}", inner + 4)
            self.w("if executed > fuel:", inner + 4)
            self.w(f"executed -= {hlen}", inner + 8)
            self.deopt(header, inner + 8)
            for line in hbody[:-1] + exits:
                self.w(line, inner + 4)
            self.deopt(latch, inner + 4)
            for line in hbody[:-1] + [exits[0], f"    executed -= {llen}",
                                      *exits[1:]]:
                self.w(line, inner)
            self.body(latch, inner, lbody[:-1], lmarks)
        self.settle(base)
        self.settling = None

    def counted(self, loop: CountedLoop, header: int, latch: int,
                exit_target: int, base: int, hlines: List[str]) -> None:
        """A merged loop, counted, under one guard at entry: ``iv``
        and ``bound`` are ints, ``0 <= iv`` and ``bound <= I32_LIMIT -
        step`` (no ``iv + step`` of the loop wraps), every base the
        lowering leaned on is an int in ``[0, BASE_LIMIT)``, the fuel
        covers every trip plus the header's last run, and — when the
        loop runs at all — two clauses per affine access and per
        dropped wrap of the latch (:attr:`BlockEmitter.clauses`): the
        exact value on the first trip and on the last lies in range (an
        address in ``[NULL_GUARD, _ms - width]``), so on every trip
        between.  Then the loop is a ``for iv in range`` with no fuel
        compare, no exit test and no check or wrap the guard covers,
        its blocks lowered under those facts, and the exit does at
        once what the last test would have left: ``iv`` past the
        bound, the increment's temp, the header's lines (its flag
        register 0) and the debits of every trip.  A foldable latch
        (:func:`fold_of`) runs every trip but the last as one builtin
        over one ``struct.unpack_from`` of the whole run, then the
        last through the body.  A trap in the body debits the trips up
        to its own, then rolls back through the latch's line table.  A
        refused state deopts at the header: the block tier runs it,
        and OSR re-enters once it heals (a refused OSR entry returns
        its own pc, so it is retired for the call)."""
        ind, hlen, fold = loop.induction, self.blocks[header], loop.fold
        period, owed = self.per_trip(header, latch)
        iv, bound, step = ind.iv, ind.bound, ind.step
        scale = "" if step == 1 else f" * {step}"
        leaned, clauses = sorted(loop.leaned), sorted(loop.clauses, key=repr)
        named = [iv, bound, *leaned]
        for aff in [access.aff for access in loop.accesses] \
                + [clause[0] for clause in clauses]:
            named += [name for name, _ in aff.terms]
        if fold is not None:
            named += [*sorted(fold.reads), fold.acc]
        checks = [f"type({name}) is int"
                  for name in dict.fromkeys(named) if name.isidentifier()]
        checks += [f"0 <= {iv}", f"{bound} <= {I32_LIMIT - step}"]
        checks += [f"0 <= {name} < {BASE_LIMIT}" for name in leaned]
        trips = f"{bound} - {iv}" if step == 1 \
            else f"({bound} - {iv} + {step - 1}) // {step}"
        checks.append(f"executed + (_n := {trips} if {bound} > {iv} "
                      f"else 0) * {period} + {hlen} <= fuel")
        last = f"({iv} + (_n - 1){scale})"

        def ends(aff: Affine) -> Tuple[str, str]:
            """The value on the trip where it is least, and greatest."""
            first, final = aff.at(iv), aff.at(last)
            return (final, first) if aff.scale < 0 else (first, final)

        pairs = []
        for aff, width in dict.fromkeys(
                (access.aff, access.width) for access in loop.accesses):
            low, high = ends(aff)
            pairs += [f"{NULL_GUARD} <= {low}", f"{high} <= _ms{width}"]
        for aff, lo, hi in clauses:
            low, high = ends(aff)
            pairs += [f"{lo} <= {low}", f"{high} <= {hi}"]
        if pairs:
            checks.append(f"(not _n or {' and '.join(pairs)})")
        if fold is not None and fold.op != "add":
            checks.append(f"{ty.int_min(fold.acc_ty)} <= {fold.acc} <= "
                          f"{ty.int_max(fold.acc_ty)}")
        self.w(f"if not ({' and '.join(checks)}):", base)
        self.deopt(header, base + 4)
        stride = "" if step == 1 else f", {step}"
        self.w(f"_v0 = {iv}", base)
        if fold is not None:
            self.w("if _n > 1:", base)
            self.w(f"{fold.acc} = {fold.combine(self.env, iv)}", base + 4)
            self.w(f"{iv} += (_n - 1){scale}", base + 4)
        self.w(f"for {iv} in range({iv}, {bound}{stride}):", base)
        for line in loop.hlines:
            self.w(line, base + 4)
        trip = f"{iv} - _v0" if step == 1 else f"({iv} - _v0) // {step}"
        self.body(latch, base + 4, loop.llines, loop.lmarks,
                  f"executed += ({trip} + 1) * {period}")
        self.w(f"{iv} = _v0 + _n{scale}", base)
        if ind.temp is not None:
            self.w(f"if _n: {ind.temp} = {iv}", base)
        for line in hlines:
            self.w(line, base)
        self.w(f"executed += _n * {period} + {hlen}", base)
        if owed:
            self.w("; ".join(f"_r_{f} += _n * {whole}"
                             + (f" + {part}" if part else "")
                             for f, whole, part in owed), base)
        self.w(f"pc = {exit_target}", base)


class CountedLoop(NamedTuple):
    """A fused loop's counted form (:meth:`Tier2Writer.counted`), its
    only compiled form: its induction and its two blocks lowered under
    the guard's facts, terminal branches dropped, and the latch's
    records (:class:`BlockEmitter`)."""

    induction: Induction
    hlines: List[str]
    llines: List[str]
    lmarks: List[Tuple[int, int]]
    #: loop-invariant names whose assumed range a dropped wrap needed
    leaned: frozenset
    #: the latch's affine accesses, their checks proven by the guard
    accesses: Tuple[Access, ...]
    #: the latch's dropped wraps of affine values, ``(Affine, lo, hi)``
    clauses: frozenset
    #: the latch's accesses that keep their per-trip check
    checked: int
    fold: Optional["Fold"]


#: the element type of each integer ``struct`` format character
_INT_FORMATS = {"b": ty.I8, "B": ty.U8, "h": ty.I16, "H": ty.U16,
                "i": ty.I32, "I": ty.U32, "q": ty.I64, "Q": ty.U64}

#: the nodes of an expression no int operand makes raise (a shift's
#: count is checked apart: a negative one raises)
_PURE_NODES = (ast.Name, ast.Constant, ast.BinOp, ast.UnaryOp, ast.IfExp,
               ast.Compare, ast.BoolOp, ast.Load, ast.Add, ast.Sub,
               ast.Mult, ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift,
               ast.RShift, ast.USub, ast.Invert, ast.Not, ast.And, ast.Or,
               ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


#: the text of an integer ``add`` / ``min`` / ``max`` template ->
#: ``(op, type)``: what a latch's combine into its accumulator is
_COMBINES = {inline_binop(op, int_ty, None)[0]: (op, int_ty)
             for op in ("add", "min", "max") for int_ty in ty.INT_TYPES}


class Fold(NamedTuple):
    """A counted latch whose trips fold into one builtin
    (:func:`fold_of`): ``acc = op(elements loaded at access, acc)``,
    wrapped into ``acc_ty``."""

    acc: str
    op: str
    acc_ty: ty.IntType
    access: Access
    #: loop-invariant names the trips read, which the guard type-checks
    reads: frozenset

    def combine(self, env: CodegenEnv, iv: str) -> str:
        """The accumulator after the trips ``[iv, last)``: their
        elements are one contiguous run from the access's first
        address, folded by one builtin and wrapped once."""
        char = self.access.fmt[-1]
        lanes = self.access.width // struct.calcsize("<" + char)
        count = "(_n - 1)" if lanes == 1 else f"(_n - 1) * {lanes}"
        run = (f"{env.bind(struct.unpack_from, 'uf')}("
               f'f"<{{{count}}}{char}", _md, {self.access.aff.at(iv)})')
        builtin = "sum" if self.op == "add" else self.op
        return inline_binop(self.op, self.acc_ty, env)[0].format(
            a=f"{builtin}({run})", b=self.acc)


def fold_of(hlines: List[str], latch: BlockEmitter, induction: Induction,
            env: CodegenEnv) -> Optional[Fold]:
    """The :class:`Fold` of a counted loop whose trip (the header's
    ``hlines``, then the latch's) only loads at affine addresses,
    lane-reduces with an integer ``add`` / ``min`` / ``max`` and
    combines into one loop-carried accumulator, else ``None``.

    Every trip but the last may then be skipped, so the test is an
    abstract run of the trip's statements that admits only what
    cannot raise and leaves nothing but the accumulator to the next
    trip: copies, pure int arithmetic over the induction variable and
    the invariants, the recorded loads (:attr:`BlockEmitter.accesses`)
    and lane reductions (:attr:`BlockEmitter.reductions`), a vector's
    empty check, and one combine — the engines' own template text.  A
    name read before the trip writes it is the accumulator, in the
    combine, or the loop is refused."""
    accesses, heading = latch.accesses, len(hlines)
    lines = hlines + latch.lines[:-1]
    if not accesses:
        return None
    tree = ast.parse("\n".join(lines))
    known: dict = {induction.iv: ("int",)}
    reads: set = set()
    found: list = []

    def name(node) -> Optional[tuple]:
        if node.id in known:
            return known[node.id]
        if node.id in induction.invariants:
            reads.add(node.id)
            return ("int",)
        return None

    def load(node, at: int) -> Optional[tuple]:
        # ``u(_md, addr)[0]`` a scalar; ``u(_md, addr)`` (a tuple) or
        # ``list(u(_md, addr))`` a vector; ``at``: the statement's latch
        # line, which follows the access's record.
        vector = not isinstance(node, ast.Subscript)
        if not vector:
            if not (isinstance(node.slice, ast.Constant)
                    and node.slice.value == 0):
                return None
            node = node.value
        elif isinstance(node, ast.Call) and len(node.args) == 1 \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "list":
            node = node.args[0]
        if not (isinstance(node, ast.Call) and len(node.args) == 2
                and all(isinstance(a, ast.Name) for a in node.args)
                and isinstance(node.func, ast.Name)
                and node.args[0].id == "_md"):
            return None
        access = next((a for a in reversed(accesses) if a.line <= at
                       and a.addr == node.args[1].id), None)
        unpack = env.env.get(node.func.id)
        if access is None or access.fmt[-1] not in _INT_FORMATS \
                or getattr(unpack, "__name__", None) != "unpack_from" \
                or getattr(getattr(unpack, "__self__", None), "format",
                           None) != access.fmt \
                or vector != (len(access.fmt) > 2):
            return None
        return ("vec" if vector else "elem", access)

    def combine(text: str) -> Optional[tuple]:
        names = sorted(set(re.findall(r"[A-Za-z_]\w*", text))
                       - {"max", "min"})
        if len(names) != 2:
            return None
        for x, acc in (names, names[::-1]):
            shape = re.sub(rf"\b{acc}\b", "{b}",
                           re.sub(rf"\b{x}\b", "{a}", text))
            if shape in _COMBINES:
                break
        else:
            return None
        op, acc_ty = _COMBINES[shape]
        value = known.get(x)
        if found or acc in known or acc == induction.iv \
                or acc in induction.invariants or value is None \
                or value[0] in ("int", "vec", "acc") \
                or value[0] == "red" and value[1] != op:
            return None
        elem = value[2] if value[0] == "red" \
            else _INT_FORMATS[value[1].fmt[-1]]
        if op == "add" and value[0] == "red" and elem != acc_ty:
            return None         # the lanes wrap to another type
        if op != "add" and not (ty.int_min(acc_ty) <= ty.int_min(elem)
                                and ty.int_max(elem) <= ty.int_max(acc_ty)):
            return None
        found.append((acc, op, acc_ty, value[-1]))
        return ("acc", acc)

    def pure(node) -> Optional[tuple]:
        for sub in ast.walk(node):
            if not isinstance(sub, _PURE_NODES) or isinstance(
                    sub, ast.Constant) and type(sub.value) is not int:
                return None
            if isinstance(sub, ast.BinOp) \
                    and isinstance(sub.op, (ast.LShift, ast.RShift)):
                count = sub.right
                if isinstance(count, ast.BinOp) \
                        and isinstance(count.op, ast.BitAnd):
                    count = count.right
                if not (isinstance(count, ast.Constant)
                        and count.value >= 0):
                    return None
            if isinstance(sub, ast.Name) and (
                    name(sub) or ("",))[0] not in ("int", "elem"):
                return None
        return ("int",)

    def value(node, text: str, at: int) -> Optional[tuple]:
        if isinstance(node, ast.Name):
            return name(node)
        if text in latch.reductions:
            op, vec, acc_ty = latch.reductions[text]
            got = known.get(vec)
            if got is None or got[0] != "vec":
                return None
            return ("red", op, _INT_FORMATS[got[1].fmt[-1]]
                    if op != "add" else acc_ty, got[1])
        return load(node, at) or combine(text) or pure(node)

    refused = False
    for stmt in tree.body:
        if isinstance(stmt, ast.If) and not stmt.orelse \
                and isinstance(stmt.test, ast.UnaryOp) \
                and isinstance(stmt.test.op, ast.Not) \
                and isinstance(stmt.test.operand, ast.Name) \
                and (known.get(stmt.test.operand.id) or ("",))[0] == "vec" \
                and len(stmt.body) == 1 \
                and isinstance(stmt.body[0], ast.Raise):
            continue                        # a vector is never empty
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.lineno == stmt.end_lineno):
            refused = True                  # a store, a check, a try
            continue
        # The right-hand side as the engine wrote it (a template's text)
        got = value(stmt.value, lines[stmt.lineno - 1].partition(" = ")[2],
                    stmt.lineno - 1 - heading)
        refused = refused or got is None
        known[stmt.targets[0].id] = got or ("int",)
    if len(found) != 1:
        return None                         # nothing, or two, to fold
    acc, op, acc_ty, access = found[0]
    eligible = not refused and known.get(acc) == ("acc", acc) \
        and access.aff.scale * induction.step == access.width
    if not eligible:
        return None
    return Fold(acc, op, acc_ty, access, frozenset(reads))


class Lowering:
    """One function being lowered by one engine.

    Class attributes are the engine's data; the hooks at the bottom
    are its operand model.  ``build`` produces the block tier,
    ``_build_tier2`` the whole-function translation; each runs on a
    fresh instance, so an engine may keep per-function codegen state
    on ``self``."""

    #: handler parameter list, e.g. ``"s, lo, ar, fb, mem, vm"``
    signature: str
    #: the machine object's name in it, and its fuel counter attribute
    machine: str
    executed: str
    #: the reference ladder's fuel trap message
    fuel_trap: str
    #: result counters (on ``res``) in debit order; a block's
    #: ``charges`` name a subset
    fields: Tuple[str, ...] = ()
    #: ``compile()`` filename tags: block tier, tier-2
    tags: Tuple[str, str]
    #: extra names every generated function sees
    env_extras: dict = {}
    block_tier: Tier
    tier2_tier: Tier
    predecoded: type
    stats: Tier2BuildStats

    def __init__(self, func, binding=None):
        self.func = func
        self.code = func.code
        self.name = func.name
        #: the frozen module ``call`` targets resolve against, or None
        self.binding = binding
        #: Blocks end at calls as well as branches and ``ret``, so a
        #: callee's fuel debits interleave with the caller's exactly
        #: as per-instruction accounting would.
        self.blocks = fuel_blocks(self.code)
        #: how the lowering in progress spells its constants
        self.env: CodegenEnv = None
        #: the fixed names every block-tier instance sees (``build``)
        self.scope: dict = None
        #: what a ``ret`` lowers to after storing its value
        self.ret_lines: Tuple[str, ...] = ("return -1",)
        #: access widths the tier-2 blocks check against ``_ms<width>``
        self.widths: set = set()
        #: the induction a counted loop's blocks are being lowered
        #: under (:meth:`counted_loop`), for the engine's emitter, and
        #: whether the block is its latch (hoisted accesses and wraps)
        self.counting: Optional[Induction] = None
        self.hoisting = False

    # -- cache protocol ------------------------------------------------------

    @classmethod
    def predecode(cls, func, module=None):
        """The (cached) predecoded form of ``func``, kept on the
        function object as ``_predecode_cache = (token, binding,
        payload)`` and keyed by its structural content token
        (``func.content_token()``) — in-place code edits invalidate by
        content.  With a *frozen* ``module``, ``call`` targets are
        resolved once here (per-call inline caching); the cache
        records that binding module, so an engine over a different
        module sharing the function object rebuilds instead of
        calling into the wrong table."""
        binding = module if module is not None and \
            getattr(module, "frozen", False) else None
        token = func.content_token()
        cached = getattr(func, "_predecode_cache", None)
        if cached is not None and cached[0] == token and \
                cached[1] is binding:
            return cached[2]
        pre = cls(func, binding).build(token, module)
        func._predecode_cache = (token, binding, pre)
        return pre

    def _resolved_callee(self, name):
        """The callee bound at predecode time, or ``None`` to fall
        back to the dynamic per-call lookup (no frozen module, or a
        call to a missing function — which must keep failing at
        execution time, exactly like the reference engine)."""
        if self.binding is None:
            return None
        return self.binding.functions.get(name)

    # -- block tier ----------------------------------------------------------

    def build(self, token, module=None) -> Predecoded:
        """The block tier: one template instance per fuel block.  No
        source is compiled here — :meth:`instance` finds the block's
        shape in the process-wide memo (:func:`block_template`)."""
        name, blocks = self.name, self.blocks

        def tail(*frame):
            raise TrapError(f"{name}: fell off code end")

        # Control only ever lands on a block leader or on ``n``.
        handlers: List[Callable] = [None] * len(self.code) + [tail]
        steps = StepTable(self)
        self.scope = {"TrapError": TrapError, "MeterTrip": MeterTrip,
                      "_PE": PACK_COERCE_ERRORS, "_step": steps,
                      **self.env_extras}
        for leader, length in blocks.items():
            label = f"{name}._b{leader}"
            try:
                handlers[leader] = self.instance(*self.block_source(
                    leader, length, self.lower_block(leader, length)),
                    label)
            except Exception:
                # A block whose lowering bailed (one malformed
                # instruction among good ones; defensively, a codegen
                # bug) steps through its instructions under the same
                # block-entry debit and rollback; the malformed one
                # raises when it is reached, like the reference.
                handlers[leader] = self.instance(
                    *self.block_source(leader, length), label)

        return self.predecoded(token, handlers, steps,
                               self.osr_candidates(),
                               **self.frame_data(module))

    def lower_block(self, leader: int, length: int) -> BlockEmitter:
        """The block-tier lowering of one block, its constants the
        holes of a fresh :class:`Holes` (``.env`` of the result)."""
        self.env = Holes()
        return self.lower(leader, length, self.block_tier)

    def block_source(self, leader: int, length: int,
                     em: Optional[BlockEmitter] = None):
        """``(template text, holes)`` of one block handler: debit the
        whole counter vector on entry (:class:`repro.engine.MeterTrip`
        when the fuel debit crosses the limit, leaving the block
        undebited), then run the lowered body under the line-table
        rollback — fuel only: result counters are unobservable after
        a trap.  Without ``em`` the body is the stepping fallback,
        whose loop variable ``_i`` *is* the progress."""
        holes = em.env if em is not None else Holes()
        machine, signature = self.machine, self.signature
        fuel = f"{machine}.{self.executed}"
        n, at = holes.lit(length), holes.lit(leader)
        out = [f"def _b({signature}):",
               f"    executed = {fuel} + {n}",
               f"    {fuel} = executed",
               f"    if executed > {machine}.fuel:",
               f"        {fuel} = executed - {n}",
               f"        raise MeterTrip({at})"]
        out += [f"    res.{field} += {holes.lit(amount)}" for field, amount
                in self.charges(leader, length).items()]
        if em is None:
            out += ["    try:",
                    f"        pc = {at}",
                    f"        for _i in range({n}):",
                    f"            pc = _step[pc]({signature})",
                    "        return pc",
                    "    except Exception:"]
            guarded = True
        else:
            guarded = body_under_rollback(out, "    ", em.lines, em.marks,
                                          length, holes)
        if guarded:
            out += [f"        {fuel} -= {n} - _i - 1",
                    "        raise"]
        return "\n".join(out), holes.env

    def instance(self, text: str, holes: dict, label: str) -> Callable:
        """The function of one template instance: a private copy of
        the template's code (named ``label``, so a traceback through
        shared code still says whose block it was) over globals
        holding the engine's fixed names and this block's holes."""
        code = block_template(type(self), text)
        handler = FunctionType(code.replace(co_name=label),
                               {**self.scope, **holes})
        handler.__qualname__ = label
        return handler

    # -- tier-2: whole-function translation ----------------------------------
    #
    # One generated Python function covers every fuel block of the
    # function: a ``while 1`` dispatcher over block leaders, the
    # engine's storage lowered to Python locals, and the same per-op
    # lowering as the block tier (the engine's ``_gen_block_lines``).
    # The contract matches a block handler exactly — ``_t2(<signature>,
    # pc=0) -> pc`` — so the trampoline can treat its return value like
    # any block's: ``-1`` means the function returned; a leader pc is a
    # *deopt* (see :class:`Tier2Writer`).

    @classmethod
    def _build_tier2(cls, func, binding=None, shipped=None,
                     warm: bool = False):
        """Compile the whole-function tier-2 form of ``func``, or
        ``None`` when the translation fails to build — a build failure
        is never an execution failure, callers just stay on the
        block-threaded tier.  The facts the blocks are generated under
        were ``shipped`` with the code or are computed here
        (:meth:`facts`) and are checked either way
        (:meth:`check_facts`); no table, no tier-2."""
        counts = cls.stats.counts
        counts["warm" if warm else "request"] += 1
        try:
            facts, fresh = cls.facts(func, shipped)
            if fresh:
                counts["facts_warm" if warm else "facts_request"] += 1
            source, env = cls(func, binding).tier2_source(facts)
            exec(compile(source, f"<{cls.tags[1]}:{func.name}>",
                         "exec"), env)
            t2 = env["_t2"]
            #: the per-leader entry whitelist, for introspection/tests
            t2.osr_entries = env.get("_OSR_ENTRIES", frozenset())
            t2.guards_elided = env.get("_GUARDS_ELIDED", 0)
            t2.guards_kept = env.get("_GUARDS_KEPT", 0)
            counts["guards_elided"] += t2.guards_elided
            counts["guards_kept"] += t2.guards_kept
            for key, count in env["_LOOPS"].items():
                counts[key] += count
            return t2
        except Exception:
            return None

    def tier2_source(self, facts):
        """Source + exec environment for the tier-2 translation."""
        code, blocks = self.code, self.blocks
        env_dict = {"TrapError": TrapError, "_PE": PACK_COERCE_ERRORS,
                    **self.env_extras}
        env = self.env = CodegenEnv(env_dict)
        fuel = f"{self.machine}.{self.executed}"
        live = any(instr.op == "call" for instr in code)
        entry, load, writeback = self.begin_tier2(facts)
        out = Tier2Writer(
            env, fuel, blocks,
            {leader: self.charges(leader, length)
             for leader, length in blocks.items()},
            self.fields, live, writeback)
        w = out.w
        self.ret_lines = tuple(out.flush) + ("return -1",)

        # Loop blocks head the dispatch ladder: every block inside a
        # back-edge span (the leaders a loop iterates over) is checked
        # before the straight-line entry/exit blocks, so iterations
        # match on the first arms instead of scanning the whole elif
        # chain once per transfer (which made short-block loops slower
        # than the trampoline's O(1) handler indexing).
        hot = set()
        for src, instr in enumerate(code):
            if instr.op in ("br", "brif") and isinstance(instr.arg, int) \
                    and 0 <= instr.arg <= src:
                hot.update(b for b in blocks if instr.arg <= b <= src)
        ordered = [b for b in blocks if b in hot] \
            + [b for b in blocks if b not in hot]

        # Pre-translate every block; an untranslatable block keeps no
        # dispatch arm — its leader falls through to the else arm, a
        # per-block deopt point.  The pass records what it stores and
        # checks under ``facts``; a table those records contradict (a
        # foreign or corrupt one) aborts the build, never the run.
        bodies: Dict[int, Optional[List[str]]] = {}
        marks: Dict[int, list] = {}
        for leader, length in blocks.items():
            try:
                block = self.lower(leader, length, self.tier2_tier)
                bodies[leader], marks[leader] = block.lines, block.marks
            except Exception:
                bodies[leader] = None
        loops = fused_loops(code, blocks, bodies)
        # Counted forms only where the merged ``while`` would run (no
        # calls, a header that cannot raise); lowered before the facts
        # are checked, so the check covers them too.
        counted = {} if live else {
            header: loop for header, (latch, *_) in loops.items()
            if not marks[header]
            and (loop := self.counted_loop(header, latch)) is not None}
        self.check_facts(facts)

        osr_entries = osr_entry_points(code, blocks, bodies)
        armless = {entry[0] for entry in loops.values()} - osr_entries
        env_dict["_OSR_ENTRIES"] = osr_entries
        pairs = [{header, loop[0]} for header, loop in loops.items()]
        edges = [{block, target} in pairs
                 for block, target in loop_back_edges(code)]
        env_dict["_LOOPS"] = {
            "loops_fused": sum(edges),
            "loops_ladder": len(edges) - sum(edges),
            "loops_counted": len(counted),
            "loops_folded": sum(loop.fold is not None
                                for loop in counted.values()),
            "accesses_hoisted": sum(len(loop.accesses)
                                    for loop in counted.values()),
            "accesses_checked": sum(loop.checked
                                    for loop in counted.values())}

        w(f"def _t2({self.signature}, pc=0):")
        for line in entry:
            w(line, 4)
        w(f"fuel = {self.machine}.fuel", 4)
        w("_md = mem.data; _ms = mem.size", 4)
        if self.widths:     # ``mem.size`` is invariant across ``_t2``
            w("; ".join(f"_ms{n} = _ms - {n}"
                        for n in sorted(self.widths)), 4)
        for line in load:
            w(line, 4)
        # OSR entry guard: only whitelisted leaders may enter mid-call.
        # The facts the blocks were generated under are whole-function
        # invariants the analysis proves for any state the block tier
        # can hand over (same block graph, same all-or-nothing block
        # execution), so per-entry re-checks of them are always true
        # and are elided.  ``PVI_OSR_GUARDS=1`` keeps them
        # (differential escape hatch: both modes must observe
        # byte-identical runs); either way the counts are surfaced in
        # ``tier2_build_stats()``.
        w("if pc:", 4)
        if osr_entries:
            osr_name = env.bind(osr_entries, "osr")
            count, guards = self.fact_guards(sorted(osr_entries))
            keep = keep_osr_guards()
            if count:
                env_dict["_GUARDS_KEPT" if keep
                         else "_GUARDS_ELIDED"] = count
            w(f"if pc not in {osr_name}:", 8)
            w("return pc", 12)
            if keep:
                for line in guards:
                    w(line, 8)
        else:
            w("return pc", 8)
        out.load_carried(4)
        w("while 1:", 4)

        keyword = "if"
        for leader in ordered:
            body = bodies[leader]
            if body is None or leader in armless:
                continue
            w(f"{keyword} pc == {leader}:", 8)
            keyword = "elif"
            if leader not in loops:
                out.block(leader, 12, body, marks[leader])
                continue
            latch, cond, taken, fall = loops[leader]
            if latch == taken:
                exit_test, exit_target = f"not ({cond})", fall
            else:
                exit_test, exit_target = cond, taken
            if leader in counted:
                out.counted(counted[leader], leader, latch, exit_target,
                            12, body[:-1])
            else:
                out.loop(leader, latch, exit_test, exit_target, 12, body,
                         marks[leader], bodies[latch], marks[latch])

        fell = env.bind(f"{self.name}: fell off code end", "m")
        w(f"{keyword} pc == {len(code)}:", 8)
        if not live:
            w(f"{fuel} = executed", 12)
        w(f"raise TrapError({fell})", 12)
        w("else:", 8)
        out.deopt("pc", 12)
        return "\n".join(out.out), env_dict

    def counted_loop(self, header: int,
                     latch: int) -> Optional[CountedLoop]:
        """The counted version of the fused loop ``header`` /
        ``latch``, or ``None``: the engine finds no induction
        (:meth:`induction`), or a block does not lower under it the
        way the counted form needs (a header that can raise, a latch
        that does not end in its back edge)."""
        induction = self.induction(header, latch)
        if induction is None:
            return None
        self.counting = induction
        head = self.lower(header, self.blocks[header], self.tier2_tier)
        self.hoisting = True
        body = self.lower(latch, self.blocks[latch], self.tier2_tier)
        self.counting, self.hoisting = None, False
        if head.marks or not head.lines[-1].startswith("pc = ") \
                or body.lines[-1] != f"pc = {header}":
            return None
        hlines, llines = head.lines[:-1], body.lines[:-1]
        return CountedLoop(induction, hlines, llines, body.marks,
                           frozenset(head.leaned | body.leaned),
                           tuple(body.accesses), frozenset(body.clauses),
                           body.checked,
                           fold_of(hlines, body, induction, self.env))

    # -- what an engine supplies ---------------------------------------------

    def lower(self, leader: int, length: int, tier: Tier) -> BlockEmitter:
        """The engine's ``_gen_block_lines`` for one block; raises on
        a malformed instruction what the reference ladder raises when
        it executes that instruction."""
        raise NotImplementedError

    def charges(self, leader: int, length: int) -> dict:
        """Result-counter amounts of one block (beyond its fuel)."""
        return {}

    def osr_candidates(self) -> frozenset:
        return backedge_targets(self.code, self.blocks)

    def induction(self, header: int, latch: int) -> Optional[Induction]:
        """The fused loop's induction, read off its instructions
        (see :class:`Induction` for the shape), or ``None`` to keep
        it on the ``while`` form."""
        raise NotImplementedError

    def frame_data(self, module) -> dict:
        """The engine's per-call frame initialization data, as the
        extra attributes of its :class:`Predecoded` subclass (and,
        as ``shipped``, the facts table ``module`` carries, if any)."""
        raise NotImplementedError

    @staticmethod
    def facts(func, shipped):
        """``(facts, fresh)``: ``shipped`` if it can be adopted (it is
        outside input), else computed (``fresh``); a failure to
        compute them raises, and the build declines."""
        raise NotImplementedError

    def begin_tier2(self, facts):
        """Adopt ``facts`` for the block lowering and return the
        ``_t2`` frame lines: ``(entry checks, state loads, deopt
        writeback)``."""
        raise NotImplementedError

    def check_facts(self, facts) -> None:
        """Raise when ``facts`` is not an invariant of what the
        tier-2 lowering just recorded (the table may be outside
        input: an annotation of the module)."""

    def fact_guards(self, entries: List[int]):
        """``(count, lines)``: the per-entry re-checks of ``facts`` an
        OSR prologue carries when guards are kept — each line group
        declines the entry with ``return pc``."""
        raise NotImplementedError
