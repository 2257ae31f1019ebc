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
lives here, once: the cache protocol and the block-tier build loop
(:class:`Lowering`), the template memo (:class:`Holes`,
:func:`template_stats`), one-instruction stepping
(:class:`StepTable`), the block line emitter with tier-2's in-block
and interval knowledge (:class:`BlockEmitter`), the debit protocol
over per-block counter vectors and the one trap rollback of both
tiers (:class:`Tier2Writer`, :func:`body_under_rollback`), and the
tier-2 dispatcher: hot-span ordering, two-block loop fusion
(:func:`fused_loops`), counted loops written around the proof of
:mod:`repro.counted`, the OSR entry whitelist and prologue, the
``pc`` ladder and its deopt arms (:meth:`Lowering.tier2_source`).

An engine is a :class:`Lowering` subclass: class attributes carry its
data (handler signature, counter names, fuel trap, source tags) and a
handful of hooks carry its operand model.  Nothing here asks which
engine is calling.  The engines import this module, and so does the
runtime that runs what it builds (:mod:`repro.tiering`); it imports
neither.
"""

from __future__ import annotations

import functools
import re
import threading
from types import CodeType, FunctionType
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.cfg import BlockCFG
from repro.analysis.intervals import (
    Affine, Interval, binop, int_interval, within,
)
from repro.counted import (
    BASE_LIMIT, I32_LIMIT, Access, CountedLoop, Induction, counted_loop,
)
from repro.engine import (
    CodegenEnv, MASK64_LITERAL, MeterTrip, backedge_targets,
    backward_branches, fuel_blocks, keep_osr_guards,
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
      (:meth:`repro.tiering.Predecoded.tier2_repaid`) said "not yet":
      the function was hot enough to ask and had not yet spent what a
      build costs.
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
      last fold into one builtin (:func:`repro.counted.fold_of`).
      "Why does this loop still check?" — its ``accesses_checked``."""

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


#: serializes first-time tier-2 and step builds.  Predecodes ride
#: shared images (the deploy memo hands one object to every caller);
#: the builds are pure Python, so one process-wide lock costs nothing
#: a per-function lock would save.
BUILD_LOCK = threading.Lock()


class StepTable(dict):
    """``pc -> handler`` for one instruction at a time: the engine's
    block-tier lowering of the one-instruction block ``(pc, 1)``,
    instantiated on first use from a template without the debit
    prologue (same memo, same path as a block).  A length-1 block
    pops every operand it did not produce from the engine's storage
    and flushes every result back, so it is exactly one step of the
    reference ladder — the per-opcode lowering stays the only
    fast-engine statement of what an opcode does.

    Only trap paths step: the metered replay
    (:func:`repro.tiering.replay_metered`) and the generated fallback
    body of a block whose lowering bailed.  A step that cannot be
    lowered raises the lowering's exception when it is *executed*, as
    the reference ladder only fails on the instruction it runs: the
    look-up itself raises and stores nothing, so every execution
    lowers again and fails afresh (a stored exception would grow its
    traceback with every re-raise and pin each failed call's
    frames)."""

    def __init__(self, low: Lowering):
        super().__init__()
        #: the block-tier build's lowering, continued lazily
        self.low = low

    def __missing__(self, pc: int) -> Callable:
        with BUILD_LOCK:
            if pc not in self:          # a racing thread may have won
                low = self.low
                em = low.lower_block(pc, 1)
                text = "\n".join([f"def _b({low.signature}):",
                                  *("    " + line for line in em.lines)])
                self[pc] = low.instance(text, em.env.env,
                                        f"{low.name}@{pc}")
        return self[pc]


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
    ``induction``).  :attr:`ranges` holds an ``Interval``
    (:mod:`repro.analysis.intervals`) per name, seeded with what the
    loop's guard establishes — the induction variable in ``[0,
    I32_LIMIT - 1 - step]``, every loop-invariant integer *assumed* in
    ``[0, BASE_LIMIT)`` — and carried through the integer ops the
    engine asks about that the algebra follows (add, sub, mul, a
    constant shift, min, max) and integer casts (:meth:`exact_binop`,
    :meth:`fits`); the dict is empty in every other lowering.  Where a
    result provably needs no wrap the engine leaves the wrap out, and
    the assumptions that proved it land in :attr:`leaned`, which the
    guard then checks.  The engine also drops the pcs in :attr:`skip`
    and writes 1 for the compare at :attr:`flag`.

    **The loop as data** (a counted loop's latch only: ``hoist``).
    Each interval also carries the value's exact ``Affine`` form in
    the induction variable, where it has one.  A wrap of an affine
    value that the interval cannot prove the identity is dropped
    anyway and recorded in :attr:`clauses` — the guard proves it the
    identity on the first and the last trip, which covers every trip
    between.  Every access whose address is affine is recorded in
    :attr:`accesses` instead of checked (:meth:`proved`); the others
    keep their check and are counted in :attr:`checked`.  Lane
    reductions folded by one builtin are recorded in
    :attr:`reductions`, for :func:`repro.counted.fold_of`."""

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
        if within(rng, int_ty):
            self.leaned |= rng.deps
            return rng
        # An affine value in a latch: the guard makes the wrap the
        # identity instead, by a clause on the first and last trip.
        whole = int_interval(int_ty)
        lo, hi = max(rng.lo, whole.lo), min(rng.hi, whole.hi)
        if self.clauses is None or rng.aff is None or lo > hi:
            return None
        clause = (rng.aff, whole.lo, whole.hi)
        self.clauses.add(clause)
        return rng._replace(lo=lo, hi=hi)

    def exact_binop(self, op: str, int_ty, a: Optional[Interval],
                    b: Optional[Interval]) -> Optional[Interval]:
        """The interval of ``a op b`` when the unwrapped result
        (:func:`repro.analysis.intervals.binop`) is a value of
        ``int_ty`` (:meth:`fits`), else ``None``."""
        if a is None or b is None:
            return None
        return self.fits(binop(op, int_ty, a, b), int_ty)

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
        affine: then it is recorded for the guard
        (:class:`repro.counted.Access`)."""
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
        """A merged loop, counted, under one guard at entry
        (:meth:`repro.counted.CountedLoop.guard`, which binds the trip
        count ``_n``).  Then the loop is a ``for iv in range`` with no
        fuel compare, no exit test and no check or wrap the guard
        covers, its blocks lowered under those facts, and the exit does
        at once what the last test would have left: ``iv`` past the
        bound, the increment's temp, the header's lines (its flag
        register 0) and the debits of every trip.  A foldable latch
        (:func:`repro.counted.fold_of`) runs every trip but the last as
        one builtin over one ``struct.unpack_from`` of the whole run,
        then the last through the body.  A trap in the body debits the
        trips up to its own, then rolls back through the latch's line
        table.  A refused state deopts at the header: the block tier
        runs it, and OSR re-enters once it heals (a refused OSR entry
        returns its own pc, so it is retired for the call)."""
        ind, hlen, fold = loop.induction, self.blocks[header], loop.fold
        period, owed = self.per_trip(header, latch)
        iv, bound, step = ind.iv, ind.bound, ind.step
        scale = "" if step == 1 else f" * {step}"
        self.w(f"if not ({loop.guard(period, hlen)}):", base)
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
        #: under (:func:`repro.counted.counted_loop`), for the engine's
        #: emitter, and whether the block is its latch (hoisted accesses
        #: and wraps)
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

    def build(self, token, module=None):
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
                               backedge_targets(self.code, self.blocks),
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
        hot = {b for target, src in backward_branches(code)
               for b in blocks if target <= b <= src}
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
            and (loop := counted_loop(self, header, latch)) is not None}
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

    # -- what an engine supplies ---------------------------------------------

    def lower(self, leader: int, length: int, tier: Tier) -> BlockEmitter:
        """The engine's ``_gen_block_lines`` for one block; raises on
        a malformed instruction what the reference ladder raises when
        it executes that instruction."""
        raise NotImplementedError

    def charges(self, leader: int, length: int) -> dict:
        """Result-counter amounts of one block (beyond its fuel)."""
        return {}

    def induction(self, header: int, latch: int) -> Optional[Induction]:
        """The fused loop's induction, read off its instructions (see
        :class:`repro.counted.Induction` for the shape), or ``None`` to
        keep it on the ``while`` form."""
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
