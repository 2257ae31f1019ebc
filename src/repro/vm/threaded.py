"""Predecoded, block-threaded execution core for the PVI VM.

The reference interpreter (``VM._run``) re-decodes every instruction
through a string if/elif ladder and re-dispatches every ALU op through
``isinstance`` checks.  This module translates a
:class:`~repro.bytecode.module.BytecodeFunction` **once** into a tuple
of specialized handler closures, resolving opcodes, operand types (as
:mod:`repro.semantics.kernels` kernels), immediates and frame offsets
at decode time.  Execution is the tiering runtime's trampoline
(:func:`repro.tiering.run_tiered`, shared with the simulator) over the
VM's frame tuple::

    frame = (stack, locals_, args, frame_base, memory, vm)
    while pc >= 0:
        pc = handlers[pc](*frame)

Every *fuel block* (a maximal straight-line run ending at a branch,
``ret`` or ``call``) becomes one Python function, an instance of a
memoized block template (:func:`repro.tiers.block_template`): stack
traffic inside the block collapses onto Python locals, and only
kernel/memory operations remain as calls.  Control transfers only
ever land on block leaders, so the whole block executes (or traps)
exactly as the reference would.

Fuel is debited per block on entry.  Blocks execute linearly to their
terminator and calls end blocks, so successful runs produce exactly
the reference engine's per-instruction totals.  When a debit crosses
the limit (:class:`repro.engine.MeterTrip`) the instructions the fuel
still covers are stepped one at a time
(:func:`repro.tiering.replay_metered`), so the fuel trap lands on
precisely the instruction the reference engine traps on — and an
earlier non-fuel trap inside the block still wins.  A step is the
same lowering applied to a one-instruction block, built on first use;
a block whose lowering bails (malformed instructions defer their error
to execution time, like the reference engine) steps the same way.

The protocol around the lowering — the build loop, the debit and
rollback forms, stepping, the cache, the lazy tier-2 build and its
dispatcher — is the tier scaffold (:mod:`repro.tiers`) shared with
:mod:`repro.targets.dispatch`, and so is what a scalar op, a vector op
or a control transfer lowers to (:class:`repro.tiers.BlockEmitter`).
This module supplies the VM's operand model: where an operand comes
from and where a result goes over a virtual operand stack with
deferral (``_gen_block_lines``, which still lowers ``select`` and the
scalar memory ops itself; a vector slot holds a
:class:`repro.lanes.Vec`), the ``_t2`` frame lines and the per-call
initialization data.  What tier-2 may assume of a vector value, and
why a facts table from anywhere is safe to generate code under, is
stated once in :class:`repro.analysis.passes.LaneRules`; the lowering
calls it, and gives the emitter the lane counts it proves.

The predecoded form is cached on the function object
(``repro.tiers.Lowering.predecode``) keyed by a structural content
token: VM construction stays cheap, and in-place code edits
invalidate by content.

When the module is *frozen* (``BytecodeModule.freeze()`` — the
offline compiler freezes everything it emits), ``call`` targets are
resolved once at predecode time: the callee function object, its
arity and return shape are bound directly into the handlers (per-call
inline caching), removing the per-call name lookup.  The cache
records the binding module, so a VM over a different module sharing
the same function object rebuilds instead of calling into the wrong
table, and content-token invalidation works unchanged.
"""

from __future__ import annotations

import re
from typing import List

from repro.analysis.intervals import Interval
from repro.analysis.passes import (
    LaneRules, declared_lanes, lane_fixpoint, starts_declared,
)
from repro.bytecode.annotations import LaneFactsAnnotation
from repro.bytecode.module import BytecodeFunction
from repro.bytecode.opcodes import BIN_OPS, TYPE_TAGS, UN_OPS, type_of
from repro.counted import Induction
from repro.lang import types as ty
from repro.semantics.errors import TrapError
from repro.semantics.memory import scalar_struct
from repro.tiering import Predecoded, warm
from repro.lanes import Vec
from repro.tiers import (
    BlockEmitter, Lowering, Tier, Tier2BuildStats, Value, block_tier,
    whole_tier,
)

_EMPTY_DEPS = frozenset()

#: vstack meta for a wrapped-u64 inline result (``Value.masked``)
#: — feeding one into an address slot skips the redundant 64-bit
#: re-mask.  Every vector meta comes from :class:`LaneRules`, to
#: which this one is as good as ``None``.
_MASKED64_META = {"masked64": True}


def _ranged(meta, rng):
    """``meta`` of a scalar slot, plus the interval it is known to
    hold (counted loops only: ``BlockEmitter.ranges``)."""
    if rng is None or (meta is not None and "lanes" in meta):
        return meta
    return {**(meta or {}), "range": rng}


#: this engine's tier-2 build-site counters (``warm`` builds come from
#: :func:`warm_bytecode_module`)
TIER2_BUILDS = Tier2BuildStats()
tier2_build_stats = TIER2_BUILDS.tier2_build_stats
reset_tier2_build_stats = TIER2_BUILDS.reset_tier2_build_stats


class PredecodedFunction(Predecoded):
    """A bytecode function's decoded form plus the VM's per-call
    initialization data."""

    __slots__ = ("frame_size", "scalar_defaults", "vector_locals",
                 "has_ret")


def predecode(func: BytecodeFunction,
              module=None) -> PredecodedFunction:
    """The (cached) predecoded form of ``func`` — see
    :meth:`repro.tiers.Lowering.predecode`: with a *frozen* ``module``
    the callee function object, its arity and whether it returns a
    value are bound directly into the handlers."""
    return _BytecodeLowering.predecode(func, module)


def warm_bytecode_module(module) -> None:
    """Predecode every function of a bytecode module and pre-build its
    tier-2 translation wherever a serving call could want it
    (:func:`repro.tiering.warm`): every later call starts in tier-2 at
    pc 0 and never runs whole-function codegen in-request
    (:func:`tier2_build_stats` proves it).  The VM twin of
    :func:`repro.targets.dispatch.warm_module`."""
    warm(module, predecode)


def _hotness_hint(func, module) -> bool:
    """Does the module's hotness profile promote ``func`` to tier 2?
    The JIT's rule (:func:`repro.flows.promotes_to_tier2`), read off
    the module the function is predecoded against, if any."""
    from repro.flows import promotes_to_tier2
    return module is not None and promotes_to_tier2(module, func.name)


# ---------------------------------------------------------------------------
# block code generation
# ---------------------------------------------------------------------------

def _gen_block_lines(low: _BytecodeLowering, leader: int, length: int,
                     tier: Tier) -> BlockEmitter:
    """Emit one fuel block's body as source lines: the VM's operand
    model over the emitter's lowering.

    The same lowering serves two tiers: the block-threaded engine
    (locals stay in the ``lo`` list) and the tier-2 whole-function
    compiler (locals lowered to Python locals).  What a scalar op or a
    control transfer lowers to is the emitter's
    (:class:`repro.tiers.BlockEmitter`); this function says where its
    operands come from — a virtual stack of pending expressions, the
    real stack ``s`` once that is empty — and where its result goes.

    ``tier.tier2`` additionally turns on the optimizations the
    trampoline tier cannot use: pure values *deferred* on the virtual
    stack so statements fuse (deferral tracks which local each pending
    expression reads, so a ``stloc`` materializes the values it would
    clobber), and ``mem.data``/``mem.size`` read from
    the dispatcher's hoisted ``_md``/``_ms`` locals.  What tier-2
    statically knows of a vector value (its *meta*) is made and
    recorded by ``low.rules``, the :class:`LaneRules` of the facts
    table in force (see there for the rule that makes this sound);
    the block tier has none.  In both tiers
    ``em.impure`` is set exactly where the emitted code can raise: it
    is what puts the instruction in the block's rollback table.
    """
    code, env, rules = low.code, low.env, low.rules
    frame_offsets, nlocals = low.frame_offsets, len(low.func.local_types)
    tier2 = tier.tier2
    if tier2:
        rules.enter_block()
    local_fmt, data = tier.place, tier.data
    em = BlockEmitter(low, tier)
    lines, emit, newt, lit = em.lines, em.emit, em.newt, em.lit
    ranges = em.ranges      # empty outside a counted loop's blocks
    vstack: List[str] = []          # expressions for virtual stack slots
    vdeps: List[frozenset] = []     # local indices each deferred
    #                                 expression reads (temps: empty)
    vmeta: List = []                # what is statically known of each
    #                                 slot: a ``LaneRules`` meta, the
    #                                 masked-u64 meta, or None

    def push(expr: str, meta=None) -> None:
        """Materialize ``expr`` now (order/side-effect preserving)."""
        t = newt()
        emit(f"{t} = {expr}")
        vstack.append(t)
        vdeps.append(_EMPTY_DEPS)
        vmeta.append(meta)

    def push_atom(atom, deps: frozenset = _EMPTY_DEPS, meta=None) -> None:
        """Defer a *pure* expression (const, frame address, or — in
        tier-2 — any inlined arithmetic that cannot raise), or a
        vector (:class:`Vec`)."""
        vstack.append(atom)
        vdeps.append(deps)
        vmeta.append(meta)

    def push_vec(vec: Vec, meta, deps: frozenset = _EMPTY_DEPS) -> None:
        """A vector result: a fresh load or kernel call is assigned to
        a temp now (the block tier assigns every one); anything else
        waits on the stack as the emitter left it."""
        if vec.fresh or not tier2:
            vec = em.assign(newt(), vec)
        push_atom(vec, deps, meta)

    def popm():
        """(entry, deps, meta) — the raw slot: an expression or a
        :class:`Vec`; callers that let the value escape to an
        engine-observable place must go through :func:`popd`."""
        if vstack:
            return vstack.pop(), vdeps.pop(), vmeta.pop()
        em.impure = True            # s.pop() can IndexError
        t = newt()
        emit(f"{t} = s.pop()")
        return t, _EMPTY_DEPS, None

    def popd():
        """(expr, deps, interval) with vector values normalized to
        lists — tier-2 keeps vec temporaries as tuples internally, but
        every value the reference engine could observe must be a
        list."""
        expr, deps, meta = popm()
        if isinstance(expr, Vec):
            return em.whole(expr, listed=True), deps, None
        return expr, deps, meta.get("range") if meta else None

    def vpop():
        """A vector operand and its meta: the slot's :class:`Vec`, or
        one over the slot's expression."""
        expr, _, meta = popm()
        return (expr if isinstance(expr, Vec) else Vec(expr)), meta

    def pop() -> str:
        return popd()[0]

    def flush() -> None:
        for atom in vstack:
            if isinstance(atom, Vec):
                atom = em.whole(atom, listed=True)
            emit(f"s.append({atom})")
        del vstack[:]
        del vdeps[:]
        del vmeta[:]

    def spill_local(index: int) -> None:
        """A deferred expression still reads local ``index``:
        materialize it before the pending store clobbers the value it
        closed over."""
        for j, deps in enumerate(vdeps):
            if index in deps:
                t = newt()
                if isinstance(vstack[j], Vec):
                    vstack[j] = em.assign(t, vstack[j])
                else:
                    emit(f"{t} = {vstack[j]}")
                    vstack[j] = t
                vdeps[j] = _EMPTY_DEPS

    def local(index: int) -> str:
        """The place of local ``index``.  Unverified code may name one
        the frame lacks: the block tier's subscript then raises the
        reference's IndexError, so the instruction is marked; tier-2
        has no such Python local and leaves the block untranslated."""
        if not 0 <= index < nlocals:
            if tier2:
                raise IndexError(index)
            em.impure = True
        return local_fmt.format(lit(index))

    def pop_addr() -> str:
        """Pop an address, skipping the 64-bit re-mask when the
        expression is a wrapped-u64 inline result (already in range)."""
        expr, _, meta = popm()
        if isinstance(expr, Vec):   # the same TypeError as the lists
            expr, meta = em.whole(expr, listed=True), None
        return em.address(expr, bool(meta and meta.get("masked64")),
                          meta.get("range") if meta else None)

    def store_operands():
        """A vector store's value, then its address."""
        vec, _ = vpop()
        return pop_addr(), vec

    taken: list = []        # a scalar op's operands: (expr, deps, range)

    def take(count: int):
        """Pop a scalar op's operands (see ``BlockEmitter``)."""
        last = popd()
        taken[:] = (popd(), last) if count == 2 else (last,)
        if ranges:
            return [rng for _, _, rng in taken]

    def read(count: int) -> List[str]:
        return [taken[0][0]] if count == 1 else [taken[0][0], taken[1][0]]

    def set_result(value: Value) -> None:
        """Push a scalar op's result: deferred when it cannot raise."""
        rhs = em.rhs(value)
        if not value.pure:
            push(rhs)
            return
        deps = taken[0][1] if len(taken) == 1 else taken[0][1] | taken[1][1]
        push_atom(rhs, deps, _ranged(
            _MASKED64_META if value.masked else None, value.rng))

    exit_pc = leader + length
    skip = em.skip

    for pc in range(leader, exit_pc):
        if pc in skip:
            continue
        instr = code[pc]
        op = instr.op
        em.begin()

        if op == "ldloc":
            place = local(instr.arg)
            if tier2:
                meta = _ranged(rules.ldloc(instr.arg), ranges.get(place))
                vec = em.vecs.get(place)
                if vec is None and meta is not None and "lanes" in meta:
                    vec = Vec(place, meta["lanes"], meta["tuple"])
                push_atom(place if vec is None else vec,
                          frozenset((instr.arg,)), meta)
            else:
                push(place)
        elif op == "ldarg":
            if instr.arg < low.safe_args:
                # The dispatcher's entry guard proved ``ar`` holds at
                # least ``safe_args`` values, so the read cannot raise
                # — and hoisted it into local ``a{k}`` (args have no
                # store op, so the binding never goes stale).
                name = f"a{instr.arg}"
                push_atom(name, meta=_ranged(None, ranges.get(name)))
            else:
                em.impure = True    # short args IndexError here, like
                push(f"ar[{lit(instr.arg)}]")   # the reference's args[i]
        elif op == "stloc":
            target = local(instr.arg)
            value, deps, meta = popm()
            if tier2:
                rules.stloc(instr.arg, meta)
                spill_local(instr.arg)
                em.rewrite(target, rng=meta.get("range") if meta else None)
            if isinstance(value, Vec):
                # A local holds a tuple only where the table lets it.
                listed = not (meta and meta.get("tuple"))
                if tier2 and instr.arg in low.block_locals:
                    # No block reads the local before writing it: the
                    # value is this block's alone, and only its Vec
                    # is read — by name, once it names no local that
                    # may be written before that read.
                    em.vecs[target] = em.assign(newt(), value) \
                        if deps else value
                else:
                    em.assign(target, value, listed)
            elif tier2 and lines and re.fullmatch(r"t\d+", value) \
                    and lines[-1].startswith(f"{value} = "):
                # The value is a single-use temp defined on the line
                # just emitted: fold the store into the defining
                # statement (the temp has no other reader — temps are
                # single-assignment and this ``stloc`` consumed its
                # only stack slot).  A trap while evaluating the
                # right-hand side still belongs to the defining
                # instruction's progress marker, exactly as before.
                lines[-1] = f"{target} = {lines[-1][len(value) + 3:]}"
            else:
                emit(f"{target} = {value}")
        elif op == "const":
            value = instr.arg
            if type(value) is int:
                push_atom(f"({lit(value)})", meta=_ranged(
                    None, Interval(value, value)) if ranges else None)
            else:
                push_atom(env.bind(value, "c"))
        elif op in BIN_OPS:
            set_result(em.binop(op, type_of(instr.ty), take, read))
        elif op == "cmp":
            set_result(em.compare(instr.arg, type_of(instr.ty), pc, take,
                                  read))
        elif op in UN_OPS:
            set_result(em.unop(op, type_of(instr.ty), take, read))
        elif op == "cast":
            value = em.cast(type_of(instr.arg), type_of(instr.ty), take, read)
            if value is not None:   # else the operand stays where it is
                set_result(value)
        elif op == "select":
            b, bdeps, _ = popd()
            a, adeps, _ = popd()
            cond, cdeps, _ = popd()
            expr = f"({a}) if ({cond}) != 0 else ({b})"
            if tier2:
                push_atom(expr, adeps | bdeps | cdeps)
            else:
                push(expr)
        elif op == "load":
            em.impure = True
            packer = scalar_struct(type_of(instr.ty))
            unpack = env.bind(packer.unpack_from, "u")
            addr = pop_addr()
            em.bounds(addr, packer)
            push(f"{unpack}({data}, {addr})[0]")
        elif op == "store":
            em.impure = True
            packer, pack, coerce = em.store_kernels(type_of(instr.ty))
            value = pop()
            addr = pop_addr()
            em.bounds(addr, packer)
            em.store(pack, coerce, addr, value)
        elif op == "frame":
            offset = frame_offsets[instr.arg]
            push_atom(f"(fb + {lit(offset)})",
                      meta=_ranged(None, em.frame(offset)))
        elif op == "br":
            flush()
            em.jump(instr.arg, code)
        elif op == "brif":
            cond = pop()
            flush()
            em.branch(instr.arg, code, cond, exit_pc)
        elif op == "call":
            em.impure = True
            flush()
            resolved = low._resolved_callee(instr.arg)
            if resolved is not None:
                # Inline cache: the frozen module pins the callee, so
                # its identity, arity and return shape are constants.
                f = env.bind(resolved, "f")
                a, r = newt(), newt()
                if resolved.param_types:
                    count = lit(len(resolved.param_types))
                    emit(f"{a} = s[-{count}:]")
                    emit(f"del s[-{count}:]")
                else:
                    emit(f"{a} = []")
                emit(f"{r} = vm._run_fast({f}, {a})")
                if resolved.ret_type is not None:
                    emit(f"s.append({r})")
                em.goto(exit_pc)
            else:
                callee = env.bind(instr.arg, "n")
                f, c, a, r = newt(), newt(), newt(), newt()
                emit(f"{f} = vm.module.functions[{callee}]")
                emit(f"{c} = len({f}.param_types)")
                emit(f"if {c}:")
                emit(f"{a} = s[-{c}:]", "    ")
                emit(f"del s[-{c}:]", "    ")
                emit("else:")
                emit(f"{a} = []", "    ")
                emit(f"{r} = vm._run_fast({f}, {a})")
                emit(f"if {f}.ret_type is not None:")
                emit(f"s.append({r})", "    ")
                em.goto(exit_pc)
        elif op == "ret":
            flush()
            em.ret()
        elif op == "pop":
            if vstack:
                vstack.pop()
                vdeps.pop()
                vmeta.pop()
            else:
                em.impure = True
                emit("s.pop()")
        elif op == "vec.load":
            elem = type_of(instr.ty)
            push_vec(em.vload(elem, 16 // ty.sizeof(elem), pop_addr),
                     rules.vec_load(elem) if tier2 else None)
        elif op == "vec.store":
            elem = type_of(instr.ty)
            em.vstore(elem, 16 // ty.sizeof(elem), store_operands)
        elif op.startswith("vec.") and op[4:] in BIN_OPS:
            bop, elem = op[4:], type_of(instr.ty)
            b, bm = vpop()
            a, am = vpop()
            push_vec(em.vbinop(bop, elem, 16 // ty.sizeof(elem), a, b),
                     rules.vec_binop(bop, elem, am, bm) if tier2 else None)
        elif op == "vec.splat":
            elem = type_of(instr.ty)
            x, xdeps, _ = popd()
            push_vec(em.vsplat(x, 16 // ty.sizeof(elem)),
                     rules.vec_splat(elem) if tier2 else None, xdeps)
        elif op == "vec.reduce":
            reduce_op, acc_tag = instr.arg
            elem = type_of(instr.ty)
            push_atom(em.reduce(reduce_op, elem, type_of(acc_tag),
                                16 // ty.sizeof(elem), lambda: vpop()[0]))
        else:
            raise TrapError(f"unknown opcode {op!r}")

        em.end(pc - leader)

    if not em.ended:    # the next leader cut the block short
        flush()
        em.goto(exit_pc)
    return em


# ---------------------------------------------------------------------------
# the engine: the VM's hooks under the tier scaffold
# ---------------------------------------------------------------------------

class _BytecodeLowering(Lowering):
    """The VM's operand model under the shared tier scaffold: a
    virtual operand stack with deferral, locals in the ``lo`` list."""

    signature = "s, lo, ar, fb, mem, vm"
    machine = "vm"
    executed = "instructions_executed"
    fuel_trap = "VM fuel exhausted"
    counts_fetch = True
    tags = ("pvi", "pvi-t2")
    store_holes = ("size", "lanes")
    block_tier = block_tier("lo[{0}]")
    tier2_tier = whole_tier("l{0}")
    predecoded = PredecodedFunction
    stats = TIER2_BUILDS

    def __init__(self, func, binding=None):
        super().__init__(func, binding)
        self.frame_offsets = func.frame_offsets()
        self.safe_args = 0
        #: the lane rules under the facts table tier-2 blocks are
        #: generated under (``begin_tier2``); the block tier has none
        self.rules: LaneRules = None
        #: locals every block writes before it reads them (tier-2)
        self.block_locals = frozenset()

    def lower(self, leader, length, tier):
        return _gen_block_lines(self, leader, length, tier)

    def frame_data(self, module) -> dict:
        func = self.func
        vector_locals = declared_lanes(func)
        scalar_defaults = [None if index in vector_locals
                           else 0.0 if tag in ("f32", "f64") else 0
                           for index, tag in enumerate(func.local_types)]
        # The lane table the module ships for this function, read
        # beside its hotness: whatever module the function is
        # predecoded against, frozen or not, a device's included.
        shipped = module.annotations_for(func.name, LaneFactsAnnotation) \
            if module is not None else ()
        return dict(frame_size=func.frame_size(),
                    scalar_defaults=scalar_defaults,
                    vector_locals=list(vector_locals.items()),
                    has_ret=func.ret_type is not None,
                    tier2_hint=_hotness_hint(func, module),
                    shipped=shipped[0] if shipped else None)

    @staticmethod
    def facts(func, shipped):
        # A shipped table is outside input.  It is adopted only if it
        # holds at entry (the base case); ``check_facts`` then asks
        # the inductive step of whatever table the build ran under.
        # No table, or one refused here: the lane walk alone, counted.
        if shipped is not None and starts_declared(func, shipped):
            return shipped, False
        return lane_fixpoint(func), True

    def begin_tier2(self, facts):
        # The two whole-function facts the blocks are generated under
        # — locals that may ever hold a deferred vec *tuple*, and
        # vector locals whose lane count every ``stloc`` provably
        # preserves — arrive at their fixed point
        # (``repro.analysis.passes.lane_fixpoint``, run offline and
        # shipped, or here), so one generation pass suffices.
        func = self.func
        nlocals = len(func.local_types)
        tuple_locals = facts.tuple_locals
        self.rules = LaneRules(tuple_locals, facts.lane_locals)
        # A value in one of these never leaves its block: the block
        # tier and the reference never read it, and neither does a
        # later block, so tier-2 need not store a vector there.
        crossing = set()
        for leader, length in self.blocks.items():
            stored = set()
            for instr in self.code[leader:leader + length]:
                if instr.op == "ldloc" and instr.arg not in stored:
                    crossing.add(instr.arg)
                elif instr.op == "stloc":
                    stored.add(instr.arg)
        self.block_locals = frozenset(range(nlocals)) - crossing
        entry = []
        num_params = self.safe_args = len(func.param_types)
        if num_params:
            # Entry arity guard: deopt (undebited, before touching any
            # state) when the caller passed fewer args than the
            # signature names, so the block tier raises the
            # reference's IndexError on exactly the right ``ldarg``.
            # Past the guard, every in-signature ``ar[k]`` read is
            # provably safe, which lets the emitter defer them as pure
            # expressions.
            entry = [f"if len(ar) < {num_params}:", "    return pc",
                     "; ".join(f"a{k} = ar[{k}]"
                               for k in range(num_params))]
        load, writeback = [], []
        if nlocals:
            load.append("; ".join(f"l{i} = lo[{i}]"
                                  for i in range(nlocals)))
            # Deopt writeback: tuple-bearing locals normalize back to
            # lists at every engine-observable boundary — the block
            # tier and the reference only ever store lists in the
            # frame.
            writeback = ["; ".join(
                f"lo[{i}] = list(l{i}) if type(l{i}) is tuple else l{i}"
                if i in tuple_locals else f"lo[{i}] = l{i}"
                for i in range(nlocals))]
        return entry, load, writeback

    def induction(self, header, latch):
        # Header ``ldloc iv; <bound>; cmp.lt; brif latch``, latch ending
        # ``ldloc iv; const c; add.i32; stloc iv; br header``, and no
        # other ``stloc`` of ``iv`` or of a local ``bound``.
        code, blocks = self.code, self.blocks
        head = code[header:header + blocks[header]]
        end = latch + blocks[latch]
        if len(head) < 4 or end - latch < 5:
            return None
        load, limit, test, branch = head[-4:]
        get, const, add, put = code[end - 5:end - 1]
        iv, step = load.arg, const.arg
        test_ty = type_of(test.ty) if test.op == "cmp" else None
        if not (branch.op == "brif" and branch.arg == latch
                and test.arg == "lt" and isinstance(test_ty, ty.IntType)
                and test_ty.signed and load.op == "ldloc"
                and (get.op, get.arg) == ("ldloc", iv)
                and const.op == "const" and type(step) is int
                and 0 < step < 1 << 31
                and add.op == "add" and type_of(add.ty) == ty.I32
                and (put.op, put.arg) == ("stloc", iv)):
            return None
        stored = [instr.arg for instr in head + code[latch:end]
                  if instr.op == "stloc"]
        if stored.count(iv) != 1:
            return None
        if limit.op == "ldloc" and limit.arg not in stored:
            bound = f"l{limit.arg}"
        elif limit.op == "ldarg" and limit.arg < self.safe_args:
            bound = f"a{limit.arg}"
        elif limit.op == "const" and type(limit.arg) is int:
            bound = f"({limit.arg})"
        else:
            return None
        func = self.func
        invariants = {f"a{k}" for k, tag in enumerate(func.param_types)
                      if isinstance(TYPE_TAGS.get(tag), ty.IntType)}
        invariants |= {f"l{k}" for k, tag in enumerate(func.local_types)
                       if k not in stored
                       and isinstance(TYPE_TAGS.get(tag), ty.IntType)}
        return Induction(f"l{iv}", bound, step, None,
                         frozenset(range(end - 5, end - 1)),
                         header + len(head) - 2, frozenset(invariants))

    def check_facts(self, facts) -> None:
        # Free: the lowering recorded its stores and widths by calling
        # the rules.  See ``LaneRules`` for why this is the whole check.
        if not (self.rules.holds()
                and self.widths <= facts.access_widths):
            raise ValueError(f"facts table for {self.name!r} is not an "
                             f"invariant of its code")

    def fact_guards(self, entries):
        # The lane facts are whole-function invariants over *every*
        # ``stloc`` (the block tier only ever stores plain lists, and
        # a partially executed block ends the call rather than reach
        # a leader), so one check covers every entry.
        lane_locals = self.rules.lane_locals
        if not lane_locals:
            return 0, []
        lane_checks = " and ".join(
            f"type(l{index}) is list and len(l{index}) == {lanes}"
            for index, lanes in sorted(lane_locals.items()))
        return len(lane_locals), [f"if not ({lane_checks}):",
                                  "    return pc"]
