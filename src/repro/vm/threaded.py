"""Predecoded, block-threaded execution core for the PVI VM.

The reference interpreter (``VM._run``) re-decodes every instruction
through a string if/elif ladder and re-dispatches every ALU op through
``isinstance`` checks.  This module translates a
:class:`~repro.bytecode.module.BytecodeFunction` **once** into a tuple
of specialized handler closures, resolving opcodes, operand types (as
:mod:`repro.semantics.kernels` kernels), immediates and frame offsets
at decode time.  Execution is a tight trampoline::

    while pc >= 0:
        pc = handlers[pc](stack, locals_, args, frame_base, memory, vm)

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
(:func:`repro.tiers.replay_metered`), so the fuel trap lands on
precisely the instruction the reference engine traps on — and an
earlier non-fuel trap inside the block still wins.  A step is the
same lowering applied to a one-instruction block, built on first use;
a block whose lowering bails (malformed instructions defer their error
to execution time, like the reference engine) steps the same way.

The protocol around the lowering — the build loop, the debit and
rollback forms, stepping, the cache, the lazy tier-2 build and its
dispatcher — is the tier scaffold (:mod:`repro.tiers`) shared with
:mod:`repro.targets.dispatch`.  This module supplies the VM's operand
model: the per-opcode lowering over a virtual operand stack
(``_gen_block_lines``, the only fast-engine statement of what an
opcode does), the ``_t2`` frame lines and the per-call initialization
data.  What tier-2 may assume of a vector value, and why a facts
table from anywhere is safe to generate code under, is stated once in
:class:`repro.analysis.passes.LaneRules`; the lowering calls it.

The predecoded form is cached on the function object
(``BytecodeFunction.cached_predecode``) keyed by a structural content
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

from repro.analysis.passes import (
    LaneRules, declared_lanes, lane_fixpoint, starts_declared,
)
from repro.bytecode.annotations import LaneFactsAnnotation
from repro.bytecode.module import BytecodeFunction
from repro.bytecode.opcodes import BIN_OPS, UN_OPS, type_of
from repro.engine import (      # MeterTrip: caught by the trampolines
    MeterTrip, inline_binop, inline_cast, inline_cmp, inline_unop,
    normalize_branch_target,
)
from repro.lang import types as ty
from repro.semantics.errors import TrapError
from repro.semantics.kernels import (
    binop_kernel, cast_kernel, cmp_kernel, identity_kernel, unop_kernel,
    vec_binop_kernel,
)
from repro.semantics.memory import (
    NULL_GUARD, scalar_struct, vector_struct,
)
from repro.tiers import (
    _TIER2_UNBUILT, BlockEmitter, Lowering, Predecoded, Tier,
    Tier2BuildStats, block_tier, whole_tier, wraps_u64,
)

_EMPTY_DEPS = frozenset()

#: vstack meta for a wrapped-u64 inline result (``tiers.wraps_u64``)
#: — feeding one into an address slot skips the redundant 64-bit
#: re-mask.  Every vector meta comes from :class:`LaneRules`, to
#: which this one is as good as ``None``.
_MASKED64_META = {"masked64": True}


def _scalar_meta(value_ty):
    return _MASKED64_META if wraps_u64(value_ty) else None


#: this engine's tier-2 build-site counters (``warm`` builds come from
#: :func:`warm_bytecode_module`)
TIER2_BUILDS = Tier2BuildStats()
tier2_build_stats = TIER2_BUILDS.tier2_build_stats
reset_tier2_build_stats = TIER2_BUILDS.reset_tier2_build_stats


class PredecodedFunction(Predecoded):
    """A bytecode function's decoded form plus the VM's per-call
    initialization data."""

    #: ``tier2_hot``: did the binding module's hotness annotations
    #: clear the adaptive threshold for this function?  (the default
    #: engine's tier-2 promotion gate; ``engine="tier2"`` ignores it)
    __slots__ = ("frame_size", "scalar_defaults", "vector_locals",
                 "has_ret", "tier2_hot")


def predecode(func: BytecodeFunction,
              module=None) -> PredecodedFunction:
    """The (cached) predecoded form of ``func`` — see
    :meth:`repro.tiers.Lowering.predecode`: with a *frozen* ``module``
    the callee function object, its arity and whether it returns a
    value are bound directly into the handlers."""
    return _BytecodeLowering.predecode(func, module)


def warm_bytecode_module(module) -> None:
    """Predecode every function of a bytecode module and pre-build the
    tier-2 translation wherever a serving call could want it — the
    hotness-promoted functions and every OSR candidate (any function
    with a loop header).  The VM twin of
    :func:`repro.targets.dispatch.warm_module`: it prepays the build
    the payback gate would otherwise defer until the loops have run
    long enough to repay it, so every later call starts in tier-2 at
    pc 0 and never runs whole-function codegen in-request
    (:func:`tier2_build_stats` proves it)."""
    for func in module.functions.values():
        pre = predecode(func, module)
        if pre.tier2_hot or pre.osr_leaders:
            pre.tier2(warm=True)


def _tier2_hot(func, module) -> bool:
    """Does the module's hotness profile promote ``func`` to tier 2?

    Unlike the online-analysis gate (where *unprofiled* counts as
    hot), tier-2 promotion requires an explicit annotation: whole-
    function translation is the one online stage expensive enough
    that we only spend it where the offline profile says it pays.
    """
    if module is None:
        return False
    weight = getattr(module, "max_hotness", lambda _n: None)(func.name)
    if weight is None:
        return False
    from repro.flows import ADAPTIVE_HOTNESS_THRESHOLD
    return weight >= ADAPTIVE_HOTNESS_THRESHOLD


# ---------------------------------------------------------------------------
# block code generation
# ---------------------------------------------------------------------------

def _gen_block_lines(low: _BytecodeLowering, leader: int, length: int,
                     tier: Tier) -> BlockEmitter:
    """Emit one fuel block's body as source lines.

    The same per-op lowering serves two tiers: the block-threaded
    engine (locals stay in the ``lo`` list, transfers return the next
    leader to the trampoline) and the tier-2 whole-function compiler
    (locals lowered to Python locals, transfers assign ``pc`` inside
    the generated dispatcher, ``ret`` may need to flush a local fuel
    counter first).

    ``tier.tier2`` additionally turns on the optimizations the
    trampoline tier cannot use: kernel calls inlined as expressions
    (see :func:`repro.engine.inline_binop`), pure values *deferred* on
    the virtual stack so statements fuse (deferral tracks which local
    each pending expression reads, so a ``stloc`` materializes the
    values it would clobber), and ``mem.data``/``mem.size`` read from
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
    local_fmt, goto_fmt, data = tier.place, tier.goto_fmt, tier.data
    em = BlockEmitter(env, tier, low.widths)
    lines, emit, newt, lit = em.lines, em.emit, em.newt, em.lit
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

    def push_atom(atom: str, deps: frozenset = _EMPTY_DEPS,
                  meta=None) -> None:
        """Defer a *pure* expression (const, frame address, or — in
        tier-2 — any inlined arithmetic that cannot raise)."""
        vstack.append(atom)
        vdeps.append(deps)
        vmeta.append(meta)

    def popm():
        """(expr, deps, meta) — the raw slot, tuple-ness visible only
        through ``meta``; callers that let the value escape to an
        engine-observable place must go through :func:`popd`."""
        if vstack:
            return vstack.pop(), vdeps.pop(), vmeta.pop()
        em.impure = True            # s.pop() can IndexError
        t = newt()
        emit(f"{t} = s.pop()")
        return t, _EMPTY_DEPS, None

    def popd():
        """(expr, deps) with vector values normalized to lists —
        tier-2 keeps vec temporaries as tuples internally, but every
        value the reference engine could observe must be a list."""
        expr, deps, meta = popm()
        if meta is not None and meta.get("tuple"):
            expr = f"list({expr})"
        return expr, deps

    def pop() -> str:
        return popd()[0]

    def flush() -> None:
        for j, atom in enumerate(vstack):
            meta = vmeta[j]
            if meta is not None and meta.get("tuple"):
                atom = f"list({atom})"
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
        masked = meta is not None and meta.get("masked64", False)
        if meta is not None and meta.get("tuple"):
            expr = f"list({expr})"      # same TypeError as the lists
        return em.address(expr, masked)

    exit_pc = leader + length

    for pc in range(leader, exit_pc):
        instr = code[pc]
        op = instr.op
        em.begin()

        if op == "ldloc":
            place = local(instr.arg)
            if tier2:
                push_atom(place, frozenset((instr.arg,)),
                          meta=rules.ldloc(instr.arg))
            else:
                push(place)
        elif op == "ldarg":
            if instr.arg < low.safe_args:
                # The dispatcher's entry guard proved ``ar`` holds at
                # least ``safe_args`` values, so the read cannot raise
                # — and hoisted it into local ``a{k}`` (args have no
                # store op, so the binding never goes stale).
                push_atom(f"a{instr.arg}")
            else:
                em.impure = True    # short args IndexError here, like
                push(f"ar[{lit(instr.arg)}]")   # the reference's args[i]
        elif op == "stloc":
            target = local(instr.arg)
            value, _, meta = popm()
            if tier2:
                rules.stloc(instr.arg, meta)
                spill_local(instr.arg)
                em.rewrite(target)
            if tier2 and lines and re.fullmatch(r"t\d+", value) \
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
                push_atom(f"({lit(value)})")
            else:
                push_atom(env.bind(value, "c"))
        elif op in BIN_OPS:
            value_ty = type_of(instr.ty)
            tmpl = inline_binop(op, value_ty, env) if tier2 else None
            b, bdeps = popd()
            a, adeps = popd()
            if tmpl is not None:
                expr, pure = tmpl
                expr = expr.format(a=a, b=b)
                if pure:
                    push_atom(expr, adeps | bdeps,
                              meta=_scalar_meta(value_ty))
                else:
                    em.impure = True
                    push(expr)
            else:
                em.impure = True    # div/rem trap; fallback kernels too
                kernel = env.bind(binop_kernel(op, value_ty), "k")
                push(f"{kernel}({a}, {b})")
        elif op == "cmp":
            value_ty = type_of(instr.ty)
            tmpl = inline_cmp(instr.arg, value_ty) if tier2 else None
            b, bdeps = popd()
            a, adeps = popd()
            if tmpl is not None:
                push_atom(tmpl.format(a=a, b=b), adeps | bdeps)
            else:
                em.impure = True    # undefined predicates trap
                kernel = env.bind(cmp_kernel(instr.arg, value_ty), "k")
                push(f"{kernel}({a}, {b})")
        elif op in UN_OPS:
            value_ty = type_of(instr.ty)
            tmpl = inline_unop(op, value_ty, env) if tier2 else None
            a, adeps = popd()
            if tmpl is not None:
                expr, pure = tmpl
                expr = expr.format(a=a)
                if pure:
                    push_atom(expr, adeps)
                else:
                    em.impure = True
                    push(expr)
            else:
                em.impure = True
                kernel = env.bind(unop_kernel(op, value_ty), "k")
                push(f"{kernel}({a})")
        elif op == "cast":
            from_ty = type_of(instr.arg)
            to_ty = type_of(instr.ty)
            kernel = cast_kernel(from_ty, to_ty)
            if kernel is not identity_kernel:    # elide no-op widenings
                tmpl = inline_cast(from_ty, to_ty, env) if tier2 \
                    else None
                a, adeps = popd()
                if tmpl is not None:
                    expr, pure = tmpl
                    expr = expr.format(a=a)
                    if pure:
                        push_atom(expr, adeps,
                                  meta=_scalar_meta(to_ty))
                    else:
                        em.impure = True
                        push(expr)
                else:
                    em.impure = True
                    push(f"{env.bind(kernel, 'k')}({a})")
        elif op == "select":
            b, bdeps = popd()
            a, adeps = popd()
            cond, cdeps = popd()
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
            em.bounds(addr, packer.size)
            push(f"{unpack}({data}, {addr})[0]")
        elif op == "store":
            em.impure = True
            packer, pack, coerce = em.store_kernels(type_of(instr.ty))
            value = pop()
            addr = pop_addr()
            em.bounds(addr, packer.size)
            em.store(pack, coerce, addr, value)
        elif op == "frame":
            push_atom(f"(fb + {lit(frame_offsets[instr.arg])})")
        elif op == "br":
            target = normalize_branch_target(instr.arg, len(code))
            if not isinstance(target, int):     # the reference's
                # ``pc`` comparison raises TypeError here too
                raise TypeError("non-integer branch target")
            flush()
            emit(goto_fmt.format(lit(target)))
        elif op == "brif":
            target = normalize_branch_target(instr.arg, len(code))
            if not isinstance(target, int):     # the reference's
                # ``pc`` comparison raises TypeError here too
                raise TypeError("non-integer branch target")
            cond = pop()
            flush()
            # An inlined comparison pushes ``(1 if X else 0)``; testing
            # that against zero is just ``X``.
            folded = re.fullmatch(r"\(1 if (.+) else 0\)", cond)
            test = folded.group(1) if folded else f"({cond}) != 0"
            emit(goto_fmt.format(
                f"{lit(target)} if {test} else {lit(exit_pc)}"))
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
                emit(goto_fmt.format(lit(exit_pc)))
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
                emit(goto_fmt.format(lit(exit_pc)))
        elif op == "ret":
            flush()
            for line in low.ret_lines:
                emit(line)
        elif op == "pop":
            if vstack:
                vstack.pop()
                vdeps.pop()
                vmeta.pop()
            else:
                em.impure = True
                emit("s.pop()")
        elif op == "vec.load":
            em.impure = True
            elem = type_of(instr.ty)
            lanes = 16 // ty.sizeof(elem)
            packer = vector_struct(elem, lanes)
            unpack = env.bind(packer.unpack_from, "u")
            addr = pop_addr()
            em.bounds(addr, packer.size)
            if tier2:
                # Keep the unpacked tuple: downstream lane-wise
                # consumers read it directly, and ``popd``/``flush``
                # re-list it wherever the value becomes observable.
                push(f"{unpack}({data}, {addr})",
                     meta=rules.vec_load(elem))
            else:
                push(f"list({unpack}({data}, {addr}))")
        elif op == "vec.store":
            em.impure = True
            elem = type_of(instr.ty)
            lanes = 16 // ty.sizeof(elem)
            packer = vector_struct(elem, lanes)
            pack = env.bind(packer.pack_into, "p")
            elem_name = env.bind(elem, "e")
            value, _, meta = popm()
            static4 = meta is not None and meta.get("lanes") == lanes
            proven_float = static4 and meta.get("float") \
                and isinstance(elem, ty.FloatType)
            # Store-pack fusion: when the value being stored is an
            # inlined f32 quad result whose defining line was emitted
            # just above (``X = qu(qp(lane exprs))``), the store packs
            # the raw lane expressions directly — ``pack`` applies the
            # identical <4f> rounding, so the stored bytes match the
            # round-tripped tuple bit for bit.  The local (if any)
            # then reads its rounded lanes back out of memory, and the
            # out-of-bounds arm recomputes the tuple before trapping,
            # keeping the deopt writeback value intact.
            fused_rhs = cores = None
            if tier2 and proven_float and lines:
                fold = re.fullmatch(
                    rf"{re.escape(value)} = "
                    rf"(qu\d+)\((qp\d+)\((.+)\)\)", lines[-1])
                if fold is not None:
                    cores = fold.group(3)
                    fused_rhs = f"{fold.group(1)}({fold.group(2)}" \
                        f"({cores}))"
                    lines.pop()
                    em.marker_at = min(em.marker_at, len(lines))
            addr = pop_addr()
            slow = f"mem.store_vec({elem_name}, {addr}, {value})"
            pad = "    "
            if static4 and (addr, packer.size) in em.proven:
                # A raise-check in this block already proved this
                # exact (address, width) in range: the store's guard
                # is always true and its out-of-bounds arm is dead.
                pad = ""
            else:
                limit = em.bound_limit(packer.size)
                upper = f"{addr} <= {limit}" if limit is not None \
                    else f"{addr} + {lit(packer.size)} <= {tier.size}"
                guard = "" if static4 \
                    else f"len({value}) == {lit(lanes)} and "
                emit(f"if {guard}{addr} >= {NULL_GUARD} and {upper}:")
            if cores is not None:
                emit(f"{pack}({data}, {addr}, {cores})", pad)
                if re.fullmatch(r"l\d+", value):
                    readback = env.bind(packer.unpack_from, "u")
                    emit(f"{value} = {readback}({data}, {addr})", pad)
            elif proven_float:
                # Lanes produced by the same pack/unpack round trip
                # the store would apply — already genuine in-range
                # floats, so the coercion fallback is unreachable.
                emit(f"{pack}({data}, {addr}, *{value})", pad)
            else:
                emit("try:", pad)
                emit(f"{pack}({data}, {addr}, *{value})", pad + "    ")
                emit("except _PE:", pad)
                emit(slow, pad + "    ")
            if pad:
                emit("else:")
                if cores is not None:
                    emit(f"{value} = {fused_rhs}", pad)
                emit(slow, pad)
        elif op.startswith("vec.") and op[4:] in BIN_OPS:
            em.impure = True            # lane-count mismatch traps
            bop = op[4:]
            elem = type_of(instr.ty)
            kernel = env.bind(vec_binop_kernel(bop, elem), "v")
            quad = em.quad_kernels(bop, elem)
            if quad is None:
                b = pop()
                a = pop()
                push(f"{kernel}({a}, {b})")
            else:
                # Inline the 4-lane f32 kernel; operands whose lane
                # count the block hasn't proven guard into the kernel.
                b, _, bm = popm()
                a, _, am = popm()
                # Fuse a just-materialized 4-lane temp (typically a
                # vec.load's unpack) straight into the lane unpack —
                # the temp's defining line is dropped and its pure
                # right-hand side moves to the point of use.  Only
                # single-use *temps* fuse: a local whose store
                # happens to be the last emitted line must keep that
                # line, because the local outlives this use (deopt
                # writeback, later blocks).  Only proven-4-lane
                # operands fuse (never re-evaluated by a guard).
                for operand, m in ((b, bm), (a, am)):
                    if m is not None and m.get("lanes") == 4 \
                            and lines \
                            and re.fullmatch(r"t\d+", operand) \
                            and lines[-1].startswith(f"{operand} = "):
                        fusedexpr = f"({lines.pop()[len(operand) + 3:]})"
                        if operand == b:
                            b = fusedexpr
                        else:
                            a = fusedexpr
                        em.marker_at -= 1
                guards = [f"len({operand}) == 4"
                          for operand, m in ((a, am), (b, bm))
                          if m is None or m.get("lanes") != 4]
                result = newt()
                em.quad(quad, a, b, guards, result, "{0}", kernel)
                vstack.append(result)
                vdeps.append(_EMPTY_DEPS)
                vmeta.append(rules.vec_binop(bop, elem, am, bm))
        elif op == "vec.splat":
            elem = type_of(instr.ty)
            lanes = 16 // ty.sizeof(elem)
            x, xdeps = popd()
            if tier2:
                push_atom(f"([{x}] * {lit(lanes)})", xdeps,
                          meta=rules.vec_splat(elem))
            else:
                push(f"[{x}] * {lit(lanes)}")
        elif op == "vec.reduce":
            em.impure = True            # empty-vector trap
            reduce_op, acc_tag = instr.arg
            acc = em.reduce(
                reduce_op, type_of(instr.ty), type_of(acc_tag),
                lambda: popm()[0])      # tuples index/iterate the same
            push_atom(acc)
        else:
            raise TrapError(f"unknown opcode {op!r}")

        em.end(pc - leader)

    if code[exit_pc - 1].op not in ("br", "brif", "ret", "call"):
        # fall-through block: transfer to the next leader explicitly
        flush()
        emit(goto_fmt.format(lit(exit_pc)))
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
    tags = ("pvi", "pvi-t2")
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
                    tier2_hot=_tier2_hot(func, module),
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
