"""Concrete dataflow analyses over the fuel-block CFG.

Four passes.  The first computes the table that ships *inside* the
bytecode (:class:`~repro.bytecode.annotations.LaneFactsAnnotation`);
the machine pass is asked for on the device, where the JIT's output
is; the last two are the lint plane (:mod:`repro.analysis.facts`):

* **Vector-lane/tuple fixpoint** (VM bytecode) — the whole-function
  greatest fixpoint the tier-2 VM emitter generates its blocks under:
  which locals may ever hold a deferred vec *tuple*, and which vector
  locals provably keep their lane count across every ``stloc``.  The
  rules of that domain are stated once, in :class:`LaneRules`; the
  fixpoint here and the emitter
  (:func:`repro.vm.threaded._gen_block_lines`) both call them, and
  the emitter's pass validates whatever table it is handed.
* **Must-written registers** (machine code) — the forward must-
  dataflow previously private to ``targets.dispatch``: registers
  definitely written on every internal path reaching a leader.
* **Integer value ranges** — interval abstract interpretation
  (:mod:`repro.analysis.intervals`) with aggressive widening at
  joins; feeds the lint plane (provably null-page accesses, constant
  branch conditions).
* **Liveness / dead stores** (backward) — ``stloc`` sites whose value
  no path ever reads.

Nothing here imports the engines — ``repro.vm.threaded`` and
``repro.targets.dispatch`` import *us*.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.cfg import BlockCFG
from repro.analysis.intervals import (
    TAG_INTERVALS, TOP, Interval, exact_binop, hull, widen, within,
)
from repro.analysis.solver import solve_backward, solve_forward
from repro.bytecode.annotations import LaneFactsAnnotation
from repro.bytecode.module import is_vector_local, vector_elem_tag
from repro.bytecode.opcodes import BIN_OPS, UN_OPS, type_of
from repro.lang import types as ty
from repro.semantics.kernels import cast_kernel, identity_kernel, is_f32_quad
from repro.semantics.memory import NULL_GUARD, scalar_struct

#: machine register classes (kept independent of targets.dispatch's
#: ``_CLS_INDEX`` so this package never imports the engines)
REG_CLASSES = ("int", "flt", "vec")


# ---------------------------------------------------------------------------
# vector-lane / tuple fixpoint (VM bytecode)
# ---------------------------------------------------------------------------

#: bytes a ``vec.load`` / ``vec.store`` moves; a vector of ``elem``
#: has ``VECTOR_BYTES // sizeof(elem)`` lanes (the value of
#: ``repro.ir.values.VECTOR_BYTES``: this package imports no IR)
VECTOR_BYTES = 16


class LaneRules:
    """The VM tier-2 vector domain, stated once.

    A *meta* is what is statically known of one operand-stack slot or
    local: ``None`` (nothing), or ``{"lanes": k or None, "tuple":
    bool, "float": bool}`` — a vector of ``k`` lanes (``None``: count
    unknown), possibly held as a deferred Python *tuple* instead of
    the list every engine-observable place holds, its lanes known to
    be in-range floats (fresh from an unpack or an f32 round trip, so
    a pack of them cannot fail).  An instance is those rules under one
    table ``(tuple_locals, lane_locals)``: the entry meta of an
    ``ldloc``, what a ``stloc`` records and remembers for the rest of
    its block, the metas ``vec.load``, ``vec.splat`` and the inlined
    f32 quad produce, and the access widths whose ``_ms - width``
    limit tier-2 hoists.  Two walks call them and neither restates
    them: :func:`lane_fixpoint`, which iterates the table to its fixed
    point, and the tier-2 emitter, which generates code under the
    table in force and validates it as a by-product.

    **Soundness.**  The analysis walk may stop only where the emitter
    also raises; anywhere else it continues.  A block whose tier-2
    lowering raises gets no tier-2 arm at all, so what the walk
    records past that point only *adds* tuple stores, lane breaks and
    widths — the conservative direction of all three facts.  A table
    is sound for a function iff the emitter's pass under it records no
    lane break, no tuple store outside ``tuple_locals``
    (:meth:`holds`) and no width outside ``access_widths``: the table
    is then an inductive invariant of every ``stloc`` tier-2 can
    execute, whoever computed it.  That is the inductive step; the
    base case is what a local holds before any ``stloc``
    (:func:`starts_declared`), which a table computed here has by
    construction and a shipped one is asked for before it is adopted.
    """

    def __init__(self, tuple_locals: frozenset, lane_locals: dict):
        self.tuple_locals = tuple_locals
        self.lane_locals = lane_locals
        #: what the walk has seen the function do
        self.tuple_stores: set = set()
        self.lane_breaks: set = set()
        self.widths: set = set()
        #: metas proven for a local by a ``stloc`` of the block in hand
        self.stored: dict = {}

    def enter_block(self) -> None:
        self.stored = {}

    def ldloc(self, index):
        """The meta of local ``index``: what this block stored there,
        else what the table knows at block entry — "possibly a tuple"
        when some block keeps one there, plus the lane count when
        every store anywhere preserves it (the local starts as a fresh
        ``[0] * lanes`` list)."""
        if index in self.stored:
            return self.stored[index]
        lanes = self.lane_locals.get(index)
        held = index in self.tuple_locals
        if held or lanes is not None:
            return {"lanes": lanes, "tuple": held, "float": False}
        return None

    def stloc(self, index, meta) -> None:
        """A store of a value with ``meta`` into local ``index``.  A
        tuple stays a tuple (the tier-2 writeback re-lists
        ``tuple_locals`` at every engine-observable boundary); a store
        that may change the lane count breaks the local's lane fact."""
        if meta is not None and meta.get("tuple"):
            self.tuple_stores.add(index)
        lanes = self.lane_locals.get(index)
        if lanes is not None \
                and (meta is None or meta.get("lanes") != lanes):
            self.lane_breaks.add(index)
        self.stored[index] = meta

    def vec_load(self, elem):
        """Tier-2 keeps the unpacked tuple."""
        return {"lanes": VECTOR_BYTES // ty.sizeof(elem), "tuple": True,
                "float": isinstance(elem, ty.FloatType)}

    def vec_splat(self, elem):
        return {"lanes": VECTOR_BYTES // ty.sizeof(elem), "tuple": False,
                "float": False}

    def vec_binop(self, bop: str, elem, am, bm):
        """``None`` for a kernel call (a list of unknown length).  The
        inlined f32 quad leaves a tuple: with one 4-lane operand the
        kernel fallback can only trap on a mismatch, so whatever flows
        on has 4 lanes; only two unproven operands can yield another
        count."""
        if not is_f32_quad(bop, elem):
            return None
        proven = any(m is not None and m.get("lanes") == 4
                     for m in (am, bm))
        return {"lanes": 4 if proven else None, "tuple": True,
                "float": True}

    def width(self, size: int) -> None:
        """A ``size``-byte access checked against a hoisted limit."""
        self.widths.add(size)

    def holds(self) -> bool:
        """Did the walk leave the table intact?"""
        return not self.lane_breaks \
            and self.tuple_stores <= self.tuple_locals


def _lane_block(code, leader: int, length: int, rules: LaneRules) -> None:
    """One block's operand-stack shape, each slot a :class:`LaneRules`
    meta.  Raises on an instruction it cannot interpret (an unknown
    opcode, a type tag ``type_of`` rejects), which the emitter cannot
    lower either."""
    rules.enter_block()
    stack: List = []

    def pop():
        return stack.pop() if stack else None   # cross-block: unknown

    for instr in code[leader:leader + length]:
        op = instr.op
        if op == "ldloc":
            stack.append(rules.ldloc(instr.arg))
        elif op == "stloc":
            rules.stloc(instr.arg, pop())
        elif op in ("const", "ldarg", "frame"):
            stack.append(None)
        elif op in BIN_OPS or op == "cmp":
            pop()
            pop()
            stack.append(None)
        elif op in UN_OPS:
            pop()
            stack.append(None)
        elif op == "cast":
            # an identity cast leaves the slot, meta included, alone
            if cast_kernel(type_of(instr.arg), type_of(instr.ty)) \
                    is not identity_kernel:
                pop()
                stack.append(None)
        elif op == "select":
            pop()
            pop()
            pop()
            stack.append(None)
        elif op == "load":
            rules.width(scalar_struct(type_of(instr.ty)).size)
            pop()
            stack.append(None)
        elif op == "store":
            rules.width(scalar_struct(type_of(instr.ty)).size)
            pop()
            pop()
        elif op == "vec.load":
            rules.width(VECTOR_BYTES)
            pop()
            stack.append(rules.vec_load(type_of(instr.ty)))
        elif op == "vec.store":
            rules.width(VECTOR_BYTES)
            pop()
            pop()
        elif op == "vec.splat":
            pop()
            stack.append(rules.vec_splat(type_of(instr.ty)))
        elif op == "vec.reduce":
            pop()
            stack.append(None)
        elif op.startswith("vec.") and op[4:] in BIN_OPS:
            bm, am = pop(), pop()
            stack.append(rules.vec_binop(op[4:], type_of(instr.ty),
                                         am, bm))
        elif op in ("brif", "pop"):
            pop()
        elif op not in ("br", "call", "ret"):   # these end the block
            raise ValueError(f"unknown opcode {op!r}")


def declared_lanes(func) -> Dict[int, int]:
    """The table's base case: vector local -> the lane count its
    declared type starts it with (a fresh ``[0] * lanes`` list; a
    scalar local starts as a number and is in no table)."""
    return {index: VECTOR_BYTES // ty.sizeof(type_of(vector_elem_tag(tag)))
            for index, tag in enumerate(func.local_types)
            if is_vector_local(tag)}


def starts_declared(func, table: LaneFactsAnnotation) -> bool:
    """Does ``table`` hold at entry?  It may name only vector locals,
    at their declared lane count.  :func:`lane_fixpoint` starts from
    :func:`declared_lanes` and only shrinks it, so an honest table
    passes; one shipped from elsewhere is adopted only if it does
    (the inductive step is the emitter's: :meth:`LaneRules.holds`)."""
    declared = declared_lanes(func)
    return table.tuple_locals <= declared.keys() \
        and table.lane_locals.items() <= declared.items()


def lane_fixpoint(func) -> LaneFactsAnnotation:
    """The VM tier-2 whole-function facts of ``func``, at their fixed
    point, as the annotation that ships them.

    ``tuple_locals`` grows monotonically (a local that ever receives a
    deferred vec tuple taints every ``ldloc`` of it); ``lane_locals``
    shrinks monotonically from :func:`declared_lanes` (one unproven
    ``stloc`` drops the local's lane fact); ``access_widths`` is the
    set of memory access sizes seen anywhere — a superset of the
    widths the final codegen pass hoists ``_ms - width`` limits for.
    """
    code = func.code
    blocks = BlockCFG(code).blocks
    tuple_locals = frozenset()
    lane_locals = declared_lanes(func)
    while True:
        rules = LaneRules(tuple_locals, lane_locals)
        for leader, length in blocks.items():
            try:
                _lane_block(code, leader, length, rules)
            except Exception:
                pass        # the emitter raises there too: see LaneRules
        if rules.holds():
            return LaneFactsAnnotation(func.name, tuple_locals,
                                       lane_locals,
                                       frozenset(rules.widths))
        tuple_locals = tuple_locals | rules.tuple_stores
        lane_locals = {index: lanes for index, lanes in lane_locals.items()
                       if index not in rules.lane_breaks}


# ---------------------------------------------------------------------------
# must-written registers (machine code)
# ---------------------------------------------------------------------------

def machine_param_regs(func) -> frozenset:
    """(kind, index) registers guaranteed written at function entry."""
    return frozenset(loc for loc in func.param_locs
                     if loc[0] != "slot")


def written_at_block_entry(code, cfg: BlockCFG,
                           param_regs: frozenset) -> Dict[int, frozenset]:
    """leader -> registers definitely written on every internal path
    reaching it (forward must-dataflow from block 0).

    Sound for tier-2 and for guard elision because a block either runs
    to its terminator or exits the function entirely (a mid-block trap
    propagates out, a fuel deopt re-runs under block-tier accounting)
    — so along any path reaching a leader, every predecessor block
    executed whole and all its destinations are written.  This holds
    on the block-threaded tier too, which is why an OSR entry needs no
    ``_UNSET`` re-checks: the live snapshot arrived over the same
    block graph."""
    gen = {}
    for leader, length in cfg.blocks.items():
        gen[leader] = frozenset(
            instr.dst for instr in code[leader:leader + length]
            if instr.dst is not None and instr.dst[0] in REG_CLASSES)

    def transfer(leader, fact):
        return fact | gen[leader]

    def join(old, new):
        met = old & new
        return met, met != old

    return solve_forward(cfg, frozenset(param_regs), transfer, join)


# ---------------------------------------------------------------------------
# integer value ranges
# ---------------------------------------------------------------------------

#: the ops whose result the walk follows (any other is the whole
#: type).  Not ``shl``: its tighter ranges change what the lint finds
#: (in a loop, a local it feeds goes from its type's range to a widened
#: join's ±inf; the register-allocation corpus' ``mat4`` has one).
_FOLLOWED = frozenset(("add", "sub", "mul", "min", "max"))


def _range_block(code, leader: int, length: int, locals_in: dict,
                 int_locals: set, sink=None) -> dict:
    """Abstract-interpret one block over intervals; returns the exit
    locals map.  ``sink(pc, kind, interval, width)`` observes memory
    addresses (kind ``load``/``store``/``vec.load``/``vec.store``)
    and branch conditions (kind ``brif``, width ``None``)."""
    loc = dict(locals_in)
    stack: List = []

    def pop():
        return stack.pop() if stack else TOP

    for pc in range(leader, leader + length):
        instr = code[pc]
        op = instr.op
        if op == "const":
            if instr.ty in TAG_INTERVALS and isinstance(instr.arg, int):
                stack.append(Interval(instr.arg, instr.arg))
            else:
                stack.append(TOP)
        elif op == "ldloc":
            stack.append(loc.get(instr.arg, TOP))
        elif op == "stloc":
            value = pop()
            if instr.arg in int_locals:
                loc[instr.arg] = value
        elif op in ("ldarg", "frame"):
            stack.append(TOP)
        elif op in BIN_OPS:
            b, a = pop(), pop()
            whole = TAG_INTERVALS.get(instr.ty, TOP)
            stack.append(whole if whole is TOP or op not in _FOLLOWED
                         else exact_binop(op, type_of(instr.ty), a, b)
                         or whole)
        elif op in UN_OPS:
            pop()
            stack.append(TAG_INTERVALS.get(instr.ty, TOP))
        elif op == "cmp":
            pop()
            pop()
            stack.append(Interval(0, 1))
        elif op == "cast":
            value, to_ty = pop(), type_of(instr.ty)     # a bad tag raises
            whole = TAG_INTERVALS.get(instr.ty, TOP)
            stack.append(value if whole is not TOP and within(value, to_ty)
                         else whole)
        elif op == "select":
            b, a = pop(), pop()
            pop()
            stack.append(hull(a, b))
        elif op == "load":
            addr = pop()
            if sink is not None:
                sink(pc, "load", addr, scalar_struct(type_of(instr.ty)).size)
            stack.append(TAG_INTERVALS.get(instr.ty, TOP))
        elif op == "store":
            pop()
            addr = pop()
            if sink is not None:
                sink(pc, "store", addr, scalar_struct(type_of(instr.ty)).size)
        elif op == "vec.load":
            addr = pop()
            if sink is not None:
                sink(pc, "vec.load", addr, 16)
            stack.append(TOP)
        elif op == "vec.store":
            pop()
            addr = pop()
            if sink is not None:
                sink(pc, "vec.store", addr, 16)
        elif op in ("vec.splat",):
            pop()
            stack.append(TOP)
        elif op == "vec.reduce":
            pop()
            stack.append(TAG_INTERVALS.get(instr.arg[1], TOP)
                         if isinstance(instr.arg, tuple)
                         and len(instr.arg) == 2 else TOP)
        elif op.startswith("vec.") and op[4:] in BIN_OPS:
            pop()
            pop()
            stack.append(TOP)
        elif op == "brif":
            cond = pop()
            if sink is not None:
                sink(pc, "brif", cond, None)
        elif op == "pop":
            pop()
        elif op == "call":
            break                   # terminator; callee effects unknown
        # br/ret: terminators with no range effect
    return loc


def int_value_ranges(func, cfg: BlockCFG) -> Dict[int, Dict[int, Interval]]:
    """leader -> {local index: :class:`Interval`} at block entry, for
    integer locals.  Joins widen aggressively (a growing bound jumps straight
    to the type range's side of infinity), so the worklist terminates
    in O(blocks * locals)."""
    int_locals = {index for index, tag in enumerate(func.local_types)
                  if tag in TAG_INTERVALS}
    entry0 = {index: Interval(0, 0) for index in int_locals}  # default 0

    def transfer(leader, fact):
        return _range_block(func.code, leader, cfg.blocks[leader],
                            fact, int_locals)

    def join(old, new):
        merged = {}
        changed = False
        for index in int_locals:
            was = old.get(index, TOP)
            merged[index] = widen(was, new.get(index, TOP))
            changed = changed or merged[index] is not was
        return merged, changed

    return solve_forward(cfg, entry0, transfer, join)


def range_findings(func, cfg: BlockCFG,
                   ranges: Dict[int, Dict[int, Interval]]) -> List[Tuple]:
    """(pc, kind, detail) memory/branch facts worth linting: accesses
    whose address is provably inside the null guard page, and ``brif``
    conditions provably constant."""
    found: List[Tuple] = []

    def sink(pc, kind, interval, width):
        if kind == "brif":
            if interval.lo == interval.hi == 0:
                found.append((pc, "branch-never", "condition is always 0"))
            elif interval.lo > 0 or interval.hi < 0:
                found.append((pc, "branch-always",
                              "condition is never 0"))
            return
        if interval.hi < NULL_GUARD and interval.hi >= 0:
            found.append((pc, "null-access",
                          f"{kind} address <= {interval.hi:#x} lies in "
                          f"the null guard page (< {NULL_GUARD:#x}); "
                          "this access always traps"))

    for leader in sorted(ranges):
        _range_block(func.code, leader, cfg.blocks[leader],
                     ranges[leader], set(), sink=sink)
    return found


# ---------------------------------------------------------------------------
# liveness / dead stores (backward)
# ---------------------------------------------------------------------------

def live_at_block_exit(func, cfg: BlockCFG) -> Dict[int, frozenset]:
    """leader -> locals possibly read after the block exits."""
    def transfer(leader, live_out):
        live = set(live_out)
        for pc in range(leader + cfg.blocks[leader] - 1, leader - 1, -1):
            instr = func.code[pc]
            if instr.op == "stloc" and isinstance(instr.arg, int):
                live.discard(instr.arg)
            elif instr.op == "ldloc" and isinstance(instr.arg, int):
                live.add(instr.arg)
        return frozenset(live)

    def join(old, new):
        merged = old | new
        return merged, merged != old

    return solve_backward(cfg, frozenset(), transfer, join)


def dead_stores(func, cfg: BlockCFG,
                live: Dict[int, frozenset]) -> List[Tuple[int, int]]:
    """(pc, local) ``stloc`` sites whose value no path reads."""
    sites: List[Tuple[int, int]] = []
    for leader in sorted(live):
        alive = set(live[leader])
        for pc in range(leader + cfg.blocks[leader] - 1, leader - 1, -1):
            instr = func.code[pc]
            if instr.op == "stloc" and isinstance(instr.arg, int):
                if instr.arg not in alive:
                    sites.append((pc, instr.arg))
                alive.discard(instr.arg)
            elif instr.op == "ldloc" and isinstance(instr.arg, int):
                alive.add(instr.arg)
    return sorted(sites)
