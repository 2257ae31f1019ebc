"""Concrete dataflow analyses over the fuel-block CFG.

Five passes feed the proven-facts table (:mod:`repro.analysis.facts`):

* **Vector-lane/tuple fixpoint** (VM bytecode) — the whole-function
  greatest fixpoint the tier-2 VM emitter generates its blocks under:
  which locals may ever hold a deferred vec *tuple*, and which vector
  locals provably keep their lane count across every ``stloc``.  The
  abstract interpreter below mirrors the emitter's meta-stack rules
  (:func:`repro.vm.threaded._gen_block_lines`) *call for call* — same
  validating helper calls in the same order, so a block aborts
  analysis at exactly the instruction whose lowering raises, which is
  the instruction that raises when the block executes.  Facts recorded
  before the abort therefore hold on every real execution prefix,
  which is what makes OSR guard elision sound: stores past an abort
  point never execute on any tier.
* **Must-written registers** (machine code) — the forward must-
  dataflow previously private to ``targets.dispatch``: registers
  definitely written on every internal path reaching a leader.
* **Integer value ranges** — interval abstract interpretation with
  aggressive widening at joins; feeds the lint plane (provably
  null-page accesses, constant branch conditions).
* **Definite initialization** — locals definitely stored before a
  leader (must-meet), plus the ``ldloc`` sites that may read a
  still-default local.
* **Liveness / dead stores** (backward) — ``stloc`` sites whose value
  no path ever reads.

Nothing here imports the engines — ``repro.vm.threaded`` and
``repro.targets.dispatch`` import *us*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import BlockCFG
from repro.analysis.solver import solve_backward, solve_forward
from repro.bytecode.module import is_vector_local, vector_elem_tag
from repro.bytecode.opcodes import BIN_OPS, UN_OPS, type_of
from repro.engine import (
    CodegenEnv, inline_binop, inline_cast, inline_cmp, inline_unop,
    normalize_branch_target,
)
from repro.lang import types as ty
from repro.semantics.kernels import (
    binop_kernel, cast_kernel, cmp_kernel, identity_kernel, unop_kernel,
    vec_binop_kernel,
)
from repro.semantics.memory import NULL_GUARD, scalar_struct, vector_struct

_INT_TAGS = {"i8", "u8", "i16", "u16", "i32", "u32", "i64", "u64"}

#: machine register classes (kept independent of targets.dispatch's
#: ``_CLS_INDEX`` so this package never imports the engines)
REG_CLASSES = ("int", "flt", "vec")


# ---------------------------------------------------------------------------
# vector-lane / tuple fixpoint (VM bytecode)
# ---------------------------------------------------------------------------

#: vstack meta for a wrapped-u64 inline result — feeding one into an
#: address slot skips the redundant 64-bit re-mask (shared with the
#: emitter, ``repro.vm.threaded``)
_MASKED64_META = {"masked64": True}


def _scalar_meta(value_ty):
    if isinstance(value_ty, ty.IntType) and value_ty.bits == 64 \
            and not value_ty.signed:
        return _MASKED64_META
    return None


def _abstract_block(code, leader: int, length: int, frame_offsets,
                    env: CodegenEnv, binding, tuple_locals: frozenset,
                    lane_locals: dict, info: dict, widths: set) -> None:
    """One block of the emitter's meta dataflow, emission elided.

    Must stay in lockstep with ``repro.vm.threaded._gen_block_lines``
    under its tier-2 descriptor: the same pops/pushes per op, the same
    meta values, the same ``tuple_stores``/``lane_breaks`` recording,
    and — critically — the same raising helper calls in the same
    order, so an exception aborts this walk at exactly the instruction
    whose lowering raises — the one that raises when the block
    executes.  The tier-2 build cross-checks the final codegen pass
    against these facts (``check_facts``) and declines on any
    mismatch, so a drift bug degrades to the block tier instead of
    miscompiling.
    """
    vmeta: List = []
    local_meta: dict = {}

    def push(meta=None) -> None:
        vmeta.append(meta)

    def popm():
        if vmeta:
            return vmeta.pop()
        return None                 # cross-block stack value: unknown

    def flush() -> None:
        del vmeta[:]

    exit_pc = leader + length
    for pc in range(leader, exit_pc):
        instr = code[pc]
        op = instr.op

        if op == "ldloc":
            if instr.arg in local_meta:
                meta = local_meta[instr.arg]
            elif instr.arg in tuple_locals:
                meta = {"lanes": lane_locals.get(instr.arg),
                        "tuple": True, "float": False}
            elif instr.arg in lane_locals:
                meta = {"lanes": lane_locals[instr.arg],
                        "tuple": False, "float": False}
            else:
                meta = None
            push(meta)
        elif op == "ldarg":
            push()
        elif op == "stloc":
            meta = popm()
            if meta is not None and meta.get("tuple"):
                info["tuple_stores"].add(instr.arg)
            if instr.arg in lane_locals \
                    and (meta is None
                         or meta.get("lanes") != lane_locals[instr.arg]):
                info["lane_breaks"].add(instr.arg)
            local_meta[instr.arg] = meta
        elif op == "const":
            push()
        elif op in BIN_OPS:
            value_ty = type_of(instr.ty)
            tmpl = inline_binop(op, value_ty, env)
            popm()
            popm()
            if tmpl is not None:
                push(_scalar_meta(value_ty) if tmpl[1] else None)
            else:
                binop_kernel(op, value_ty)
                push()
        elif op == "cmp":
            value_ty = type_of(instr.ty)
            tmpl = inline_cmp(instr.arg, value_ty)
            popm()
            popm()
            if tmpl is None:
                cmp_kernel(instr.arg, value_ty)
            push()
        elif op in UN_OPS:
            value_ty = type_of(instr.ty)
            tmpl = inline_unop(op, value_ty, env)
            popm()
            if tmpl is None:
                unop_kernel(op, value_ty)
            push()
        elif op == "cast":
            from_ty = type_of(instr.arg)
            to_ty = type_of(instr.ty)
            kernel = cast_kernel(from_ty, to_ty)
            if kernel is not identity_kernel:   # identity: slot untouched
                tmpl = inline_cast(from_ty, to_ty, env)
                popm()
                if tmpl is not None:
                    push(_scalar_meta(to_ty) if tmpl[1] else None)
                else:
                    push()
        elif op == "select":
            popm()
            popm()
            popm()
            push()
        elif op == "load":
            packer = scalar_struct(type_of(instr.ty))
            popm()                              # address
            widths.add(packer.size)
            push()
        elif op == "store":
            packer = scalar_struct(type_of(instr.ty))
            popm()                              # value
            popm()                              # address
            widths.add(packer.size)
        elif op == "frame":
            frame_offsets[instr.arg]            # same IndexError
            push()
        elif op == "br":
            target = normalize_branch_target(instr.arg, len(code))
            if not isinstance(target, int):
                raise ValueError("non-integer branch target")
            flush()
        elif op == "brif":
            target = normalize_branch_target(instr.arg, len(code))
            if not isinstance(target, int):
                raise ValueError("non-integer branch target")
            popm()                              # condition
            flush()
        elif op == "call":
            flush()
            if binding is not None:
                binding.functions.get(instr.arg)
        elif op == "ret":
            flush()
        elif op == "pop":
            if vmeta:
                vmeta.pop()
        elif op == "vec.load":
            elem = type_of(instr.ty)
            lanes = 16 // ty.sizeof(elem)
            packer = vector_struct(elem, lanes)
            popm()                              # address
            widths.add(packer.size)
            push({"lanes": lanes, "tuple": True,
                  "float": isinstance(elem, ty.FloatType)})
        elif op == "vec.store":
            elem = type_of(instr.ty)
            lanes = 16 // ty.sizeof(elem)
            packer = vector_struct(elem, lanes)
            popm()                              # value
            popm()                              # address
            widths.add(packer.size)
        elif op.startswith("vec.") and op[4:] in BIN_OPS:
            bop = op[4:]
            elem = type_of(instr.ty)
            vec_binop_kernel(bop, elem)
            if not (isinstance(elem, ty.FloatType) and elem.bits == 32
                    and bop in ("add", "sub", "mul", "min", "max")):
                popm()
                popm()
                push()
            else:
                bm = popm()
                am = popm()
                guards = sum(1 for m in (am, bm)
                             if m is None or m.get("lanes") != 4)
                push({"lanes": 4 if guards < 2 else None,
                      "tuple": True, "float": True})
        elif op == "vec.splat":
            elem = type_of(instr.ty)
            lanes = 16 // ty.sizeof(elem)
            popm()                              # scalar
            push({"lanes": lanes, "tuple": False, "float": False})
        elif op == "vec.reduce":
            reduce_op, acc_tag = instr.arg
            if reduce_op not in ("add", "max", "min"):
                raise ValueError("undefined reduce op")
            elem = type_of(instr.ty)
            acc_ty = type_of(acc_tag)
            widen_kernel = cast_kernel(elem, acc_ty)
            if widen_kernel is identity_kernel:
                widen_tpl = ("{a}", True)
            else:
                widen_tpl = inline_cast(elem, acc_ty, env)
            fold_tpl = inline_binop(reduce_op, acc_ty, env)
            popm()                              # vector
            if not (widen_tpl is not None and widen_tpl[1]
                    and fold_tpl is not None and fold_tpl[1]):
                binop_kernel(reduce_op, acc_ty)
            push()
        else:
            raise ValueError(f"unknown opcode {op!r}")


def lane_fixpoint(func, binding=None):
    """``(tuple_locals, lane_locals, access_widths)`` — the VM tier-2
    whole-function facts, at their fixed point.

    ``tuple_locals`` grows monotonically (a local that ever receives a
    deferred vec tuple taints every ``ldloc`` of it); ``lane_locals``
    shrinks monotonically (one unproven ``stloc`` drops the local's
    lane fact); ``access_widths`` is the set of memory access sizes
    seen anywhere — a superset of the widths the final codegen pass
    hoists ``_ms - width`` limits for.  ``binding`` only affects abort
    fidelity inside ``call`` blocks; the facts themselves are
    binding-independent (``call`` terminates its block).
    """
    code = func.code
    blocks = BlockCFG(code).blocks
    frame_offsets = func.frame_offsets()
    env = CodegenEnv({})
    tuple_locals = frozenset()
    lane_locals: Dict[int, int] = {}
    for index, tag in enumerate(func.local_types):
        if is_vector_local(tag):
            elem = type_of(vector_elem_tag(tag))
            lane_locals[index] = 16 // ty.sizeof(elem)
    while True:
        info = {"tuple_stores": set(), "lane_breaks": set()}
        widths: Set[int] = set()
        for leader in blocks:
            try:
                _abstract_block(code, leader, blocks[leader],
                                frame_offsets, env, binding,
                                tuple_locals, lane_locals, info, widths)
            except Exception:
                pass                # partial facts up to the abort count
        grown = tuple_locals | info["tuple_stores"]
        if grown == tuple_locals and not info["lane_breaks"]:
            return tuple_locals, dict(lane_locals), frozenset(widths)
        tuple_locals = frozenset(grown)
        for index in info["lane_breaks"]:
            lane_locals.pop(index, None)


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

INF = float("inf")
TOP = (-INF, INF)


def _tag_range(tag: str) -> Tuple:
    lang_ty = type_of(tag)
    if isinstance(lang_ty, ty.IntType):
        if lang_ty.signed:
            half = 1 << (lang_ty.bits - 1)
            return (-half, half - 1)
        return (0, (1 << lang_ty.bits) - 1)
    return TOP


def _interval_binop(op: str, tag: str, a, b):
    if tag not in _INT_TAGS:
        return TOP
    lo_t, hi_t = _tag_range(tag)
    if op == "add":
        lo, hi = a[0] + b[0], a[1] + b[1]
    elif op == "sub":
        lo, hi = a[0] - b[1], a[1] - b[0]
    elif op == "mul":
        corners = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
        lo, hi = min(corners), max(corners)
    elif op in ("min", "max"):
        pick = min if op == "min" else max
        lo, hi = pick(a[0], b[0]), pick(a[1], b[1])
    else:                           # div/rem/shifts/bitwise: give up
        return _tag_range(tag)
    if lo != lo or hi != hi:        # inf-inf artifacts
        return _tag_range(tag)
    if lo < lo_t or hi > hi_t:      # may wrap: the kernel masks
        return _tag_range(tag)
    return (lo, hi)


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
            if instr.ty in _INT_TAGS and isinstance(instr.arg, int):
                stack.append((instr.arg, instr.arg))
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
            stack.append(_interval_binop(op, instr.ty, a, b))
        elif op in UN_OPS:
            pop()
            stack.append(_tag_range(instr.ty)
                         if instr.ty in _INT_TAGS else TOP)
        elif op == "cmp":
            pop()
            pop()
            stack.append((0, 1))
        elif op == "cast":
            value = pop()
            lo_t, hi_t = _tag_range(instr.ty)
            if instr.ty in _INT_TAGS \
                    and lo_t <= value[0] and value[1] <= hi_t:
                stack.append(value)
            else:
                stack.append(_tag_range(instr.ty)
                             if instr.ty in _INT_TAGS else TOP)
        elif op == "select":
            b, a = pop(), pop()
            pop()
            stack.append((min(a[0], b[0]), max(a[1], b[1])))
        elif op == "load":
            addr = pop()
            if sink is not None:
                sink(pc, "load", addr, scalar_struct(type_of(instr.ty)).size)
            stack.append(_tag_range(instr.ty)
                         if instr.ty in _INT_TAGS else TOP)
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
            stack.append(_tag_range(instr.arg[1])
                         if isinstance(instr.arg, tuple)
                         and len(instr.arg) == 2
                         and instr.arg[1] in _INT_TAGS else TOP)
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


def int_value_ranges(func, cfg: BlockCFG) -> Dict[int, Dict[int, Tuple]]:
    """leader -> {local index: (lo, hi)} at block entry, for integer
    locals.  Joins widen aggressively (a growing bound jumps straight
    to the type range's side of infinity), so the worklist terminates
    in O(blocks * locals)."""
    int_locals = {index for index, tag in enumerate(func.local_types)
                  if tag in _INT_TAGS}
    entry0 = {index: (0, 0) for index in int_locals}   # locals default 0

    def transfer(leader, fact):
        return _range_block(func.code, leader, cfg.blocks[leader],
                            fact, int_locals)

    def join(old, new):
        merged = {}
        changed = False
        for index in int_locals:
            olo, ohi = old.get(index, TOP)
            nlo, nhi = new.get(index, TOP)
            lo = olo if nlo >= olo else -INF
            hi = ohi if nhi <= ohi else INF
            merged[index] = (lo, hi)
            if (lo, hi) != (olo, ohi):
                changed = True
        return merged, changed

    return solve_forward(cfg, entry0, transfer, join)


def range_findings(func, cfg: BlockCFG,
                   ranges: Dict[int, Dict[int, Tuple]]) -> List[Tuple]:
    """(pc, kind, detail) memory/branch facts worth linting: accesses
    whose address is provably inside the null guard page, and ``brif``
    conditions provably constant."""
    found: List[Tuple] = []

    def sink(pc, kind, interval, width):
        if kind == "brif":
            if interval == (0, 0):
                found.append((pc, "branch-never", "condition is always 0"))
            elif interval[0] > 0 or interval[1] < 0:
                found.append((pc, "branch-always",
                              "condition is never 0"))
            return
        if interval[1] < NULL_GUARD and interval[1] >= 0:
            found.append((pc, "null-access",
                          f"{kind} address <= {interval[1]:#x} lies in "
                          f"the null guard page (< {NULL_GUARD:#x}); "
                          "this access always traps"))

    for leader in sorted(ranges):
        try:
            _range_block(func.code, leader, cfg.blocks[leader],
                         ranges[leader], set(), sink=sink)
        except Exception:
            continue                # malformed block: verifier's problem
    return found


# ---------------------------------------------------------------------------
# definite initialization (locals)
# ---------------------------------------------------------------------------

def must_stored_at_entry(func, cfg: BlockCFG) -> Dict[int, frozenset]:
    """leader -> locals definitely stored on every path reaching it."""
    gen = {}
    for leader, length in cfg.blocks.items():
        gen[leader] = frozenset(
            instr.arg for instr in func.code[leader:leader + length]
            if instr.op == "stloc" and isinstance(instr.arg, int))

    def transfer(leader, fact):
        return fact | gen[leader]

    def join(old, new):
        met = old & new
        return met, met != old

    return solve_forward(cfg, frozenset(), transfer, join)


def maybe_uninit_reads(func, cfg: BlockCFG,
                       stored: Dict[int, frozenset]) -> List[Tuple[int, int]]:
    """(pc, local) sites where a ``ldloc`` may read the local's
    type-default value — legal (locals are zero-initialized) but worth
    surfacing: it usually marks a lowering bug or dead parameter."""
    sites: List[Tuple[int, int]] = []
    for leader in sorted(stored):
        seen = set(stored[leader])
        for pc in range(leader, leader + cfg.blocks[leader]):
            instr = func.code[pc]
            if instr.op == "ldloc" and isinstance(instr.arg, int) \
                    and instr.arg not in seen:
                sites.append((pc, instr.arg))
            elif instr.op == "stloc" and isinstance(instr.arg, int):
                seen.add(instr.arg)
    return sites


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
