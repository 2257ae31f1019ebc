"""Vector ops as the tier scaffold lowers them, for both engines.

A vector value is a :class:`Vec`: the expression that holds it whole,
its lane count when proven, whether it may be a tuple, its split lanes
and an f32 batch's packed bytes.  :class:`VectorOps` is the part of
:class:`repro.tiers.BlockEmitter` that lowers the vector ops over such
values; the engines' operand models only read a :class:`Vec` and store
one.  The scaffold imports this module; it imports neither the
scaffold nor an engine.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, List, Optional

from repro.lang import types as ty
from repro.semantics.errors import TrapError
from repro.semantics.kernels import (
    binop_kernel, cast_kernel, f32_batch, identity_kernel, inline_binop,
    inline_cast, is_f32_quad, vec_binop_kernel,
)
from repro.semantics.memory import NULL_GUARD, vector_struct


@functools.lru_cache(maxsize=None)
def _raw_bytes(size: int) -> struct.Struct:
    """``size`` bytes as they are: a batch's packed lanes, stored."""
    return struct.Struct(f"<{size}s")


class Vec:
    """A vector value as the block in hand knows it.

    ``whole`` is the expression that holds it whole: a name, a pure
    display, or — ``fresh`` — a load or kernel call the engine assigns
    at once (:meth:`VectorOps.assign`).  ``lanes``: its lane count,
    when proven (tier-2 only).  ``tuple``: the whole may be a tuple,
    which every engine-observable place re-lists.  ``exprs`` (tier-2):
    the names of its lanes once split, or written lane by lane — then
    ``whole`` is ``None`` until asked for.  ``packed`` (tier-2): the
    name of the bytes an f32 batch packed to
    (:meth:`VectorOps.vbinop`), which a store of the same lanes
    writes as they are."""

    __slots__ = ("whole", "lanes", "tuple", "exprs", "fresh", "packed")

    def __init__(self, whole: Optional[str], lanes: Optional[int] = None,
                 tuple: bool = False, exprs: Optional[List[str]] = None,
                 fresh: bool = False, packed: Optional[str] = None):
        self.whole, self.lanes, self.tuple = whole, lanes, tuple
        self.exprs, self.fresh, self.packed = exprs, fresh, packed


class VectorOps:
    """The vector half of :class:`repro.tiers.BlockEmitter`: what
    ``vload`` / ``vec.load``, ``vstore`` / ``vec.store``, ``vbin`` /
    ``vec.<op>``, ``vsplat`` / ``vec.splat`` and ``vreduce`` /
    ``vec.reduce`` lower to, a :class:`Vec` in and a :class:`Vec` out.

    The block tier lowers every op to one kernel call over lists (its
    templates must not move); tier-2 writes the lanes out wherever
    their count is proven — by this block, or by the engine's facts —
    and guards an operand whose count is not with one ``len(x) == k``
    test, the kernel being the other arm.  A Python host is one lane
    wide.  A vector op's own count is ``VECTOR_BYTES`` over its
    element size: two lanes or more.  Nothing here writes a line for
    an earlier instruction or rewrites a line already written: what a
    later op knows of a value is its :class:`Vec`.  The emitter's
    line, temp, bounds and mark bookkeeping is the host class's."""

    def whole(self, vec: Vec, listed: bool = False) -> str:
        """``vec`` as one value: a list where it is observable
        (``listed``)."""
        if vec.whole is None:
            return f"[{', '.join(vec.exprs)}]"
        if listed and vec.tuple:
            return f"list({vec.whole})"
        return vec.whole

    def lanes_of(self, vec: Vec, count: int, pad: str = "") -> List[str]:
        """The names of ``vec``'s ``count`` lanes: split once at the
        block's top level, or inside a lane guard's arm for that arm
        only."""
        if vec.exprs is not None:
            return vec.exprs
        names = [self.newt() for _ in range(count)]
        self.emit(f"{', '.join(names)} = {self.whole(vec)}", pad)
        if not pad:
            vec.exprs = names
        return names

    def assign(self, place: str, vec: Vec, listed: bool = False) -> Vec:
        """Store ``vec`` at ``place`` (a register or local the engine
        just rewrote, or a temp), a list there if ``listed``, and
        remember it (tier-2)."""
        self.emit(f"{place} = {self.whole(vec, listed)}")
        held = Vec(place, vec.lanes, vec.tuple and not listed, vec.exprs,
                   packed=vec.packed)
        if self.tier.tier2:
            self.vecs[place] = held
        return held

    def vload(self, elem, lanes: int, address: Callable[[], str]) -> Vec:
        """A fresh load of ``lanes`` lanes at ``address()`` (the
        engine's operand read): tier-2 keeps the unpacked tuple."""
        self.impure = True
        packer = vector_struct(elem, lanes)
        unpack = self.env.bind(packer.unpack_from, "u")
        addr = address()
        self.bounds(addr, packer)
        rhs = f"{unpack}({self.tier.data}, {addr})"
        if not self.tier.tier2:
            return Vec(f"list({rhs})", fresh=True)
        return Vec(rhs, lanes, True, fresh=True)

    def vsplat(self, scalar: str, lanes: int) -> Vec:
        """``lanes`` copies of ``scalar``: pure, a list."""
        text = f"[{scalar}] * {self.lit(lanes)}"
        if not self.tier.tier2:
            return Vec(text)
        return Vec(f"({text})", lanes)

    def vbinop(self, bop: str, elem, lanes: int, a: Vec, b: Vec) -> Vec:
        """``a bop b`` lane by lane, ``lanes`` the op's own count.
        Tier-2 writes each lane's template as a statement; an f32 batch
        is packed here, under this op's mark (an overflow is its trap),
        and its value is the unpack of those bytes, which a store
        writes as they are (:meth:`vstore`).  An operand whose count is
        not proven is asked once, the kernel (any count, the exact
        mismatch trap) in the other arm.  Ops with no template (integer
        ``div`` / ``rem``, float ``div``) call the kernel."""
        self.impure = True
        env = self.env
        tmpl = batch = None
        if self.tier.tier2:
            if is_f32_quad(bop, elem):
                batch = f32_batch(bop, lanes, env)
            else:
                tmpl = inline_binop(bop, elem, env)
                tmpl = tmpl[0] if tmpl is not None and tmpl[1] else None
        proven = lanes if lanes in (a.lanes, b.lanes) else None
        if tmpl is None and batch is None:
            kernel = env.bind(vec_binop_kernel(bop, elem), "v")
            return Vec(f"{kernel}({self.whole(a)}, {self.whole(b)})",
                       proven, fresh=True)
        guards = [x for x in ((a,) if a is b else (a, b))
                  if x.lanes != lanes]
        pad = ""
        if guards:
            kernel = env.bind(vec_binop_kernel(bop, elem), "v")
            self.emit("if " + " and ".join(
                f"len({self.whole(x)}) == {lanes}" for x in guards) + ":")
            pad = "    "
        pairs = zip(self.lanes_of(a, lanes, pad), self.lanes_of(b, lanes, pad))
        if batch is not None:
            pack, unpack, core = batch
            cores = ", ".join(core.format(a=x, b=y) for x, y in pairs)
            cores = f"{pack}({cores})"
            if not guards:
                packed = self.newt()
                self.emit(f"{packed} = {cores}")
                return Vec(f"{unpack}({packed})", lanes, True,
                           packed=packed)
            rhs = f"{unpack}({cores})"
        else:
            names = []
            for x, y in pairs:
                names.append(self.newt())
                self.emit(f"{names[-1]} = {tmpl.format(a=x, b=y)}", pad)
            if not guards:
                return Vec(None, lanes, exprs=names)
            rhs = f"[{', '.join(names)}]"
        result = self.newt()
        self.emit(f"{result} = {rhs}", pad)
        self.emit("else:")
        self.emit(f"{result} = {kernel}({self.whole(a)}, {self.whole(b)})",
                  "    ")
        return Vec(result, proven, batch is not None)

    def vstore(self, elem, lanes: int, operands) -> None:
        """Store ``lanes`` lanes: ``operands()`` (the engine's reads,
        in its order) gives the address and the :class:`Vec`.  Packed
        straight into the buffer: lane by lane where tier-2 has them,
        an f32 batch's packed bytes as they are; any other shape, or a
        value the struct rejects, goes through the reference's
        ``mem.store_vec``."""
        self.impure = True
        tier, env = self.tier, self.env
        packer = vector_struct(elem, lanes)
        pack = env.bind(packer.pack_into, "p")
        elem_name = env.bind(elem, "e")
        addr, vec = operands()
        pad = "    "
        if not tier.tier2:
            # the hole order each engine's templates have
            holes = {key: self.lit(lanes if key == "lanes" else packer.size)
                     for key in self.low.store_holes}
            self.emit(f"if len({vec.whole}) == {holes['lanes']} and "
                      f"{addr} >= {NULL_GUARD} and "
                      f"{addr} + {holes['size']} <= {tier.size}:")
        else:
            proven = vec.lanes == lanes
            if proven and self.proved(addr, packer):
                pad = ""
            else:
                guard = "" if proven \
                    else f"len({self.whole(vec)}) == {lanes} and "
                self.emit(f"if {guard}{addr} >= {NULL_GUARD} and {addr} <= "
                          f"{self.bound_limit(packer.size)}:")
        slow = f"mem.store_vec({elem_name}, {addr}, {self.whole(vec)})"
        if vec.packed is not None and vec.lanes == lanes \
                and isinstance(elem, ty.FloatType) and elem.bits == 32:
            raw = env.bind(_raw_bytes(packer.size).pack_into, "p")
            self.emit(f"{raw}({tier.data}, {addr}, {vec.packed})", pad)
        else:
            args = ", ".join(vec.exprs) if tier.tier2 and vec.exprs \
                and vec.lanes == lanes else f"*{self.whole(vec)}"
            self.emit("try:", pad)
            self.emit(f"{pack}({tier.data}, {addr}, {args})", pad + "    ")
            self.emit("except _PE:", pad)
            self.emit(slow, pad + "    ")
        if pad:
            self.emit("else:")
            self.emit(slow, pad)

    def reduce(self, reduce_op: str, elem, acc_ty, lanes: int,
               read_vec: Callable[[], Vec]) -> str:
        """Fold a vector into an accumulator temp (returned).
        ``read_vec`` reads the operand (the engine's order: before the
        kernels are bound); ``lanes`` is the op's own lane count.
        Where widening is the identity, tier-2 folds in one builtin
        call: ``max`` / ``min`` are the same left fold as the kernels
        (NaN order included) over values no wrap changes, and two's-
        complement wrap distributes over ``+``, so an integer sum
        wraps once.  Otherwise it unrolls the lanes, the widen dropped
        where it is the identity and the fold's template one statement
        per lane; a float sum rounds per lane that way.  A lane count
        not proven is asked once, the kernel loop in the other arm."""
        if reduce_op not in ("add", "max", "min"):
            raise TrapError(f"reduce op {reduce_op!r} undefined")
        self.impure = True
        env = self.env
        widen_kernel = cast_kernel(elem, acc_ty)
        identity = widen_kernel is identity_kernel
        widen_tpl = fold_tpl = None
        if self.tier.tier2:
            widen_tpl = ("{a}", True) if identity \
                else inline_cast(elem, acc_ty, env)
            fold_tpl = inline_binop(reduce_op, acc_ty, env)
        vec = read_vec()
        acc = self.newt()
        indent = ""
        if widen_tpl is not None and fold_tpl is not None:
            if identity and fold_tpl[1] and (
                    reduce_op != "add" or isinstance(acc_ty, ty.IntType)):
                # One builtin; a sum wraps once.
                whole = self.whole(vec)
                self.nonempty(vec, whole)
                folded = f"{reduce_op}({whole})" if reduce_op != "add" \
                    else inline_cast(acc_ty, acc_ty, env)[0].format(
                        a=f"sum({whole})")
                self.emit(f"{acc} = {folded}")
                if self.clauses is not None:
                    self.reductions[folded] = (reduce_op, whole, acc_ty)
                return acc
            pad = ""
            if vec.lanes != lanes:
                self.emit(f"if len({self.whole(vec)}) == {lanes}:")
                pad = indent = "    "
            first, *rest = self.lanes_of(vec, lanes, pad)
            widen = widen_tpl[0]
            folded = widen.format(a=first)
            for lane in rest:
                self.emit(f"{acc} = " + fold_tpl[0].format(
                    a=folded, b=widen.format(a=lane)), pad)
                folded = acc
            if not pad:
                return acc
            self.emit("else:")
        whole = self.whole(vec)
        lane = self.newt()
        self.nonempty(vec, whole, indent)
        widen = env.bind(widen_kernel, "k")
        fold = env.bind(binop_kernel(reduce_op, acc_ty), "k")
        self.emit(f"{acc} = {widen}({whole}[0])", indent)
        self.emit(f"for {lane} in {whole}[1:]:", indent)
        self.emit(f"{acc} = {fold}({acc}, {widen}({lane}))", indent + "    ")
        return acc

    def nonempty(self, vec: Vec, whole: str, indent: str = "") -> None:
        """The reduce's empty-vector trap, unless the lanes are
        proven."""
        if not vec.lanes:
            self.emit(f"if not {whole}:", indent)
            self.emit("raise TrapError('reduce of empty vector')",
                      indent + "    ")
