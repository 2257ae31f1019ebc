"""Counted loops: the proof that lets a fused tier-2 loop run as a
``for ... in range``, with no per-trip fuel compare, exit test, wrap
or bounds check of an affine access, under one guard at loop entry.

:func:`counted_loop` lowers both blocks under the guard's facts (the
intervals of :mod:`repro.analysis.intervals`), the latch's affine
accesses (:class:`Access`) and dropped wraps become the clauses of
:meth:`CountedLoop.guard`, and :func:`fold_of` finds an integer
reduction whose trips but the last run as one builtin; a block's
transfer is its emitter's ``exit`` (:class:`repro.tiers.Exit`), never
parsed out of the text.  :meth:`repro.tiers.Tier2Writer.counted` writes
the loop around them.  Nothing here imports the scaffold or an engine:
a lowering is passed in.
"""

from __future__ import annotations

import ast
import re
import struct
from typing import List, NamedTuple, Optional, Tuple

from repro.analysis.intervals import Affine, int_interval, within
from repro.engine import CodegenEnv
from repro.lang import types as ty
from repro.semantics.kernels import inline_binop
from repro.semantics.memory import NULL_GUARD

#: what a counted loop's guard admits: the induction variable stays
#: below ``I32_LIMIT`` (so ``iv + c`` never wraps), and a loop-invariant
#: base the lowering leaned on is below ``BASE_LIMIT`` (so a base plus
#: an offset derived from the induction variable is a u64 as it is)
I32_LIMIT = 1 << 31
BASE_LIMIT = 1 << 62


class Access(NamedTuple):
    """One memory access of a counted loop's latch whose address is
    affine in the induction variable: proven in range for every trip
    by its guard, so the body carries no check
    (:meth:`repro.tiers.BlockEmitter.proved`)."""

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
    (:meth:`repro.tiers.Lowering.induction`) reads it off the
    instructions: the header tests ``iv < bound`` (a signed compare,
    its ``brif`` taken into the latch), the latch ends in the only
    write of ``iv``, one i32 ``iv + step``, and nothing in the loop
    writes ``bound``.  Names are the lowered (tier-2) ones."""

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


class CountedLoop(NamedTuple):
    """A fused loop's counted form
    (:meth:`repro.tiers.Tier2Writer.counted`), its only compiled form:
    its induction and its two blocks lowered under the guard's facts,
    terminal branches dropped, and the latch's records
    (:class:`repro.tiers.BlockEmitter`)."""

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

    def guard(self, period: int, hlen: int) -> str:
        """The guard's condition: ``iv`` and ``bound`` are ints, ``0 <=
        iv`` and ``bound <= I32_LIMIT - step`` (no ``iv + step`` of the
        loop wraps), every base the lowering leaned on is an int in
        ``[0, BASE_LIMIT)``, the fuel covers every trip (``period``
        each) plus the header's last run (``hlen``), binding the trip
        count ``_n``, and — when the loop runs at all — two clauses per
        affine access and per dropped wrap of the latch: the exact
        value on the first trip and on the last lies in range (an
        address in ``[NULL_GUARD, _ms - width]``), so on every trip
        between.  A fold adds its reads and, for ``min`` / ``max``, the
        accumulator's range."""
        ind, fold = self.induction, self.fold
        iv, bound, step = ind.iv, ind.bound, ind.step
        scale = "" if step == 1 else f" * {step}"
        leaned, clauses = sorted(self.leaned), sorted(self.clauses, key=repr)
        named = [iv, bound, *leaned]
        for aff in [access.aff for access in self.accesses] \
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
                (access.aff, access.width) for access in self.accesses):
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
        return " and ".join(checks)


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


def fold_of(hlines: List[str], latch, induction: Induction,
            env: CodegenEnv) -> Optional[Fold]:
    """The :class:`Fold` of a counted loop whose trip (the header's
    ``hlines``, then the ``latch`` emitter's ``body``, its lines up to
    its back edge) only loads at affine addresses,
    lane-reduces with an integer ``add`` / ``min`` / ``max`` and
    combines into one loop-carried accumulator, else ``None``.

    Every trip but the last may then be skipped, so the test is an
    abstract run of the trip's statements that admits only what
    cannot raise and leaves nothing but the accumulator to the next
    trip: copies, pure int arithmetic over the induction variable and
    the invariants, the recorded loads and lane reductions (the
    emitter's ``accesses`` and ``reductions``; a loaded vector's lanes
    are proven, so it has no empty check), and one combine — the
    engines' own template text.  A
    name read before the trip writes it is the accumulator, in the
    combine, or the loop is refused."""
    accesses, heading = latch.accesses, len(hlines)
    lines = hlines + latch.body
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
        # ``u(_md, addr)[0]`` a scalar, ``u(_md, addr)`` (a tuple) a
        # vector; ``at``: the statement's latch line, which follows the
        # access's record.
        vector = not isinstance(node, ast.Subscript)
        if not vector:
            if not (isinstance(node.slice, ast.Constant)
                    and node.slice.value == 0):
                return None
            node = node.value
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
        if op != "add" and not within(int_interval(elem), acc_ty):
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


def counted_loop(low, header: int, latch: int) -> Optional[CountedLoop]:
    """The counted version of the fused loop ``header`` / ``latch``,
    lowered by ``low`` (the :class:`repro.tiers.Lowering` whose
    ``tier2_source`` asks), or ``None``: the engine finds no
    induction, or a block does not lower under it the way the counted
    form needs (a header that can raise, a latch that does not end in
    its back edge)."""
    induction = low.induction(header, latch)
    if induction is None:
        return None
    low.counting = induction
    head = low.lower(header, low.blocks[header], low.tier2_tier)
    low.hoisting = True
    body = low.lower(latch, low.blocks[latch], low.tier2_tier)
    low.counting, low.hoisting = None, False
    if head.marks or head.exit is None \
            or body.exit != (header, None, None):   # a plain back edge
        return None
    hlines = head.body
    return CountedLoop(induction, hlines, body.body, body.marks,
                       frozenset(head.leaned | body.leaned),
                       tuple(body.accesses), frozenset(body.clauses),
                       body.checked,
                       fold_of(hlines, body, induction, low.env))
