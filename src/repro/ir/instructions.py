"""IR instruction set.

Every instruction has an optional destination register (``dst``) and a
list of source operands (``srcs``) so generic passes (liveness, DCE,
copy propagation, register allocation) can treat instructions
uniformly; subclasses add named accessors for readability.

Integer semantics are two's complement with wrap-around at the operand
type's width.  Signed division truncates toward zero (C semantics).
Comparisons produce ``i32`` 0/1.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Sequence, Tuple

from repro.lang import types as ty
from repro.ir.values import Value, VecType, VReg

#: Binary opcodes (semantics selected by the operand type).
BINOPS = ("add", "sub", "mul", "div", "rem",
          "and", "or", "xor", "shl", "shr",
          "min", "max")

#: Comparison predicates.
CMP_PREDS = ("eq", "ne", "lt", "le", "gt", "ge")

#: Unary opcodes.
UNOPS = ("neg", "not")

#: Vector reduce opcodes.
VREDUCE_OPS = ("add", "max", "min")


class Instr:
    """Base instruction."""

    __slots__ = ("dst", "srcs")

    def __init__(self, dst: Optional[VReg], srcs: Sequence[Value]):
        self.dst = dst
        self.srcs: List[Value] = list(srcs)

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, TERMINATORS)

    def uses(self) -> List[VReg]:
        """Registers read by this instruction."""
        return [s for s in self.srcs if isinstance(s, VReg)]

    def defs(self) -> List[VReg]:
        """Registers written by this instruction."""
        return [self.dst] if self.dst is not None else []

    def has_side_effects(self) -> bool:
        """True if the instruction must not be removed even when dead."""
        return isinstance(self, (Store, VStore, Call, Ret, Jump, Branch))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.ir.printer import format_instr
        return format_instr(self)


class BinOp(Instr):
    __slots__ = ("op", "ty")

    def __init__(self, op: str, dst: VReg, a: Value, b: Value,
                 result_ty: ty.Type):
        assert op in BINOPS, op
        super().__init__(dst, [a, b])
        self.op = op
        self.ty = result_ty

    @property
    def a(self) -> Value:
        return self.srcs[0]

    @property
    def b(self) -> Value:
        return self.srcs[1]


class UnOp(Instr):
    __slots__ = ("op", "ty")

    def __init__(self, op: str, dst: VReg, a: Value, result_ty: ty.Type):
        assert op in UNOPS, op
        super().__init__(dst, [a])
        self.op = op
        self.ty = result_ty

    @property
    def a(self) -> Value:
        return self.srcs[0]


class Cmp(Instr):
    """``dst = (a pred b)`` evaluated in type ``ty``; dst is i32 0/1."""

    __slots__ = ("pred", "ty")

    def __init__(self, pred: str, dst: VReg, a: Value, b: Value,
                 operand_ty: ty.Type):
        assert pred in CMP_PREDS, pred
        super().__init__(dst, [a, b])
        self.pred = pred
        self.ty = operand_ty

    @property
    def a(self) -> Value:
        return self.srcs[0]

    @property
    def b(self) -> Value:
        return self.srcs[1]


class Cast(Instr):
    """Numeric conversion from ``from_ty`` to ``to_ty``."""

    __slots__ = ("from_ty", "to_ty")

    def __init__(self, dst: VReg, src: Value, from_ty: ty.Type,
                 to_ty: ty.Type):
        super().__init__(dst, [src])
        self.from_ty = from_ty
        self.to_ty = to_ty

    @property
    def src(self) -> Value:
        return self.srcs[0]


class Move(Instr):
    """Register copy (also used to materialize constants)."""

    def __init__(self, dst: VReg, src: Value):
        super().__init__(dst, [src])

    @property
    def src(self) -> Value:
        return self.srcs[0]


class Select(Instr):
    """``dst = cond != 0 ? a : b`` — branch-free conditional move."""

    __slots__ = ("ty",)

    def __init__(self, dst: VReg, cond: Value, a: Value, b: Value,
                 result_ty: ty.Type):
        super().__init__(dst, [cond, a, b])
        self.ty = result_ty

    @property
    def cond(self) -> Value:
        return self.srcs[0]

    @property
    def a(self) -> Value:
        return self.srcs[1]

    @property
    def b(self) -> Value:
        return self.srcs[2]


class Load(Instr):
    """``dst = *(ty*)addr``; addr is a u64 byte address."""

    __slots__ = ("ty",)

    def __init__(self, dst: VReg, addr: Value, mem_ty: ty.Type):
        super().__init__(dst, [addr])
        self.ty = mem_ty

    @property
    def addr(self) -> Value:
        return self.srcs[0]


class Store(Instr):
    """``*(ty*)addr = value``."""

    __slots__ = ("ty",)

    def __init__(self, addr: Value, value: Value, mem_ty: ty.Type):
        super().__init__(None, [addr, value])
        self.ty = mem_ty

    @property
    def addr(self) -> Value:
        return self.srcs[0]

    @property
    def value(self) -> Value:
        return self.srcs[1]


class FrameAddr(Instr):
    """``dst = &frame_slot`` — address of a stack-allocated local."""

    __slots__ = ("slot",)

    def __init__(self, dst: VReg, slot: str):
        super().__init__(dst, [])
        self.slot = slot


class Call(Instr):
    __slots__ = ("callee", "ret_ty")

    def __init__(self, dst: Optional[VReg], callee: str,
                 args: Sequence[Value], ret_ty: ty.Type):
        super().__init__(dst, args)
        self.callee = callee
        self.ret_ty = ret_ty

    @property
    def args(self) -> List[Value]:
        return self.srcs


class Ret(Instr):
    def __init__(self, value: Optional[Value] = None):
        super().__init__(None, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.srcs[0] if self.srcs else None


class Jump(Instr):
    __slots__ = ("target",)

    def __init__(self, target: str):
        super().__init__(None, [])
        self.target = target


class Branch(Instr):
    """Conditional branch on a non-zero i32/i64 condition."""

    __slots__ = ("then_target", "else_target")

    def __init__(self, cond: Value, then_target: str, else_target: str):
        super().__init__(None, [cond])
        self.then_target = then_target
        self.else_target = else_target

    @property
    def cond(self) -> Value:
        return self.srcs[0]


# ---------------------------------------------------------------------------
# Vector instructions (produced by the offline auto-vectorizer)
# ---------------------------------------------------------------------------

class VLoad(Instr):
    __slots__ = ("vty",)

    def __init__(self, dst: VReg, addr: Value, vty: VecType):
        super().__init__(dst, [addr])
        self.vty = vty

    @property
    def addr(self) -> Value:
        return self.srcs[0]


class VStore(Instr):
    __slots__ = ("vty",)

    def __init__(self, addr: Value, value: Value, vty: VecType):
        super().__init__(None, [addr, value])
        self.vty = vty

    @property
    def addr(self) -> Value:
        return self.srcs[0]

    @property
    def value(self) -> Value:
        return self.srcs[1]


class VBinOp(Instr):
    """Lane-wise binary operation on full virtual vectors."""

    __slots__ = ("op", "vty")

    def __init__(self, op: str, dst: VReg, a: Value, b: Value, vty: VecType):
        assert op in BINOPS, op
        super().__init__(dst, [a, b])
        self.op = op
        self.vty = vty

    @property
    def a(self) -> Value:
        return self.srcs[0]

    @property
    def b(self) -> Value:
        return self.srcs[1]


class VSplat(Instr):
    """Broadcast a scalar into every lane."""

    __slots__ = ("vty",)

    def __init__(self, dst: VReg, scalar: Value, vty: VecType):
        super().__init__(dst, [scalar])
        self.vty = vty

    @property
    def scalar(self) -> Value:
        return self.srcs[0]


class VReduce(Instr):
    """Horizontal reduction of a vector into a scalar accumulator type.

    Lanes are first converted to ``acc_ty`` (zero/sign extension per the
    element type) and then combined, so ``vreduce.add`` over sixteen
    ``u8`` lanes into an ``i32`` is exact — the idiom hardware exposes
    as ``psadbw``-style instructions and the scalarizing JIT expands to
    a widen+op chain.
    """

    __slots__ = ("op", "vty", "acc_ty")

    def __init__(self, op: str, dst: VReg, src: Value, vty: VecType,
                 acc_ty=None):
        assert op in VREDUCE_OPS, op
        super().__init__(dst, [src])
        self.op = op
        self.vty = vty
        self.acc_ty = acc_ty if acc_ty is not None else vty.elem

    @property
    def src(self) -> Value:
        return self.srcs[0]


TERMINATORS: Tuple[type, ...] = (Ret, Jump, Branch)


def clone(instr: Instr, src_of: Callable[[Value], Value],
          dst_of: Callable[[VReg], VReg]) -> Instr:
    """A copy of ``instr`` that reads ``src_of(s)`` for each source
    ``s`` and, if it writes, writes ``dst_of(dst)``.  Every operand is
    in ``srcs`` and every result in ``dst``, so this serves each class;
    the sources are mapped before ``dst_of`` is asked."""
    new = copy.copy(instr)
    new.srcs = [src_of(s) for s in instr.srcs]
    if instr.dst is not None:
        new.dst = dst_of(instr.dst)
    return new


def branch_targets(instr: Instr) -> List[str]:
    """Successor block labels of a terminator (empty for ``ret``)."""
    if isinstance(instr, Jump):
        return [instr.target]
    if isinstance(instr, Branch):
        return [instr.then_target, instr.else_target]
    return []


def retarget(instr: Instr, old: str, new: str) -> None:
    """Replace a successor label in a terminator."""
    if isinstance(instr, Jump) and instr.target == old:
        instr.target = new
    elif isinstance(instr, Branch):
        if instr.then_target == old:
            instr.then_target = new
        if instr.else_target == old:
            instr.else_target = new
