"""Affine address analysis for counted loops.

Within a loop body, classifies integer registers as affine expressions
``base + ivar*coeff + offset`` where ``base`` is a loop-invariant
register (typically an incoming pointer) and ``coeff``/``offset`` are
byte constants.  This is what lets the vectorizer see that
``a + (u64)i * 4`` walks an f32 array contiguously.

Wrap-around during address arithmetic is ignored (the analysis treats
indices as mathematical integers); MiniC inherits C's blessing that
object indices stay within the object, and the PVI memory bounds-check
at execution anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.lang import types as ty
from repro.ir import instructions as ins
from repro.ir.values import Const, Value, VReg


@dataclass(frozen=True)
class Affine:
    """``base + ivar*coeff + offset`` (byte units once scaled)."""
    base: Optional[int]       # id of the invariant base register, or None
    coeff: int
    offset: int

    def __add__(self, other: "Affine") -> Optional["Affine"]:
        if self.base is not None and other.base is not None:
            return None           # two symbolic bases: not affine for us
        base = self.base if self.base is not None else other.base
        return Affine(base, self.coeff + other.coeff,
                      self.offset + other.offset)

    def __sub__(self, other: "Affine") -> Optional["Affine"]:
        if other.base is not None:
            return None
        return Affine(self.base, self.coeff - other.coeff,
                      self.offset - other.offset)

    def scaled(self, k: int) -> Optional["Affine"]:
        if self.base is not None:
            return None           # scaling a pointer: not an address form
        return Affine(None, self.coeff * k, self.offset * k)

    @property
    def is_constant(self) -> bool:
        return self.base is None and self.coeff == 0


class AffineMap:
    """Affine classification of the registers in one loop body."""

    def __init__(self, ivar: VReg, invariant_regs: Iterable[VReg]):
        self.entries: Dict[int, Affine] = {
            ivar.id: Affine(None, 1, 0),
        }
        self._invariants = {r.id for r in invariant_regs}
        for reg_id in self._invariants:
            # An invariant register is its own base.
            self.entries.setdefault(reg_id, Affine(reg_id, 0, 0))

    def of(self, value: Value) -> Optional[Affine]:
        if isinstance(value, Const):
            if ty.is_integer(value.ty):
                return Affine(None, 0, int(value.value))
            return None
        return self.entries.get(value.id)

    def is_invariant(self, value: Value) -> bool:
        if isinstance(value, Const):
            return True
        form = self.entries.get(value.id)
        return form is not None and form.coeff == 0

    def visit(self, instr: ins.Instr) -> None:
        """Extend the map with one body instruction (in program order)."""
        if instr.dst is None:
            return
        form = self._derive(instr)
        if form is not None:
            self.entries[instr.dst.id] = form
        else:
            # A redefinition with unknown shape kills prior knowledge.
            self.entries.pop(instr.dst.id, None)

    def _derive(self, instr: ins.Instr) -> Optional[Affine]:
        if isinstance(instr, ins.Move):
            return self.of(instr.src)
        if isinstance(instr, ins.Cast):
            if ty.is_integer(instr.from_ty) and ty.is_integer(instr.to_ty) \
                    and instr.to_ty.bits >= instr.from_ty.bits:
                return self.of(instr.src)
            return None
        if isinstance(instr, ins.BinOp) and ty.is_integer(instr.ty):
            a = self.of(instr.a)
            b = self.of(instr.b)
            if a is None or b is None:
                return None
            if instr.op == "add":
                return a + b
            if instr.op == "sub":
                return a - b
            if instr.op == "mul":
                if b.is_constant:
                    return a.scaled(b.offset)
                if a.is_constant:
                    return b.scaled(a.offset)
                return None
            if instr.op == "shl" and b.is_constant:
                return a.scaled(1 << b.offset)
        return None
