"""The MiniC type system.

Types are immutable, hashable value objects shared by the front-end, the
mid-level IR and the bytecode emitter.  The model is a simplified C:

* integer types of 8/16/32/64 bits, signed or unsigned;
* ``float`` (32-bit) and ``double`` (64-bit);
* pointers, with pointer arithmetic scaled by the pointee size;
* arrays (local declarations only; they decay to pointers in
  expressions and parameter lists);
* function types for call checking.

Comparison results have type ``int`` (I32), as in C.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Type:
    """Base class; concrete types below."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    bits: int
    signed: bool

    def __str__(self) -> str:
        return f"{'i' if self.signed else 'u'}{self.bits}"


@dataclass(frozen=True)
class FloatType(Type):
    bits: int

    def __str__(self) -> str:
        return f"f{self.bits}"


@dataclass(frozen=True)
class PointerType(Type):
    pointee: Type

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(Type):
    elem: Type
    count: int

    def __str__(self) -> str:
        return f"{self.elem}[{self.count}]"


VOID = VoidType()
I8 = IntType(8, True)
U8 = IntType(8, False)
I16 = IntType(16, True)
U16 = IntType(16, False)
I32 = IntType(32, True)
U32 = IntType(32, False)
I64 = IntType(64, True)
U64 = IntType(64, False)
F32 = FloatType(32)
F64 = FloatType(64)

#: All scalar integer types, in a canonical order.
INT_TYPES = (I8, U8, I16, U16, I32, U32, I64, U64)
FLOAT_TYPES = (F32, F64)


def is_integer(ty: Type) -> bool:
    return isinstance(ty, IntType)


def is_float(ty: Type) -> bool:
    return isinstance(ty, FloatType)


def is_arithmetic(ty: Type) -> bool:
    return is_integer(ty) or is_float(ty)


def is_pointer(ty: Type) -> bool:
    return isinstance(ty, PointerType)


def is_scalar(ty: Type) -> bool:
    """Scalar in the C sense: arithmetic or pointer (usable in tests)."""
    return is_arithmetic(ty) or is_pointer(ty)


def sizeof(ty: Type) -> int:
    """Size in bytes; pointers are 8 bytes on every PVI target."""
    if isinstance(ty, IntType):
        return ty.bits // 8
    if isinstance(ty, FloatType):
        return ty.bits // 8
    if isinstance(ty, PointerType):
        return 8
    if isinstance(ty, ArrayType):
        return sizeof(ty.elem) * ty.count
    raise ValueError(f"sizeof undefined for {ty}")


def alignof(ty: Type) -> int:
    if isinstance(ty, ArrayType):
        return alignof(ty.elem)
    return sizeof(ty)


def decay(ty: Type) -> Type:
    """Array-to-pointer decay, as in C expression contexts."""
    if isinstance(ty, ArrayType):
        return PointerType(ty.elem)
    return ty


def promote(ty: Type) -> Type:
    """Integer promotion: anything narrower than ``int`` becomes I32."""
    if is_integer(ty) and ty.bits < 32:
        return I32
    return ty


def common_type(a: Type, b: Type) -> Type:
    """Usual arithmetic conversions for a binary operator.

    Floats dominate integers; wider dominates narrower; at equal width
    unsigned dominates signed (the C rules, minus the exotic corners).
    """
    if not (is_arithmetic(a) and is_arithmetic(b)):
        raise ValueError(f"no common arithmetic type for {a} and {b}")
    if is_float(a) or is_float(b):
        fa = a if is_float(a) else None
        fb = b if is_float(b) else None
        bits = max(f.bits for f in (fa, fb) if f is not None)
        return F64 if bits == 64 else F32
    a = promote(a)
    b = promote(b)
    assert isinstance(a, IntType) and isinstance(b, IntType)
    if a.bits != b.bits:
        return a if a.bits > b.bits else b
    if a.signed == b.signed:
        return a
    return IntType(a.bits, False)


def can_convert(src: Type, dst: Type) -> bool:
    """Implicit convertibility (assignments, argument passing)."""
    src = decay(src)
    dst = decay(dst)
    # distinct pointer types do not convert (C would warn), nor do an
    # integer and a pointer
    return src == dst or (is_arithmetic(src) and is_arithmetic(dst))


def int_min(ty: IntType) -> int:
    return -(1 << (ty.bits - 1)) if ty.signed else 0


def int_max(ty: IntType) -> int:
    return (1 << (ty.bits - 1)) - 1 if ty.signed else (1 << ty.bits) - 1


def wrap_int(value: int, ty: IntType) -> int:
    """Wrap ``value`` to the representable range of ``ty`` (two's complement)."""
    mask = (1 << ty.bits) - 1
    value &= mask
    if ty.signed and value >= (1 << (ty.bits - 1)):
        value -= 1 << ty.bits
    return value
