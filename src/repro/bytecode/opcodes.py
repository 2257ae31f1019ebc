"""PVI opcodes and type tags.

An instruction is ``(op, ty, arg)``:

=============== ======================= ===================================
op              ty                      arg / stack behaviour
=============== ======================= ===================================
``const``       value type              push constant ``arg``
``ldarg``       —                       push argument ``arg``
``ldloc``       —                       push local ``arg``
``stloc``       —                       pop into local ``arg``
``frame``       —                       push address of frame slot ``arg``
``add`` ...     operand type            pop b, a; push ``a op b``
``neg``/``not`` operand type            pop a; push
``cmp``         operand type            arg = predicate; pop b, a; push i32
``cast``        destination type        arg = source tag; pop; push
``select``      operand type            pop b, a, cond; push
``load``        memory type             pop addr; push value
``store``       memory type             pop value, addr
``call``        —                       arg = function name; pops args
``ret``         —                       pop return value (non-void)
``br``          —                       jump to pc ``arg``
``brif``        —                       pop cond; jump if non-zero
``vec.load``    element type            pop addr; push v128
``vec.store``   element type            pop value, addr
``vec.add`` ... element type            pop b, a; push v128
``vec.splat``   element type            pop scalar; push v128
``vec.reduce``  element type            arg = (op, acc tag); pop v; push
=============== ======================= ===================================

Branch targets are absolute instruction indices within the function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lang import types as ty

#: type tag <-> language type
TYPE_TAGS = {
    "i8": ty.I8, "u8": ty.U8, "i16": ty.I16, "u16": ty.U16,
    "i32": ty.I32, "u32": ty.U32, "i64": ty.I64, "u64": ty.U64,
    "f32": ty.F32, "f64": ty.F64,
}
_REVERSE_TAGS = {v: k for k, v in TYPE_TAGS.items()}

#: scalar binary opcodes (shared with the IR)
BIN_OPS = ("add", "sub", "mul", "div", "rem", "and", "or", "xor",
           "shl", "shr", "min", "max")
UN_OPS = ("neg", "not")
CMP_PREDS = ("eq", "ne", "lt", "le", "gt", "ge")
VEC_BIN_OPS = tuple(f"vec.{op}" for op in BIN_OPS)
VREDUCE_OPS = ("add", "max", "min")

#: every opcode, in canonical order (binary encoding uses the index)
ALL_OPS = (
    ("const", "ldarg", "ldloc", "stloc", "frame") + BIN_OPS + UN_OPS +
    ("cmp", "cast", "select", "load", "store", "call", "ret",
     "br", "brif", "pop") + VEC_BIN_OPS +
    ("vec.load", "vec.store", "vec.splat", "vec.reduce")
)
OP_CODES = {op: index for index, op in enumerate(ALL_OPS)}


def tag_of(lang_ty: ty.Type) -> str:
    """Type tag of a scalar language type."""
    return _REVERSE_TAGS[lang_ty]


def type_of(tag: str) -> ty.Type:
    """Language type of a scalar tag."""
    return TYPE_TAGS[tag]


@dataclass
class BCInstr:
    """One bytecode instruction."""
    op: str
    ty: Optional[str] = None
    arg: object = None

    def __repr__(self) -> str:
        parts = [self.op]
        if self.ty is not None:
            parts.append(f".{self.ty}")
        text = "".join(parts)
        if self.arg is not None:
            return f"{text} {self.arg}"
        return text
