"""IR value model: virtual registers, constants and vector types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.lang import types as ty

#: The portable virtual vector width, in bytes.  The paper's bytecode
#: builtins are width-agnostic from the program's point of view; PVI
#: fixes a 128-bit virtual vector (like SSE/AltiVec/Wasm-SIMD) and the
#: JIT either maps it 1:1 onto hardware vectors or scalarizes it.
VECTOR_BYTES = 16


@dataclass(frozen=True)
class VecType:
    """A virtual vector: ``lanes`` elements of scalar type ``elem``."""
    elem: ty.Type
    lanes: int

    def __post_init__(self) -> None:
        assert ty.is_arithmetic(self.elem)
        assert self.lanes * ty.sizeof(self.elem) == VECTOR_BYTES, \
            f"vector must be {VECTOR_BYTES} bytes"

    def __str__(self) -> str:
        return f"<{self.lanes} x {self.elem}>"


def vec_of(elem: ty.Type) -> VecType:
    """The full-width virtual vector whose element type is ``elem``."""
    return VecType(elem, VECTOR_BYTES // ty.sizeof(elem))


IRType = Union[ty.Type, VecType]


class VReg:
    """A virtual register.

    Identity-based (two VRegs with the same id are the same object in a
    well-formed function); ``name`` is only a debugging hint.
    """

    __slots__ = ("id", "ty", "name")

    def __init__(self, reg_id: int, reg_ty: IRType, name: str = ""):
        self.id = reg_id
        self.ty = reg_ty
        self.name = name

    def __repr__(self) -> str:
        hint = f".{self.name}" if self.name else ""
        return f"%{self.id}{hint}"

    def __hash__(self) -> int:
        return hash(self.id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VReg) and other.id == self.id


@dataclass(frozen=True)
class Const:
    """An immediate operand.  Integer values are stored wrapped."""
    value: Union[int, float]
    ty: ty.Type

    def __post_init__(self) -> None:
        if isinstance(self.ty, ty.IntType):
            object.__setattr__(self, "value",
                               ty.wrap_int(int(self.value), self.ty))
        elif isinstance(self.ty, ty.FloatType):
            object.__setattr__(self, "value", float(self.value))

    def __repr__(self) -> str:
        return f"{self.value}:{self.ty}"


Value = Union[VReg, Const]
