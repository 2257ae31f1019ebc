"""Lane-wise vector semantics built on the scalar semantics.

Vectors are plain Python lists of lane values; the element type gives
the per-lane semantics.  Both the VM (executing portable ``vec.*``
bytecode) and the SIMD-capable simulators evaluate through these
helpers, so mapping vector bytecode to "hardware" SIMD can never change
results, only cost.
"""

from __future__ import annotations

from typing import List

from repro.semantics.scalar import eval_binop
from repro.semantics.errors import TrapError


def vec_binop(op: str, elem_ty, a: List, b: List) -> List:
    if len(a) != len(b):
        raise TrapError("vector lane count mismatch")
    return [eval_binop(op, elem_ty, x, y) for x, y in zip(a, b)]


def vec_splat(value, lanes: int) -> List:
    return [value] * lanes



def vec_reduce(op: str, elem_ty, values: List):
    if not values:
        raise TrapError("reduce of empty vector")
    acc = values[0]
    for value in values[1:]:
        if op == "add":
            acc = eval_binop("add", elem_ty, acc, value)
        elif op == "max":
            acc = eval_binop("max", elem_ty, acc, value)
        elif op == "min":
            acc = eval_binop("min", elem_ty, acc, value)
        else:
            raise TrapError(f"reduce op {op!r} undefined")
    return acc
