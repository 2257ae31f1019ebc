"""Shared evaluation semantics for the whole stack.

The IR interpreter, the bytecode VM and the target simulators all
evaluate scalar and vector operations through this module, so the three
execution engines agree by construction: two's-complement wrap-around,
C-style truncating division, IEEE single/double rounding, and flat
little-endian memory.
"""

from repro.semantics.errors import TrapError
from repro.semantics.scalar import (
    eval_binop, eval_unop, eval_cmp, eval_cast, round_float,
)
from repro.semantics.memory import Memory, scalar_struct, vector_struct
from repro.semantics.vector import (
    vec_binop, vec_splat, vec_reduce,
)
from repro.semantics.kernels import (
    binop_kernel, cast_kernel, cmp_kernel, unop_kernel, vec_binop_kernel,
)

__all__ = [
    "TrapError", "Memory", "scalar_struct", "vector_struct",
    "eval_binop", "eval_unop", "eval_cmp", "eval_cast", "round_float",
    "vec_binop", "vec_splat", "vec_reduce",
    "binop_kernel", "cast_kernel", "cmp_kernel", "unop_kernel",
    "vec_binop_kernel",
]
