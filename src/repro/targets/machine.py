"""Target descriptions and cycle cost models."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict

from repro.lang import types as ty


@dataclass(frozen=True)
class CostModel:
    """Cycles per operation class.

    Deliberately simple (static per-opcode costs, no cache or pipeline
    state): Table 1's cross-target *shape* comes from ISA capability
    differences, not microarchitectural detail, and a static model
    keeps every experiment deterministic and explainable.
    """
    alu: int = 1
    mul: int = 3
    div: int = 18
    fp_alu: int = 2
    fp_mul: int = 3
    fp_div: int = 16
    load: int = 2
    store: int = 2
    subword_mem_extra: int = 0    # extra cycles for u8/u16 loads/stores
    move: int = 1
    cmp: int = 1
    select: int = 1
    branch: int = 2               # conditional branch
    jump: int = 1
    call_base: int = 6
    call_per_arg: int = 1
    frame: int = 1
    # SIMD (only meaningful when the target has SIMD)
    vec_alu: int = 1
    vec_mul: int = 2
    vec_div: int = 20
    vec_load: int = 2
    vec_store: int = 2
    vec_splat: int = 2
    vec_reduce: int = 4

    def scalar_op(self, op: str, value_ty) -> int:
        is_float = ty.is_float(value_ty)
        if op == "mul":
            return self.fp_mul if is_float else self.mul
        if op in ("div", "rem"):
            return self.fp_div if is_float else self.div
        # add, sub, the bitwise ops, the shifts, min and max
        return self.fp_alu if is_float else self.alu

    def vector_op(self, op: str) -> int:
        if op == "mul":
            return self.vec_mul
        if op in ("div", "rem"):
            return self.vec_div
        return self.vec_alu

    def mem(self, kind: str, value_ty) -> int:
        base = self.load if kind == "load" else self.store
        if isinstance(value_ty, ty.IntType) and value_ty.bits < 32:
            base += self.subword_mem_extra
        return base


@dataclass(frozen=True)
class SizeModel:
    """Bytes per instruction, for the code-size experiment (S2a)."""
    fixed: int = 0                # 0 = variable length (x86 style)
    alu_bytes: int = 3
    mem_bytes: int = 4
    imm_extra: int = 2            # extra bytes when an immediate operand
    branch_bytes: int = 2
    call_bytes: int = 5
    vec_bytes: int = 5
    #: per-function prologue + epilogue (callee-saved spills, frame
    #: setup/teardown) — absent from bytecode, real in native code
    prologue_bytes: int = 10

    def size_of(self, kind: str, has_imm: bool) -> int:
        if self.fixed:
            return self.fixed
        table = {"alu": self.alu_bytes, "mem": self.mem_bytes,
                 "branch": self.branch_bytes, "call": self.call_bytes,
                 "vec": self.vec_bytes}
        return table.get(kind, self.alu_bytes) + \
            (self.imm_extra if has_imm else 0)


@dataclass(frozen=True)
class TargetDesc:
    """A simulated processor the JIT can compile for.

    Frozen and built from plain values, so descriptors are hashable,
    picklable (they cross the ``ProcessPoolExecutor`` seam with the
    deployment pool) and JSON-describable (the service memo keys on
    :meth:`cache_key`).  ``backend`` names the registered
    :class:`~repro.targets.registry.Backend` that compiles and executes
    code for this target — a *name*, not an object, so descriptors stay
    picklable; the default is the native register-machine JIT.
    """
    name: str
    description: str
    has_simd: bool
    int_regs: int                 # allocatable integer registers
    flt_regs: int                 # allocatable floating-point registers
    vec_regs: int                 # vector registers (SIMD targets)
    costs: CostModel = field(default_factory=CostModel)
    sizes: SizeModel = field(default_factory=SizeModel)
    #: relative clock of this core in a heterogeneous SoC (1.0 = host);
    #: cycles are divided by this when comparing across cores.
    clock_scale: float = 1.0
    #: registered backend name (see :mod:`repro.targets.registry`)
    backend: str = "native"

    def regs_of_class(self, reg_class: str) -> int:
        return {"int": self.int_regs, "flt": self.flt_regs,
                "vec": self.vec_regs}[reg_class]

    def to_dict(self) -> Dict[str, object]:
        """The full configuration as plain JSON-able data."""
        return asdict(self)

    def cache_key(self) -> str:
        """Stable identity for service memo keys: the name plus a
        digest of the full configuration (register files, cost and
        size models, clock, backend), so two targets sharing a name
        but differing anywhere else can never alias a cached image.

        Memoized on the (frozen, therefore immutable) descriptor —
        the deployment memo computes it on every lookup, including
        pure hits, and the digest walk is not free."""
        cached = self.__dict__.get("_cache_key")
        if cached is None:
            payload = json.dumps(self.to_dict(), sort_keys=True)
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            cached = f"{self.name}#{digest[:12]}"
            object.__setattr__(self, "_cache_key", cached)
        return cached
