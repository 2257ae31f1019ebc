"""The generic machine instruction form ("native code").

After register allocation the JIT emits a flat list of :class:`MInst`
per function: operands are physical registers, immediates, or spill
slots; branch targets are instruction indices.  Each instruction
carries its cycle cost and encoded size, both assigned at code
generation time from the target's models, so the simulator is a dumb
(and fast) executor.

Register operands are ``(cls, index)`` pairs with ``cls`` in
``{"int", "flt", "vec"}``; other operands are ``("imm", value)`` or
``("slot", byte_offset)`` (spill slots in the current frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

Reg = Tuple[str, int]
Operand = Tuple[str, object]

#: opcodes understood by the simulator
MACHINE_OPS = (
    "mov",          # dst <- src (register or immediate)
    "bin",          # dst <- src0 op src1            arg = op name
    "un",           # dst <- op src0                 arg = op name
    "cmp",          # dst <- src0 pred src1 (0/1)    arg = predicate
    "cast",         # dst <- convert(src0)           arg = (from_ty, to_ty)
    "select",       # dst <- src0 ? src1 : src2
    "load",         # dst <- mem[src0]
    "store",        # mem[src0] <- src1
    "lea.frame",    # dst <- frame_base + arg
    "spill.ld",     # dst <- frame[arg]   (register reload)
    "spill.st",     # frame[arg] <- src0  (register spill)
    "call",         # dst <- callee(srcs) arg = callee name
    "ret",          # return src0 (if any)
    "br",           # arg = target index
    "brif",         # if src0 != 0 goto arg
    "vload", "vstore", "vbin", "vsplat", "vreduce",
)


@dataclass
class MInst:
    op: str
    ty: object = None              # lang type / VecType where relevant
    dst: Optional[Reg] = None
    srcs: List[Operand] = field(default_factory=list)
    arg: object = None
    cost: int = 1
    size: int = 4

    def __repr__(self) -> str:
        def fmt(operand):
            kind, value = operand
            if kind == "imm":
                return f"#{value}"
            if kind == "slot":
                return f"[fp+{value}]"
            return f"{kind[0]}{value}"

        parts = [self.op]
        if self.arg is not None and self.op in ("bin", "un", "cmp", "vbin"):
            parts.append(f".{self.arg}")
        if self.ty is not None:
            parts.append(f".{self.ty}")
        text = "".join(parts)
        pieces = []
        if self.dst is not None:
            pieces.append(fmt(self.dst))
        pieces.extend(fmt(s) for s in self.srcs)
        if self.op in ("br", "brif"):
            pieces.append(f"->{self.arg}")
        elif self.op == "call":
            pieces.append(f"@{self.arg}")
        elif self.op in ("lea.frame", "spill.ld", "spill.st"):
            pieces.append(f"[fp+{self.arg}]")
        return f"{text} " + ", ".join(pieces)


@dataclass
class CompiledFunction:
    """JIT output for one function on one target."""
    name: str
    target_name: str
    code: List[MInst] = field(default_factory=list)
    frame_bytes: int = 0            # bytecode frame slots + spill area
    param_locs: List[Operand] = field(default_factory=list)
    ret_void: bool = True
    code_bytes: int = 0             # encoded size (size model)
    spill_slot_count: int = 0
    jit_work: int = 0               # total effort spent compiling
    jit_analysis_work: int = 0      # optional analysis portion of it
    jit_time: float = 0.0
    #: analysis work by pass name, when the flow ran online analyses
    jit_pass_work: dict = field(default_factory=dict)
    #: the JIT marked this function for tier-2 whole-function
    #: translation (its hotness annotation cleared the adaptive
    #: threshold: :func:`repro.flows.promotes_to_tier2`); advisory —
    #: not part of the modeled image, so excluded from equality
    tier2_hint: bool = field(default=False, compare=False)
    #: the bytecode's declared parameter type tags, which a call's
    #: arguments are checked against (``TieredMachine._entry``); like
    #: the hint, not part of the modeled image
    param_types: List[str] = field(default_factory=list, compare=False)

    @property
    def num_params(self) -> int:
        return len(self.param_locs)

    def content_token(self) -> List:
        """Structural identity of everything the predecode bakes in:
        the code plus the parameter homes and frame size it sizes the
        register files and stack frame from."""
        return [tuple(self.param_locs), self.frame_bytes, self.ret_void,
                [(i.op, i.ty, i.dst, tuple(i.srcs), i.arg, i.cost)
                 for i in self.code]]


@dataclass
class CompiledModule:
    target_name: str
    functions: dict = field(default_factory=dict)

    #: frozen = the function table and code will not change in place;
    #: the fast simulator may bind call targets at predecode time.
    #: The JIT freezes every module it emits.
    _frozen: bool = field(default=False, repr=False, compare=False)

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "CompiledModule":
        self._frozen = True
        return self

    def add(self, func: CompiledFunction) -> CompiledFunction:
        if self._frozen:
            raise ValueError(
                f"compiled module for {self.target_name!r} is frozen")
        self.functions[func.name] = func
        return func

    def __getitem__(self, name: str) -> CompiledFunction:
        return self.functions[name]

    @property
    def total_code_bytes(self) -> int:
        return sum(f.code_bytes for f in self.functions.values())

    @property
    def total_jit_work(self) -> int:
        return sum(f.jit_work for f in self.functions.values())

    @property
    def total_jit_analysis_work(self) -> int:
        return sum(f.jit_analysis_work for f in self.functions.values())

    @property
    def total_jit_pass_work(self) -> dict:
        """Online analysis work by pass, summed over functions."""
        out: dict = {}
        for func in self.functions.values():
            for name, work in func.jit_pass_work.items():
                out[name] = out.get(name, 0) + work
        return out
