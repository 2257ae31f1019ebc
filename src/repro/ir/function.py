"""Module / Function / BasicBlock containers for the IR.

**Pass conventions** (stated here once; passes cite this docstring).

:meth:`Function.new_reg` is the only constructor of a
:class:`~repro.ir.values.VReg`, so the registers of a function are the
dense integers ``0 .. func.reg_count - 1``, one object per id
(:func:`repro.ir.verify.verify_function` checks both halves).  A pass
on the always-on JIT path therefore hashes no register:

1. a per-register fact (definition count, use count, replacement,
   live copy, interval bounds) is a list of ``func.reg_count`` entries
   indexed by ``reg.id``, built when the pass starts — a pass that
   creates registers sizes its tables after it has;
2. a set of registers is one ``int`` used as a bitmask (bit
   ``reg.id``), so ``live_in = use | (out & ~defs)`` is three big-int
   operations; tables and masks iterate in id order, so no result can
   depend on hash order;
3. a pass walks ``block.instrs`` and ``instr.srcs`` directly;
   ``Function.instructions()`` and ``Instr.uses()`` / ``defs()`` /
   ``replace_use()`` stay for callers off that path.  An operand is a
   ``VReg`` or a ``Const`` and nothing else, and no value or
   instruction class has a subclass except ``Load`` / ``Store`` /
   ``VLoad`` / ``VStore`` (the indexed forms of
   :mod:`repro.jit.addrfold`): test ``x.__class__ is VReg``, keep
   ``isinstance`` for those four;
4. work accounting adds ``len(block.instrs)`` per logical scan of a
   block — the number it used to add one by one.

The IR is **not SSA**: a variable's home register is redefined while
values computed from it are still pending.  A rewrite that moves a
*read* of a register from one instruction to a later one must show
that no definition of that register lies in between: the operand is a
constant; or both instructions sit in one block and a last-definition
index kept in the same forward walk shows no definition after the
first; or, across blocks, the register has a single definition (a
parameter's entry value counts as one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.lang import types as ty
from repro.ir.instructions import Instr, branch_targets
from repro.ir.values import IRType, VReg


class BasicBlock:
    """A labelled straight-line sequence ending in one terminator."""

    def __init__(self, label: str):
        self.label = label
        self.instrs: List[Instr] = []

    @property
    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    def successors(self) -> List[str]:
        term = self.terminator
        return branch_targets(term) if term is not None else []

    def append(self, instr: Instr) -> Instr:
        self.instrs.append(instr)
        return instr

    def __repr__(self) -> str:
        return f"BasicBlock({self.label}, {len(self.instrs)} instrs)"


@dataclass
class FrameSlot:
    """A stack-allocated local (array or address-taken scalar)."""
    name: str
    size: int
    align: int
    offset: int = 0   # assigned by layout_frame()


class Function:
    """An IR function: ordered blocks, parameters, frame slots."""

    def __init__(self, name: str, ret_ty: ty.Type):
        self.name = name
        self.ret_ty = ret_ty
        self.params: List[VReg] = []
        self.blocks: List[BasicBlock] = []
        self.frame_slots: Dict[str, FrameSlot] = {}
        self.vector_loops: list = []     # opt.vectorize's VecLoopInfo
        self._next_reg = 0
        self._next_label = 0

    # -- registers and labels -------------------------------------------------

    @property
    def reg_count(self) -> int:
        """Registers created so far: every id is in ``[0, reg_count)``
        (the size of a per-register table, see the module docstring)."""
        return self._next_reg

    def new_reg(self, reg_ty: IRType, name: str = "") -> VReg:
        reg = VReg(self._next_reg, reg_ty, name)
        self._next_reg += 1
        return reg

    def new_param(self, reg_ty: IRType, name: str = "") -> VReg:
        reg = self.new_reg(reg_ty, name)
        self.params.append(reg)
        return reg

    def new_block(self, hint: str = "bb") -> BasicBlock:
        block = BasicBlock(f"{hint}{self._next_label}")
        self._next_label += 1
        self.blocks.append(block)
        return block

    def add_frame_slot(self, name: str, size: int, align: int) -> FrameSlot:
        if name in self.frame_slots:
            base, n = name, 1
            while f"{base}.{n}" in self.frame_slots:
                n += 1
            name = f"{base}.{n}"
        slot = FrameSlot(name, size, align)
        self.frame_slots[name] = slot
        return slot

    # -- structure ----------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block(self, label: str) -> BasicBlock:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    def block_map(self) -> Dict[str, BasicBlock]:
        return {b.label: b for b in self.blocks}

    def instructions(self):
        """Iterate over every instruction in block order."""
        for block in self.blocks:
            yield from block.instrs

    def layout_frame(self) -> int:
        """Assign frame-slot offsets; returns the total frame size."""
        offset = 0
        for slot in self.frame_slots.values():
            offset = (offset + slot.align - 1) // slot.align * slot.align
            slot.offset = offset
            offset += slot.size
        return (offset + 15) // 16 * 16

    def __repr__(self) -> str:
        return f"Function({self.name}, {len(self.blocks)} blocks)"


@dataclass
class Module:
    """A translation unit: an ordered set of functions."""
    name: str = "module"
    functions: Dict[str, Function] = field(default_factory=dict)

    def add(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def __getitem__(self, name: str) -> Function:
        return self.functions[name]

    def __iter__(self):
        return iter(self.functions.values())
