"""Block-level liveness analysis over virtual registers.

Register sets are integer bitmasks and per-register facts are lists
indexed by ``reg.id`` (the pass conventions of
:mod:`repro.ir.function`); :class:`BlockLiveness` turns a mask back
into a set of registers only when asked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.values import VReg


class BlockLiveness:
    """Liveness of one block: ``use`` (upward-exposed uses), ``defs``,
    ``live_in`` and ``live_out`` as sets of registers, built on demand
    from the ``*_mask`` bitmasks the analysis computes."""

    __slots__ = ("use_mask", "defs_mask", "live_in_mask",
                 "live_out_mask", "_func")

    def __init__(self, func: Function, use_mask: int, defs_mask: int):
        self._func = func
        self.use_mask = use_mask
        self.defs_mask = defs_mask
        self.live_in_mask = 0
        self.live_out_mask = 0

    def _regs(self, mask: int) -> Set[VReg]:
        return {reg for reg in _registers(self._func)
                if mask >> reg.id & 1}

    @property
    def use(self) -> Set[VReg]:
        return self._regs(self.use_mask)

    @property
    def defs(self) -> Set[VReg]:
        return self._regs(self.defs_mask)

    @property
    def live_in(self) -> Set[VReg]:
        return self._regs(self.live_in_mask)

    @property
    def live_out(self) -> Set[VReg]:
        return self._regs(self.live_out_mask)


def _registers(func: Function) -> List[VReg]:
    """Every register the function mentions, once each."""
    seen: List[Optional[VReg]] = [None] * func.reg_count
    for param in func.params:
        seen[param.id] = param
    for block in func.blocks:
        for instr in block.instrs:
            for src in instr.srcs:
                if src.__class__ is VReg:
                    seen[src.id] = src
            if instr.dst is not None:
                seen[instr.dst.id] = instr.dst
    return [reg for reg in seen if reg is not None]


def analyze(func: Function) -> Dict[str, BlockLiveness]:
    """Backward may-liveness over the CFG.

    Function parameters are treated as defined on entry.
    """
    bits = [1 << reg_id for reg_id in range(func.reg_count)]
    info: Dict[str, BlockLiveness] = {}
    for block in func.blocks:
        use = defs = 0
        for instr in block.instrs:
            for src in instr.srcs:
                if src.__class__ is VReg and not defs & bits[src.id]:
                    use |= bits[src.id]
            if instr.dst is not None:
                defs |= bits[instr.dst.id]
        info[block.label] = BlockLiveness(func, use, defs)

    order = [(info[block.label],
              [info[label] for label in block.successors()])
             for block in reversed(func.blocks)]
    changed = True
    while changed:
        changed = False
        for bl, successors in order:
            out = 0
            for succ in successors:
                out |= succ.live_in_mask
            new_in = bl.use_mask | (out & ~bl.defs_mask)
            if out != bl.live_out_mask or new_in != bl.live_in_mask:
                bl.live_out_mask = out
                bl.live_in_mask = new_in
                changed = True
    return info


def live_ranges(func: Function) -> Dict[VReg, Tuple[int, int]]:
    """Linear live intervals over a flat numbering of instructions.

    This is the classic linear-scan approximation: an interval spans
    from the first definition to the last use (extended across blocks
    where the register is live).  Parameters start at position -1.
    The result lists parameters first, then registers in order of
    first appearance (the uses of an instruction before its
    definition): linear scan sorts intervals stably, so this order
    decides ties and with them register numbers.
    """
    info = analyze(func)
    starts: List[Optional[int]] = [None] * func.reg_count
    ends = [-1] * func.reg_count
    order: List[VReg] = list(func.params)
    for param in order:
        starts[param.id] = -1

    index = 0
    bounds: List[Tuple[BlockLiveness, int, int]] = []
    for block in func.blocks:
        begin = index
        for instr in block.instrs:
            for src in instr.srcs:
                if src.__class__ is VReg:
                    if starts[src.id] is None:
                        starts[src.id] = index
                        order.append(src)
                    ends[src.id] = index
            # A definition extends the interval even when the value
            # is never read again: code generation still writes the
            # register, so the register must stay reserved or a
            # dead store would clobber whoever reuses it.
            dst = instr.dst
            if dst is not None:
                if starts[dst.id] is None:
                    starts[dst.id] = index
                    order.append(dst)
                ends[dst.id] = index
            index += 1
        bounds.append((info[block.label], begin, index - 1))

    # Extend intervals across blocks where the value is live-in/out.
    for bl, begin, end in bounds:
        for mask, position in ((bl.live_in_mask, begin),
                               (bl.live_out_mask, end)):
            while mask:
                low = mask & -mask
                mask ^= low
                reg_id = low.bit_length() - 1
                if position < starts[reg_id]:
                    starts[reg_id] = position
                if position > ends[reg_id]:
                    ends[reg_id] = position

    return {reg: (starts[reg.id], ends[reg.id]) for reg in order}


def max_live(func: Function) -> int:
    """MAXLIVE: the maximum number of simultaneously live registers."""
    ranges = live_ranges(func)
    events: List[Tuple[int, int]] = []
    for start, end in ranges.values():
        events.append((start, 1))
        events.append((end + 1, -1))
    events.sort()
    current = peak = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak
