"""Linear-scan register allocation.

Classic Poletto–Sarkar linear scan over live intervals, with three
register classes (``int``, ``flt``, ``vec``).  Two spill-choice
policies:

* **baseline** (what a JIT can afford on its own): spill the interval
  whose live range ends furthest away — O(1) per decision, but blind
  to loop structure, so it happily evicts a loop accumulator to free a
  register for a short-lived temporary;
* **annotated** (split register allocation, after Diouf et al. [18]):
  spill the candidate with the lowest *offline-computed* priority.
  The priorities encode loop-nesting-weighted use counts the offline
  compiler derived from structure the bytecode no longer has.  The
  online decision stays O(1); the annotation is independent of the
  register count K, so one offline analysis serves every target.

Both run in the same allocator; experiment S4a measures the spill
traffic difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang import types as ty
from repro.ir.function import Function
from repro.ir.liveness import live_ranges
from repro.ir.values import VecType, VReg

#: registers reserved per class for spill reloads at use sites
#: (int needs a third for select's condition alongside two operands)
SCRATCH = {"int": 3, "flt": 2, "vec": 2}


def reg_class(reg: VReg) -> str:
    if isinstance(reg.ty, VecType):
        return "vec"
    if ty.is_float(reg.ty):
        return "flt"
    return "int"


@dataclass
class Allocation:
    """Result: a home (register or slot) for every virtual register."""
    homes: Dict[int, Tuple[str, object]] = field(default_factory=dict)
    spill_bytes: int = 0
    spilled_regs: int = 0
    work: int = 0
    regs_used: Dict[str, int] = field(default_factory=dict)

    def home(self, reg: VReg) -> Tuple[str, object]:
        return self.homes[reg.id]

    def is_spilled(self, reg: VReg) -> bool:
        return self.homes[reg.id][0] == "slot"


@dataclass
class _Interval:
    reg: VReg
    start: int
    end: int
    cls: str
    priority: int          # higher = more important to keep


def allocate(func: Function, regs_per_class: Dict[str, int],
             priorities: Optional[Dict[int, int]] = None,
             spill_base_offset: int = 0,
             pin_to_memory: Optional[set] = None) -> Allocation:
    """Allocate registers for ``func``.

    ``regs_per_class`` maps class name to the number of *allocatable*
    registers (scratch registers are reserved out of this number).
    ``priorities`` maps vreg id to an offline-computed keep-priority;
    when None the baseline furthest-end policy is used.
    ``pin_to_memory`` (vreg ids) models the 2010-era *local* JIT
    allocator: those registers (the program's variables) live in
    memory homes and only expression temporaries compete for
    registers.
    """
    allocation = Allocation()
    ranges = live_ranges(func)
    allocation.work += len(ranges)

    intervals: List[_Interval] = []
    pinned: List[_Interval] = []
    ranks = priorities or {}
    pins = pin_to_memory or ()
    for reg, (start, end) in ranges.items():
        interval = _Interval(reg, start, end, reg_class(reg),
                             ranks.get(reg.id, 1))
        (pinned if reg.id in pins else intervals).append(interval)
    # Stable: ties keep the order of ``live_ranges``.
    intervals.sort(key=lambda iv: (iv.start, iv.end))

    free: Dict[str, List[int]] = {}
    limit: Dict[str, int] = {}
    for cls in ("int", "flt", "vec"):
        available = max(0, regs_per_class.get(cls, 0) - SCRATCH[cls])
        limit[cls] = available
        free[cls] = list(range(available))
    active: Dict[str, List[_Interval]] = {"int": [], "flt": [], "vec": []}
    #: register index per vreg id (pass conventions: repro.ir.function)
    assigned: List[Optional[int]] = [None] * func.reg_count
    spill_offset = spill_base_offset

    def expire(cls: str, now: int) -> None:
        still = []
        for iv in active[cls]:
            if iv.end < now:
                free[cls].append(assigned[iv.reg.id])
            else:
                still.append(iv)
        active[cls] = still

    def spill_slot(iv: _Interval) -> None:
        nonlocal spill_offset
        size = 16 if iv.cls == "vec" else 8
        spill_offset = (spill_offset + size - 1) // size * size
        allocation.homes[iv.reg.id] = ("slot", spill_offset)
        spill_offset += size
        allocation.spilled_regs += 1

    use_annotations = priorities is not None

    for iv in pinned:
        allocation.work += 1
        spill_slot(iv)

    for iv in intervals:
        allocation.work += 1
        cls = iv.cls
        expire(cls, iv.start)
        if limit[cls] == 0:
            spill_slot(iv)
            continue
        if free[cls]:
            reg_index = free[cls].pop()
            assigned[iv.reg.id] = reg_index
            allocation.homes[iv.reg.id] = ("reg", (cls, reg_index))
            active[cls].append(iv)
            continue
        # No free register: choose a victim among active + current.
        candidates = active[cls] + [iv]
        if use_annotations:
            # Split register allocation: evict the lowest-ranked
            # *variable*.  Unranked registers are the JIT's own stack
            # temporaries — short-lived and used immediately, so
            # evicting one trades a register for reload traffic inside
            # the hot path; they are never preferred victims.  When
            # only temporaries are active, fall back to the baseline
            # heuristic.
            ranked = [c for c in candidates if c.priority > 1]
            if ranked:
                victim = min(ranked, key=lambda c: (c.priority, -c.end))
            else:
                victim = max(candidates, key=lambda c: c.end)
        else:
            victim = max(candidates, key=lambda c: c.end)
        if victim is iv:
            spill_slot(iv)
            continue
        # Evict the victim; the newcomer takes its register.
        reg_index = assigned[victim.reg.id]
        spill_slot(victim)
        active[cls].remove(victim)
        assigned[iv.reg.id] = reg_index
        allocation.homes[iv.reg.id] = ("reg", (cls, reg_index))
        active[cls].append(iv)

    allocation.spill_bytes = spill_offset - spill_base_offset
    for cls in ("int", "flt", "vec"):
        allocation.regs_used[cls] = limit[cls] - len([
            r for r in free[cls]])
    return allocation
