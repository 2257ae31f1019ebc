"""Offline register-allocation analysis (split register allocation).

Following Diouf et al. [18], the expensive, target-independent part of
register allocation runs offline: rank every value by how much it hurts
to spill it.  The ranking uses loop structure — information that is
cheap here (the offline compiler has the CFG and natural loops) and
gone by the time the JIT sees stack bytecode.

``weight(v) = Σ over defs/uses of v at depth d:  10^min(d, 3)``

so a value touched inside a doubly nested loop outweighs one touched a
hundred times in straight-line code.  The ranking is independent of any
register count K: the online allocator simply evicts the lowest-ranked
candidate whenever *its* K runs out.  One offline analysis therefore
serves every core of a heterogeneous platform — which is the paper's
portability argument in miniature.

The companion :func:`optimal_spill_set` (scipy MILP) computes, for one
given K, the provably cost-minimal set of values to keep.  Only its
tests call it: no benchmark does yet (ROADMAP item 4 plans it as the
"offline optimal" column of experiment S4a's table).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bytecode.annotations import RegAllocAnnotation
from repro.bytecode.module import BytecodeFunction
from repro.ir.cfg import natural_loops
from repro.ir.function import Function
from repro.ir.liveness import live_ranges
from repro.ir.values import VReg

#: loop-depth weighting base and cap
DEPTH_BASE = 10
DEPTH_CAP = 3


def _block_depths(func: Function) -> Dict[str, int]:
    depths: Dict[str, int] = {b.label: 0 for b in func.blocks}
    for loop in natural_loops(func):
        for label in loop.body:
            depths[label] = depths.get(label, 0) + 1
    return depths


def compute_spill_priorities(func: Function) -> Dict[int, int]:
    """Spill priority (higher = keep) per virtual register id."""
    depths = _block_depths(func)
    weights: Dict[int, int] = {p.id: 1 for p in func.params}
    for block in func.blocks:
        factor = DEPTH_BASE ** min(depths[block.label], DEPTH_CAP)
        for instr in block.instrs:
            for reg in list(instr.uses()) + list(instr.defs()):
                weights[reg.id] = weights.get(reg.id, 1) + factor
    return weights


def regalloc_annotation(func: Function,
                        bc_func: BytecodeFunction) -> RegAllocAnnotation:
    """Package the ranking as a portable bytecode annotation.

    The priorities list covers the bytecode's parameters first, then
    its locals, in slot order — the layout the JIT's consumer
    (:meth:`repro.jit.compiler.JITCompiler._annotation_priorities`)
    expects.
    """
    weights = compute_spill_priorities(func)
    local_map: Dict[int, int] = getattr(bc_func, "local_map", {})

    priorities: List[int] = []
    for param in func.params:
        priorities.append(weights.get(param.id, 1))
    by_local: Dict[int, int] = {}
    for reg_id, local_index in local_map.items():
        by_local[local_index] = weights.get(reg_id, 1)
    for index in range(len(bc_func.local_types)):
        priorities.append(by_local.get(index, 1))
    return RegAllocAnnotation(function=func.name, priorities=priorities)


def optimal_spill_set(func: Function, k: int,
                      weights: Optional[Dict[int, int]] = None) \
        -> Optional[List[int]]:
    """MILP reference: choose which values to keep in ``k`` registers
    minimizing total spill weight, subject to MAXLIVE constraints.

    Returns the list of vreg ids to *spill*, or None when the solver
    finds no solution (scipy is required).  Exponential-ish in
    spirit but fine at our function sizes — exactly the kind of
    analysis the paper says belongs offline.
    """
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    ranges = live_ranges(func)
    if not ranges:
        return []
    regs: List[VReg] = sorted(ranges, key=lambda r: r.id)
    if weights is None:
        weights = compute_spill_priorities(func)

    # Decision variable x_i = 1 when reg i stays in a register.
    # At every program point, sum of live x_i <= k.
    points = sorted({p for (s, e) in ranges.values() for p in (s, e)})
    rows = []
    for point in points:
        row = [1.0 if ranges[reg][0] <= point <= ranges[reg][1] else 0.0
               for reg in regs]
        if sum(row) > k:
            rows.append(row)
    cost = np.array([-float(weights.get(reg.id, 1)) for reg in regs])
    if not rows:
        return []
    constraints = LinearConstraint(np.array(rows), -np.inf, float(k))
    result = milp(c=cost, constraints=constraints,
                  integrality=np.ones(len(regs)),
                  bounds=((0, 1)))
    if not result.success:
        return None
    kept = result.x > 0.5
    return [reg.id for reg, keep in zip(regs, kept) if not keep]
