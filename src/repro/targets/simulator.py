"""Instruction-level simulator for compiled machine code.

Executes :class:`~repro.targets.isa.CompiledModule` against the same
flat :class:`~repro.semantics.Memory` the VM uses, accumulating the
per-instruction cycle costs assigned at code generation.  Simulated
cycles are this reproduction's stand-in for the paper's measured run
times (the substitution is documented in DESIGN.md).

Two engines share this class (see :mod:`repro.engine`): the default
``fast`` engine dispatches through predecoded handler closures over
flat-list register files (:mod:`repro.targets.dispatch`); the
``reference`` engine is the original ladder in :meth:`Simulator._call`,
kept verbatim as the oracle the differential suite compares against.
Cycle counts, instruction counts and traps are identical by
construction — the engines differ only in host speed.

The tiering policy, its counters and the trampoline that runs a fast
call are the tiering runtime's (:class:`repro.tiering.TieredMachine`,
:func:`repro.tiering.run_tiered`); :meth:`Simulator._call_fast` only
builds the simulator's frame — register files, spill slots, memory
frame — and reads the return value a ``ret`` left in ``_ret``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engine import REFERENCE
from repro.semantics import (
    Memory, TrapError, eval_binop, eval_cast, eval_cmp, eval_unop,
    vec_binop, vec_reduce, vec_splat,
)
from repro.targets import dispatch
from repro.targets.dispatch import UNSET
from repro.targets.isa import CompiledFunction, CompiledModule
from repro.tiering import TieredMachine, run_tiered

DEFAULT_FUEL = 200_000_000


@dataclass
class SimulationResult:
    value: object = None
    cycles: int = 0
    instructions: int = 0
    spill_loads: int = 0
    spill_stores: int = 0
    branches: int = 0
    calls: int = 0


class Simulator(TieredMachine):
    """Executes compiled functions, counting cycles."""

    def __init__(self, module: CompiledModule,
                 memory: Optional[Memory] = None,
                 fuel: int = DEFAULT_FUEL,
                 engine: Optional[str] = None,
                 osr: Optional[bool] = None,
                 osr_threshold: Optional[int] = None):
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self.fuel = fuel
        self._executed = 0
        super().__init__(engine, osr, osr_threshold)
        self._ret = None

    def run(self, name: str, args: List) -> SimulationResult:
        """Call function ``name``; returns result + counters."""
        func = self._entry(name, args)
        result = SimulationResult()
        if self.engine == REFERENCE:
            result.value = self._call(func, list(args), result)
        else:
            # Revalidate against the content token at every public run
            # (in-place edits between runs are picked up on a reused
            # simulator; callees stay on the O(1) name memo).
            self._predecoded[func.name] = self._load(func)
            result.value = self._call_fast(func, list(args), result)
        return result

    # -- fast engine: the simulator's frame around the scaffold's trampoline --

    def _load(self, func: CompiledFunction):
        # by module attribute: benchmarks/e2e/trace.py wraps it there
        return dispatch.predecode_machine(func, self.module)

    def _call_fast(self, func: CompiledFunction, args: List,
                   counters: SimulationResult):
        pre = self._predecode(func)
        n_int, n_flt, n_vec = pre.reg_counts
        ri: List = [UNSET] * n_int
        rf: List = [UNSET] * n_flt
        rv: List = [UNSET] * n_vec
        slots: Dict[int, object] = {}
        for (cls, index), value in zip(pre.param_locs, args):
            if cls < 0:
                slots[index] = value
            else:
                (ri, rf, rv)[cls][index] = value
        memory = self.memory
        frame_base = memory.push_frame(pre.frame_bytes) \
            if pre.frame_bytes else 0
        try:
            run_tiered(self, pre, (ri, rf, rv, slots, frame_base, memory,
                                   self, counters))
        finally:
            if pre.frame_bytes:
                memory.pop_frame(frame_base, pre.frame_bytes)
        return self._ret

    # -- reference engine ------------------------------------------------------

    def _call(self, func: CompiledFunction, args: List,
              counters: SimulationResult):
        regs: Dict[str, Dict[int, object]] = {"int": {}, "flt": {},
                                              "vec": {}}
        # Spill slots park register values in the frame.  They are
        # modeled as a per-frame table (typed, exact) while
        # ``frame_bytes`` still reserves the real stack space, so
        # memory pressure stays honest but parked values cannot be
        # corrupted by type-punning through the byte memory.
        slots: Dict[int, object] = {}
        frame_base = self.memory.push_frame(func.frame_bytes) \
            if func.frame_bytes else 0

        # Place arguments at the callee's parameter homes.
        for loc, value in zip(func.param_locs, args):
            kind, index = loc
            if kind == "slot":
                slots[index] = value
            else:
                regs[kind][index] = value

        memory = self.memory
        code = func.code
        pc = 0

        def read(operand):
            kind, value = operand
            if kind == "imm":
                return value
            if kind == "slot":
                raise TrapError("raw slot operand outside spill op")
            try:
                return regs[kind][value]
            except KeyError:
                raise TrapError(
                    f"{func.name}: read of uninitialized register "
                    f"{kind}{value}")

        try:
            while True:
                if pc >= len(code) or pc < 0:
                    raise TrapError(f"{func.name}: fell off code end")
                instr = code[pc]
                self._executed += 1
                if self._executed > self.fuel:
                    raise TrapError("simulation fuel exhausted")
                counters.instructions += 1
                counters.cycles += instr.cost
                op = instr.op

                if op == "bin":
                    a = read(instr.srcs[0])
                    b = read(instr.srcs[1])
                    regs[instr.dst[0]][instr.dst[1]] = \
                        eval_binop(instr.arg, instr.ty, a, b)
                elif op == "mov":
                    regs[instr.dst[0]][instr.dst[1]] = read(instr.srcs[0])
                elif op == "cmp":
                    a = read(instr.srcs[0])
                    b = read(instr.srcs[1])
                    regs[instr.dst[0]][instr.dst[1]] = \
                        eval_cmp(instr.arg, instr.ty, a, b)
                elif op == "un":
                    regs[instr.dst[0]][instr.dst[1]] = \
                        eval_unop(instr.arg, instr.ty, read(instr.srcs[0]))
                elif op == "cast":
                    from_ty, to_ty = instr.arg
                    regs[instr.dst[0]][instr.dst[1]] = \
                        eval_cast(read(instr.srcs[0]), from_ty, to_ty)
                elif op == "select":
                    cond = read(instr.srcs[0])
                    value = read(instr.srcs[1]) if cond != 0 \
                        else read(instr.srcs[2])
                    regs[instr.dst[0]][instr.dst[1]] = value
                elif op == "load":
                    addr = read(instr.srcs[0])
                    if len(instr.srcs) > 1:
                        addr += read(instr.srcs[1])
                    regs[instr.dst[0]][instr.dst[1]] = \
                        memory.load(instr.ty, addr)
                elif op == "store":
                    addr = read(instr.srcs[0])
                    if len(instr.srcs) > 2:
                        addr += read(instr.srcs[1])
                    memory.store(instr.ty, addr, read(instr.srcs[-1]))
                elif op == "lea.frame":
                    regs[instr.dst[0]][instr.dst[1]] = \
                        frame_base + instr.arg
                elif op == "spill.ld":
                    counters.spill_loads += 1
                    try:
                        regs[instr.dst[0]][instr.dst[1]] = slots[instr.arg]
                    except KeyError:
                        raise TrapError(f"{func.name}: reload of empty "
                                        f"spill slot {instr.arg}")
                elif op == "spill.st":
                    counters.spill_stores += 1
                    slots[instr.arg] = read(instr.srcs[0])
                elif op == "br":
                    counters.branches += 1
                    pc = instr.arg
                    continue
                elif op == "brif":
                    counters.branches += 1
                    if read(instr.srcs[0]) != 0:
                        pc = instr.arg
                        continue
                elif op == "call":
                    counters.calls += 1
                    callee = self.module[instr.arg]
                    values = [slots[s[1]] if s[0] == "slot" else read(s)
                              for s in instr.srcs]
                    result = self._call(callee, values, counters)
                    if instr.dst is not None:
                        regs[instr.dst[0]][instr.dst[1]] = result
                elif op == "ret":
                    if instr.srcs:
                        return read(instr.srcs[0])
                    return None
                elif op == "vload":
                    addr = read(instr.srcs[0])
                    if len(instr.srcs) > 1:
                        addr += read(instr.srcs[1])
                    regs[instr.dst[0]][instr.dst[1]] = memory.load_vec(
                        instr.ty.elem, instr.ty.lanes, addr)
                elif op == "vstore":
                    addr = read(instr.srcs[0])
                    if len(instr.srcs) > 2:
                        addr += read(instr.srcs[1])
                    memory.store_vec(instr.ty.elem, addr,
                                     read(instr.srcs[-1]))
                elif op == "vbin":
                    a = read(instr.srcs[0])
                    b = read(instr.srcs[1])
                    regs[instr.dst[0]][instr.dst[1]] = \
                        vec_binop(instr.arg, instr.ty.elem, a, b)
                elif op == "vsplat":
                    regs[instr.dst[0]][instr.dst[1]] = vec_splat(
                        read(instr.srcs[0]), instr.ty.lanes)
                elif op == "vreduce":
                    reduce_op, acc_ty = instr.arg
                    lanes = [eval_cast(v, instr.ty.elem, acc_ty)
                             for v in read(instr.srcs[0])]
                    regs[instr.dst[0]][instr.dst[1]] = \
                        vec_reduce(reduce_op, acc_ty, lanes)
                else:
                    raise TrapError(f"bad machine opcode {op!r}")
                pc += 1
        finally:
            if func.frame_bytes:
                self.memory.pop_frame(frame_base, func.frame_bytes)

