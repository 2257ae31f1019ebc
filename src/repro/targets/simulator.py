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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine import (
    REFERENCE, TIER2, osr_enabled, resolve_engine,
    osr_threshold as engine_osr_threshold,
)
from repro.lang import types as ty
from repro.semantics import (
    Memory, TrapError, eval_binop, eval_cast, eval_cmp, eval_unop,
    vec_binop, vec_reduce, vec_splat,
)
from repro.targets import dispatch
from repro.targets.dispatch import UNSET
from repro.targets.isa import CompiledFunction, CompiledModule, MInst
from repro.tiers import replay_metered

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

    def merge_counts(self, other: "SimulationResult") -> None:
        self.cycles += other.cycles
        self.instructions += other.instructions
        self.spill_loads += other.spill_loads
        self.spill_stores += other.spill_stores
        self.branches += other.branches
        self.calls += other.calls


class Simulator:
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
        self.engine = resolve_engine(engine)
        #: tier-2 promotion policy: the ``tier2`` engine forces the
        #: whole-function compiler for every function; the default
        #: ``fast`` engine promotes only JIT-hinted functions
        self._tier2_all = self.engine == TIER2
        #: on-stack replacement: a call spinning in the block tier
        #: enters tier-2 at a hot loop header (and a deopted call may
        #: re-enter the same way); a call whose translation already
        #: exists starts in it.  ``None`` defers to ``PVI_OSR``.
        self._osr = self.engine != REFERENCE and \
            (osr_enabled() if osr is None else bool(osr))
        #: an explicit threshold enters at exactly that back-edge
        #: count; the default one only asks the payback gate
        self._osr_threshold, self._osr_gated = \
            engine_osr_threshold(osr_threshold)
        #: tiering observability: calls entered via tier-2 at pc 0,
        #: successful mid-call OSR entries, and the subset of OSR
        #: entries that re-entered after an earlier tier-2 deopt in
        #: the same call
        self.tier2_promotions = 0
        self.osr_entries = 0
        self.deopt_reentries = 0
        #: per-simulator memo of validated predecodes, by function name
        self._predecoded: Dict[str, dispatch.PredecodedMachine] = {}
        self._ret = None

    def tiering_stats(self) -> Dict[str, int]:
        """The tiering counters in machine-readable form (bench JSON
        attaches these so BENCH files prove the policy fired)."""
        return {"tier2_promotions": self.tier2_promotions,
                "osr_entries": self.osr_entries,
                "deopt_reentries": self.deopt_reentries}

    def run(self, name: str, args: List) -> SimulationResult:
        """Call function ``name``; returns result + counters."""
        func = self.module[name]
        if len(args) != len(func.param_locs):
            raise TrapError(f"{name} expects {len(func.param_locs)} args")
        result = SimulationResult()
        if self.engine == REFERENCE:
            result.value = self._call(func, list(args), result)
        else:
            # Revalidate against the content token at every public run
            # (in-place edits between runs are picked up on a reused
            # simulator; callees stay on the O(1) name memo).
            self._predecoded[func.name] = dispatch.predecode_machine(
                func, self.module)
            result.value = self._call_fast(func, list(args), result)
        return result

    # -- fast engine: predecoded closure threading -----------------------------

    def _predecode(self, func: CompiledFunction):
        pre = self._predecoded.get(func.name)
        if pre is None:
            pre = dispatch.predecode_machine(func, self.module)
            self._predecoded[func.name] = pre
        return pre

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
        handlers = pre.handlers
        pc = 0
        deopted = False
        osr = self._osr and pre.osr_leaders
        try:
            # Hinted functions build before their first instruction;
            # an OSR candidate starts in a translation that already
            # exists (an earlier call or a warm hook built it).
            t2 = pre.tier2() if self._tier2_all or pre.tier2_hint \
                else pre.built_tier2() if osr else None
            if t2 is not None:
                # Whole-function tier: runs to completion (-1) or
                # deopts by returning a block leader — undebited —
                # for the block-threaded trampoline below to
                # continue from (which re-debits and meters the
                # fuel trap exactly as usual).
                self.tier2_promotions += 1
                pc = t2(ri, rf, rv, slots, frame_base, memory, self,
                        counters)
                deopted = pc >= 0
            if pc >= 0 and osr:
                pc = self._run_osr(pre, t2, pc, deopted, ri, rf, rv,
                                   slots, frame_base, counters)
            while pc >= 0:
                try:
                    pc = handlers[pc](ri, rf, rv, slots, frame_base,
                                      memory, self, counters)
                except dispatch.MeterTrip as trip:
                    replay_metered(pre, trip.pc, self, ri, rf, rv, slots,
                                   frame_base, memory, self, counters)
        finally:
            if pre.frame_bytes:
                memory.pop_frame(frame_base, pre.frame_bytes)
        return self._ret

    #: per-call counter value that retires an OSR leader (a declined
    #: entry can never succeed later in the same call — the counter is
    #: parked so far negative it cannot re-cross the threshold)
    _OSR_DISABLED = -(1 << 62)

    def _run_osr(self, pre, t2, pc: int, deopted: bool, ri, rf, rv,
                 slots, frame_base, counters) -> int:
        """Block-tier trampoline with back-edge hotness counters.

        Identical to the plain loop in :meth:`_call_fast` except that
        every backward transfer to a candidate loop header is counted;
        at the threshold the live register files — plus the spill
        slots and the fuel/cycle counters — *are* the snapshot, and
        ``_t2`` is entered at that leader (on-stack replacement).
        With no translation in hand a crossing under the default
        threshold first asks the payback gate, handing it the
        instructions executed since the last crossing — once per
        ``threshold`` back edges, never per block; "not yet" just
        keeps counting, a declined build stops the call counting at
        all.  The tier-2 prologue revalidates its
        must-written facts from the snapshot and declines by returning
        the entry pc untouched, in which case that leader is retired
        for the rest of the call.  A deopted call keeps counting, so
        hot deopt sites re-enter ``_t2`` instead of finishing the call
        in the block tier.  Entries and deopts are undebited:
        instruction/cycle counts and traps stay byte-identical to the
        plain loop."""
        memory = self.memory
        handlers = pre.handlers
        threshold = self._osr_threshold
        gated = self._osr_gated
        leaders = pre.osr_leaders
        counts: Dict[int, int] = {}
        asked_at = self._executed
        while pc >= 0:
            try:
                new_pc = handlers[pc](ri, rf, rv, slots, frame_base,
                                      memory, self, counters)
            except dispatch.MeterTrip as trip:
                replay_metered(pre, trip.pc, self, ri, rf, rv, slots,
                               frame_base, memory, self, counters)
            if 0 <= new_pc <= pc and new_pc in leaders:
                count = counts.get(new_pc, 0) + 1
                if count < threshold:
                    counts[new_pc] = count
                else:
                    counts[new_pc] = 0
                    if t2 is None:
                        if gated:
                            now = self._executed
                            t2 = pre.tier2_repaid(now - asked_at)
                            asked_at = now
                        else:
                            t2 = pre.tier2()
                        if t2 is None:      # not repaid yet; or the
                            if pre.tier2_declined:  # build declined:
                                leaders = ()        # stop counting
                            pc = new_pc
                            continue
                    entered = new_pc
                    new_pc = t2(ri, rf, rv, slots, frame_base, memory,
                                self, counters, entered)
                    if new_pc == entered:
                        counts[entered] = self._OSR_DISABLED
                    else:
                        self.osr_entries += 1
                        if deopted:
                            self.deopt_reentries += 1
                        deopted = new_pc >= 0
            pc = new_pc
        return pc

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

