"""Stack-machine interpreter for PVI bytecode.

Two engines share this class (see :mod:`repro.engine`): the default
``fast`` engine dispatches through per-function predecoded handler
closures (:mod:`repro.vm.threaded`); the ``reference`` engine is the
original if/elif ladder in :meth:`VM._run`, kept verbatim as the
semantic oracle the differential suite compares against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bytecode.module import (
    BytecodeFunction, BytecodeModule, is_vector_local, vector_elem_tag,
)
from repro.bytecode.opcodes import BIN_OPS, UN_OPS, type_of
from repro.bytecode.verifier import verify_module
from repro.engine import (
    REFERENCE, TIER2, osr_enabled, resolve_engine,
    osr_threshold as engine_osr_threshold,
)
from repro.semantics import (
    Memory, TrapError, eval_binop, eval_cast, eval_cmp, eval_unop,
    round_float, vec_binop, vec_reduce, vec_splat,
)
from repro.lang import types as ty
from repro.tiers import replay_metered
from repro.vm import threaded

DEFAULT_FUEL = 50_000_000


class VM:
    """Loads (and verifies) a bytecode module, then executes it."""

    def __init__(self, module: BytecodeModule,
                 memory: Optional[Memory] = None,
                 verify: bool = True,
                 fuel: int = DEFAULT_FUEL,
                 engine: Optional[str] = None,
                 osr: Optional[bool] = None,
                 osr_threshold: Optional[int] = None):
        if verify:
            verify_module(module)
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self.fuel = fuel
        self.instructions_executed = 0
        self.engine = resolve_engine(engine)
        #: tier-2 promotion policy: the ``tier2`` engine forces the
        #: whole-function compiler for every function; the default
        #: ``fast`` engine promotes only hotness-hinted functions
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
        #: per-VM memo of validated predecodes, keyed by function name
        self._predecoded: Dict[str, threaded.PredecodedFunction] = {}

    def tiering_stats(self) -> Dict[str, int]:
        """The tiering counters in machine-readable form (bench JSON
        attaches these so BENCH files prove the policy fired)."""
        return {"tier2_promotions": self.tier2_promotions,
                "osr_entries": self.osr_entries,
                "deopt_reentries": self.deopt_reentries}

    def call(self, name: str, args: List):
        func = self.module.functions.get(name)
        if func is None:
            raise TrapError(f"no such function {name!r}")
        if len(args) != func.num_params:
            raise TrapError(f"{name} expects {func.num_params} args, "
                            f"got {len(args)}")
        coerced = [_coerce(tag, value)
                   for tag, value in zip(func.param_types, args)]
        if self.engine == REFERENCE:
            return self._run(func, coerced)
        # Revalidate the entry function's predecode against its content
        # token at every public call, so in-place edits between calls
        # are picked up even on a reused VM (callees revalidate at
        # their own public calls or on a fresh VM — the name memo keeps
        # recursive dispatch O(1)).
        self._predecoded[func.name] = threaded.predecode(func,
                                                         self.module)
        return self._run_fast(func, coerced)

    # -- fast engine: predecoded closure threading ----------------------------

    def _predecode(self, func: BytecodeFunction):
        pre = self._predecoded.get(func.name)
        if pre is None:
            pre = threaded.predecode(func, self.module)
            self._predecoded[func.name] = pre
        return pre

    def _run_fast(self, func: BytecodeFunction, args: List):
        pre = self._predecode(func)
        locals_: List = list(pre.scalar_defaults)
        for index, lanes in pre.vector_locals:
            locals_[index] = [0] * lanes
        stack: List = []
        memory = self.memory
        frame_size = pre.frame_size
        frame_base = memory.push_frame(frame_size) if frame_size else 0
        handlers = pre.handlers
        pc = 0
        deopted = False
        osr = self._osr and pre.osr_leaders
        try:
            # Hinted functions build before their first instruction;
            # an OSR candidate starts in a translation that already
            # exists (an earlier call or a warm hook built it).
            t2 = pre.tier2() if self._tier2_all or pre.tier2_hot \
                else pre.built_tier2() if osr else None
            if t2 is not None:
                # Whole-function tier: runs to completion (-1) or
                # deopts by returning a block leader — undebited —
                # for the block-threaded trampoline below to
                # continue from (which re-debits and meters the
                # fuel trap exactly as usual).
                self.tier2_promotions += 1
                pc = t2(stack, locals_, args, frame_base, memory, self)
                deopted = pc >= 0
            if pc >= 0 and osr:
                pc = self._run_osr(pre, t2, pc, deopted, stack,
                                   locals_, args, frame_base)
            while pc >= 0:
                try:
                    pc = handlers[pc](stack, locals_, args, frame_base,
                                      memory, self)
                except threaded.MeterTrip as trip:
                    replay_metered(pre, trip.pc, self, stack, locals_,
                                   args, frame_base, memory, self)
        finally:
            if frame_size:
                memory.pop_frame(frame_base, frame_size)
        if pre.has_ret:
            return stack.pop()
        return None

    #: per-call counter value that retires an OSR leader (a declined
    #: entry can never succeed later in the same call — the counter is
    #: parked so far negative it cannot re-cross the threshold)
    _OSR_DISABLED = -(1 << 62)

    def _run_osr(self, pre, t2, pc: int, deopted: bool, stack, locals_,
                 args, frame_base) -> int:
        """Block-tier trampoline with back-edge hotness counters.

        Identical to the plain loop in :meth:`_run_fast` except that
        every backward transfer to a candidate loop header is counted;
        at the threshold the live frame — operand stack, locals, args,
        ``instructions_executed`` — *is* the snapshot, and ``_t2`` is
        entered at that leader (on-stack replacement).  With no
        translation in hand a crossing under the default threshold
        first asks the payback gate, handing it the instructions
        executed since the last crossing — once per ``threshold``
        back edges, never per block; "not yet" just keeps counting, a
        declined build stops the call counting at all.
        The tier-2 prologue revalidates its entered-once facts from
        the snapshot and declines by returning the entry pc untouched,
        in which case that leader is retired for the rest of the call.
        A deopted call keeps counting, so hot deopt sites re-enter
        ``_t2`` instead of finishing the call in the block tier.
        Entries and deopts are undebited: instruction counts and traps
        stay byte-identical to the plain loop."""
        memory = self.memory
        handlers = pre.handlers
        threshold = self._osr_threshold
        gated = self._osr_gated
        leaders = pre.osr_leaders
        counts: Dict[int, int] = {}
        asked_at = self.instructions_executed
        while pc >= 0:
            try:
                new_pc = handlers[pc](stack, locals_, args, frame_base,
                                      memory, self)
            except threaded.MeterTrip as trip:
                replay_metered(pre, trip.pc, self, stack, locals_,
                               args, frame_base, memory, self)
            if 0 <= new_pc <= pc and new_pc in leaders:
                count = counts.get(new_pc, 0) + 1
                if count < threshold:
                    counts[new_pc] = count
                else:
                    counts[new_pc] = 0
                    if t2 is None:
                        if gated:
                            now = self.instructions_executed
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
                    new_pc = t2(stack, locals_, args, frame_base,
                                memory, self, entered)
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

    def _run(self, func: BytecodeFunction, args: List):
        code = func.code
        locals_: List = [_default(tag) for tag in func.local_types]
        stack: List = []
        frame_size = func.frame_size()
        frame_base = self.memory.push_frame(frame_size) if frame_size else 0
        slot_offsets = func.frame_offsets()
        memory = self.memory
        pc = 0

        try:
            while True:
                if pc >= len(code) or pc < 0:
                    raise TrapError(f"{func.name}: fell off code end")
                self.instructions_executed += 1
                if self.instructions_executed > self.fuel:
                    raise TrapError("VM fuel exhausted")
                instr = code[pc]
                op = instr.op

                if op == "ldloc":
                    stack.append(locals_[instr.arg])
                elif op == "ldarg":
                    stack.append(args[instr.arg])
                elif op == "stloc":
                    locals_[instr.arg] = stack.pop()
                elif op == "const":
                    stack.append(instr.arg)
                elif op in BIN_OPS:
                    b = stack.pop()
                    a = stack.pop()
                    stack.append(eval_binop(op, type_of(instr.ty), a, b))
                elif op == "cmp":
                    b = stack.pop()
                    a = stack.pop()
                    stack.append(eval_cmp(instr.arg, type_of(instr.ty),
                                          a, b))
                elif op in UN_OPS:
                    a = stack.pop()
                    stack.append(eval_unop(op, type_of(instr.ty), a))
                elif op == "cast":
                    a = stack.pop()
                    stack.append(eval_cast(a, type_of(instr.arg),
                                           type_of(instr.ty)))
                elif op == "select":
                    b = stack.pop()
                    a = stack.pop()
                    cond = stack.pop()
                    stack.append(a if cond != 0 else b)
                elif op == "load":
                    addr = stack.pop()
                    stack.append(memory.load(type_of(instr.ty), addr))
                elif op == "store":
                    value = stack.pop()
                    addr = stack.pop()
                    memory.store(type_of(instr.ty), addr, value)
                elif op == "frame":
                    stack.append(frame_base + slot_offsets[instr.arg])
                elif op == "br":
                    pc = instr.arg
                    continue
                elif op == "brif":
                    cond = stack.pop()
                    if cond != 0:
                        pc = instr.arg
                        continue
                elif op == "call":
                    callee = self.module.functions[instr.arg]
                    count = callee.num_params
                    call_args = stack[len(stack) - count:]
                    del stack[len(stack) - count:]
                    result = self._run(callee, call_args)
                    if callee.ret_type is not None:
                        stack.append(result)
                elif op == "ret":
                    if func.ret_type is not None:
                        return stack.pop()
                    return None
                elif op == "pop":
                    stack.pop()
                elif op == "vec.load":
                    addr = stack.pop()
                    elem = type_of(instr.ty)
                    lanes = 16 // ty.sizeof(elem)
                    stack.append(memory.load_vec(elem, lanes, addr))
                elif op == "vec.store":
                    value = stack.pop()
                    addr = stack.pop()
                    memory.store_vec(type_of(instr.ty), addr, value)
                elif op.startswith("vec.") and op[4:] in BIN_OPS:
                    b = stack.pop()
                    a = stack.pop()
                    stack.append(vec_binop(op[4:], type_of(instr.ty), a, b))
                elif op == "vec.splat":
                    scalar = stack.pop()
                    elem = type_of(instr.ty)
                    lanes = 16 // ty.sizeof(elem)
                    stack.append(vec_splat(scalar, lanes))
                elif op == "vec.reduce":
                    reduce_op, acc_tag = instr.arg
                    vec = stack.pop()
                    elem = type_of(instr.ty)
                    acc_ty = type_of(acc_tag)
                    widened = [eval_cast(lane, elem, acc_ty)
                               for lane in vec]
                    stack.append(vec_reduce(reduce_op, acc_ty, widened))
                else:
                    raise TrapError(f"unknown opcode {op!r}")
                pc += 1
        finally:
            if frame_size:
                self.memory.pop_frame(frame_base, frame_size)


def _default(tag: str):
    if is_vector_local(tag):
        elem = type_of(vector_elem_tag(tag))
        return [0] * (16 // ty.sizeof(elem))
    if tag in ("f32", "f64"):
        return 0.0
    return 0


def _coerce(tag: str, value):
    if is_vector_local(tag):
        return list(value)
    lang_ty = type_of(tag)
    if isinstance(lang_ty, ty.IntType):
        return ty.wrap_int(int(value), lang_ty)
    return round_float(float(value), lang_ty)
