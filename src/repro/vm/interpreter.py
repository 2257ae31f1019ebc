"""Stack-machine interpreter for PVI bytecode.

Two engines share this class (see :mod:`repro.engine`): the default
``fast`` engine dispatches through per-function predecoded handler
closures (:mod:`repro.vm.threaded`); the ``reference`` engine is the
original if/elif ladder in :meth:`VM._run`, kept verbatim as the
semantic oracle the differential suite compares against.

The tiering policy, its counters and the trampoline that runs a fast
call are the tiering runtime's (:class:`repro.tiering.TieredMachine`,
:func:`repro.tiering.run_tiered`); :meth:`VM._run_fast` only builds
the VM's frame — operand stack, locals, args, memory frame — and pops
the return value off the stack.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bytecode.module import (
    BytecodeFunction, BytecodeModule, is_vector_local, vector_elem_tag,
)
from repro.bytecode.opcodes import BIN_OPS, UN_OPS, type_of
from repro.bytecode.verifier import verify_module
from repro.engine import REFERENCE
from repro.semantics import (
    Memory, TrapError, eval_binop, eval_cast, eval_cmp, eval_unop,
    round_float, vec_binop, vec_reduce, vec_splat,
)
from repro.lang import types as ty
from repro.tiering import TieredMachine, run_tiered
from repro.vm import threaded

DEFAULT_FUEL = 50_000_000


class VM(TieredMachine):
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
        super().__init__(engine, osr, osr_threshold)

    def call(self, name: str, args: List):
        func = self._entry(name, args)
        coerced = [_coerce(tag, value)
                   for tag, value in zip(func.param_types, args)]
        if self.engine == REFERENCE:
            return self._run(func, coerced)
        # Revalidate the entry function's predecode against its content
        # token at every public call, so in-place edits between calls
        # are picked up even on a reused VM (callees revalidate at
        # their own public calls or on a fresh VM — the name memo keeps
        # recursive dispatch O(1)).
        self._predecoded[func.name] = self._load(func)
        return self._run_fast(func, coerced)

    # -- fast engine: the VM's frame around the scaffold's trampoline ---------

    def _load(self, func: BytecodeFunction):
        # by module attribute: benchmarks/e2e/trace.py wraps it there
        return threaded.predecode(func, self.module)

    def _run_fast(self, func: BytecodeFunction, args: List):
        pre = self._predecode(func)
        locals_: List = list(pre.scalar_defaults)
        for index, lanes in pre.vector_locals:
            locals_[index] = [0] * lanes
        stack: List = []
        memory = self.memory
        frame_size = pre.frame_size
        frame_base = memory.push_frame(frame_size) if frame_size else 0
        try:
            run_tiered(self, pre,
                       (stack, locals_, args, frame_base, memory, self))
        finally:
            if frame_size:
                memory.pop_frame(frame_base, frame_size)
        if pre.has_ret:
            return stack.pop()
        return None

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
