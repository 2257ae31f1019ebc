"""PVI bytecode verifier.

Abstract interpretation over stack *types*: every reachable pc gets a
stack state; operations check their operand types.  This is the
load-time safety net the paper counts among the offline/online
division of labour ("verification and code compaction are typically
assigned to offline compilation" — here it runs at load time, before
the interpreter or any JIT touches the code).

Merge states form a proper lattice: each stack slot is a *set* of
possible tags, and a control-flow merge joins slot-wise by union (the
widening for conflicting numeric tags).  A merge is rejected outright
only when genuinely incompatible — differing stack depths, which no
join can repair.  Conflicting tags instead flow onward as the union
and fail only at an operation whose operand set they don't fit, so a
diamond producing ``i64`` on one arm and ``u64`` on the other may
still feed an address pop (both are address tags) — the old
identical-states rule spuriously rejected that.

Next to the stack shape each state carries the locals definitely
assigned on every path to it, as an int bitset: ``stloc i`` sets bit
``i``, a merge ANDs the sets, and ``ldloc i`` of a clear bit is
rejected.  A verified function therefore never reads a local's
zero-initialized default — the engines would return that zero, while
the JIT's decoded LIR has no definition for it and its optimizers may
assume the local's one store reaches every read.

The join is monotone over a finite lattice (slot sets only grow,
bounded by the tag universe; assigned sets only shrink), so the
worklist terminates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bytecode.module import (
    BytecodeFunction, BytecodeModule, is_vector_local, vector_elem_tag,
)
from repro.bytecode.opcodes import (
    BCInstr, BIN_OPS, CMP_PREDS, TYPE_TAGS, UN_OPS,
)

_INT_TAGS = {"i8", "u8", "i16", "u16", "i32", "u32", "i64", "u64"}
_FLOAT_TAGS = {"f32", "f64"}
_ADDR_TAGS = {"i64", "u64"}


class BytecodeVerifyError(Exception):
    pass


def verify_module(module: BytecodeModule) -> None:
    for func in module:
        _verify_function(module, func)


#: one abstract stack slot: the set of tags the value may carry
_Slot = FrozenSet[str]

#: the state at one pc: stack shape, bitset of assigned locals
_State = Tuple[Tuple[_Slot, ...], int]


def _verify_function(module: BytecodeModule,
                     func: BytecodeFunction) -> None:
    def fail(pc: int, message: str) -> None:
        raise BytecodeVerifyError(f"{func.name}@{pc}: {message}")

    code = func.code
    if not code:
        raise BytecodeVerifyError(f"{func.name}: empty body")

    states: Dict[int, _State] = {0: ((), 0)}
    worklist: List[int] = [0]
    seen_ret = False

    while worklist:
        pc = worklist.pop()
        shape, assigned = states[pc]
        stack = list(shape)
        while True:
            if pc >= len(code):
                fail(pc, "control falls off the end of the function")
            instr = code[pc]
            next_pcs, assigned, is_ret = _step(module, func, pc, instr,
                                               stack, assigned, fail)
            seen_ret = seen_ret or is_ret
            if is_ret:
                break
            if len(next_pcs) == 1 and next_pcs[0] == pc + 1:
                pc += 1
                if pc in states:
                    if _join(states, pc, (tuple(stack), assigned), func):
                        worklist.append(pc)
                    break
                continue
            for target in next_pcs:
                if not 0 <= target < len(code):
                    fail(pc, f"branch target {target} out of range")
                if target in states:
                    if _join(states, target, (tuple(stack), assigned),
                             func):
                        worklist.append(target)
                else:
                    states[target] = (tuple(stack), assigned)
                    worklist.append(target)
            break
    if not seen_ret:
        raise BytecodeVerifyError(f"{func.name}: no reachable ret")


def _join(states: Dict[int, _State], pc: int, new: _State,
          func: BytecodeFunction) -> bool:
    """Slot-wise union of ``new``'s stack into ``states[pc]``, and the
    intersection of the assigned sets; True when the state changed
    (the verifier re-queues the target).  Depth mismatch is the one
    unjoinable merge — the stack discipline itself differs."""
    (old, old_assigned), (stack, assigned) = states[pc], new
    if len(old) != len(stack):
        raise BytecodeVerifyError(
            f"{func.name}@{pc}: inconsistent stack at merge "
            f"(depth {len(old)} vs {len(stack)})")
    joined = (tuple(o | n for o, n in zip(old, stack)),
              old_assigned & assigned)
    if joined != states[pc]:
        states[pc] = joined
        return True
    return False


def _step(module, func, pc, instr: BCInstr, stack: List[_Slot],
          assigned: int, fail):
    """Check one instruction against ``stack`` (popped and pushed in
    place) and the ``assigned`` locals; returns the successor pcs, the
    assigned set after it, and whether it returns."""
    op = instr.op

    def pop(expected: Optional[set] = None,
            what: str = "operand") -> FrozenSet[str]:
        if not stack:
            fail(pc, f"stack underflow popping {what}")
        slot = stack.pop()
        if expected is not None and not slot <= expected:
            fail(pc, f"{what} has type {sorted(slot)}, expected one of "
                     f"{sorted(expected)}")
        return slot

    def push(tag: str) -> None:
        stack.append(frozenset((tag,)))

    if op == "const":
        if instr.ty not in TYPE_TAGS:
            fail(pc, f"bad const type {instr.ty}")
        push(instr.ty)
    elif op == "ldarg":
        index = instr.arg
        if not isinstance(index, int) or index >= len(func.param_types):
            fail(pc, f"ldarg index {index} out of range")
        push(func.param_types[index])
    elif op == "ldloc":
        index = instr.arg
        if not isinstance(index, int) or index >= len(func.local_types):
            fail(pc, f"ldloc index {index} out of range")
        if not assigned >> index & 1:
            fail(pc, f"local {index} read before assignment")
        push(func.local_types[index])
    elif op == "stloc":
        index = instr.arg
        if not isinstance(index, int) or index >= len(func.local_types):
            fail(pc, f"stloc index {index} out of range")
        pop({func.local_types[index]}, "stloc value")
        assigned |= 1 << index
    elif op == "frame":
        if not isinstance(instr.arg, int) or \
                instr.arg >= len(func.frame_slots):
            fail(pc, f"frame slot {instr.arg} out of range")
        push("u64")
    elif op in BIN_OPS:
        tag = instr.ty
        if tag not in TYPE_TAGS:
            fail(pc, f"bad operand type {tag}")
        if op in ("and", "or", "xor", "shl", "shr", "rem") and \
                tag in _FLOAT_TAGS:
            fail(pc, f"{op} on float type {tag}")
        pop({tag}, "rhs")
        pop({tag}, "lhs")
        push(tag)
    elif op in UN_OPS:
        tag = instr.ty
        if op == "not" and tag in _FLOAT_TAGS:
            fail(pc, "bitwise not on float")
        pop({tag}, "operand")
        push(tag)
    elif op == "cmp":
        if instr.arg not in CMP_PREDS:
            fail(pc, f"bad predicate {instr.arg}")
        tag = instr.ty
        pop({tag}, "rhs")
        pop({tag}, "lhs")
        push("i32")
    elif op == "cast":
        to_tag = instr.ty
        from_tag = instr.arg
        if to_tag not in TYPE_TAGS or from_tag not in TYPE_TAGS:
            fail(pc, f"bad cast {from_tag} -> {to_tag}")
        pop({from_tag}, "cast operand")
        push(to_tag)
    elif op == "select":
        tag = instr.ty
        pop({tag}, "else value")
        pop({tag}, "then value")
        pop(_INT_TAGS, "condition")
        push(tag)
    elif op == "load":
        pop(_ADDR_TAGS, "address")
        push(instr.ty)
    elif op == "store":
        pop({instr.ty}, "store value")
        pop(_ADDR_TAGS, "address")
    elif op == "call":
        callee = module.functions.get(instr.arg)
        if callee is None:
            fail(pc, f"call to unknown function {instr.arg!r}")
        for expected in reversed(callee.param_types):
            pop({expected}, "argument")
        if callee.ret_type is not None:
            push(callee.ret_type)
    elif op == "pop":
        pop(what="pop")
    elif op == "ret":
        if func.ret_type is not None:
            pop({func.ret_type}, "return value")
        if stack:
            fail(pc, f"stack not empty at ret: {stack}")
        return [], assigned, True
    elif op == "br":
        return [instr.arg], assigned, False
    elif op == "brif":
        pop(_INT_TAGS, "branch condition")
        return [instr.arg, pc + 1], assigned, False
    elif op == "vec.load":
        pop(_ADDR_TAGS, "address")
        push(f"v128:{instr.ty}")
    elif op == "vec.store":
        pop({f"v128:{instr.ty}"}, "vector value")
        pop(_ADDR_TAGS, "address")
    elif op.startswith("vec.") and op[4:] in BIN_OPS:
        tag = f"v128:{instr.ty}"
        if op[4:] in ("and", "or", "xor", "shl", "shr", "rem") and \
                instr.ty in _FLOAT_TAGS:
            fail(pc, f"{op} on float lanes")
        pop({tag}, "rhs")
        pop({tag}, "lhs")
        push(tag)
    elif op == "vec.splat":
        pop({instr.ty}, "scalar")
        push(f"v128:{instr.ty}")
    elif op == "vec.reduce":
        reduce_op, acc_tag = instr.arg
        if reduce_op not in ("add", "max", "min"):
            fail(pc, f"bad reduce op {reduce_op}")
        if acc_tag not in TYPE_TAGS:
            fail(pc, f"bad accumulator tag {acc_tag}")
        if (instr.ty in _INT_TAGS) != (acc_tag in _INT_TAGS):
            fail(pc, "reduce accumulator class mismatch")
        pop({f"v128:{instr.ty}"}, "vector")
        push(acc_tag)
    else:
        fail(pc, f"unknown opcode {op!r}")
    return [pc + 1], assigned, False
