"""One differential table for the vector ops, both engines, every
executor: ``vbin`` / ``vec.<op>`` for every ``(op, elem)`` the lane
kernels take, at the op's own lane count, plus ``vsplat``, ``vload`` /
``vstore`` and ``vreduce`` (``add`` / ``max`` / ``min``, float and
integer accumulators).

Each shape is run with its lane counts proven (loads in the block) and
not (a vector argument; on the simulator also a register another block
wrote, on the VM a local whose lanes the facts prove), with a lane-count
mismatch, and once inside a counted loop's latch.  The rows put an f32
overflow, an integer zero divisor or a NaN in one lane; every lane holds
a different value, so a lane computed out of its place, or an operand
order swapped, changes what is stored.  Each row compares, per engine
and executor, the value (``repr``: NaN), the whole heap, the
instruction count (and the simulator's cycles), and the trap's class
and message — modelled on ``tests/test_tiers.py::reduce_outcomes``."""

from __future__ import annotations

import re

import pytest

from repro.bytecode.module import BytecodeFunction, BytecodeModule
from repro.bytecode.opcodes import BCInstr, BIN_OPS, TYPE_TAGS
from repro.engine import REFERENCE, TIER2
from repro.ir.values import VecType
from repro.lang import types as ty
from repro.semantics import Memory
from repro.targets import Simulator
from repro.targets.isa import CompiledFunction, CompiledModule, MInst
from repro.vm import VM, threaded
from tests.support import generated_sources
from tests.test_engine_differential import (
    ENGINES, assert_engines_agree as assert_agree,
)

NAN = float("nan")
ELEMS = tuple(TYPE_TAGS)


def natural(tag: str) -> int:
    return 16 // ty.sizeof(TYPE_TAGS[tag])


def lanes(tag: str, count: int, salt: int, nonzero: bool = False):
    """``count`` distinct values of ``tag``, at its wrap boundaries."""
    elem = TYPE_TAGS[tag]
    if isinstance(elem, ty.FloatType):
        base = [1.5, -2.25, 3.0, 0.5, -7.75, 100.0, 0.125, -0.0]
        return [base[(i + salt) % 8] * (salt + 1) for i in range(count)]
    lo, hi = ((-(1 << elem.bits - 1), (1 << elem.bits - 1) - 1)
              if elem.signed else (0, (1 << elem.bits) - 1))
    base = [hi, lo, 1, 3, hi - 1, lo + 2, 7, 2, 5, hi - 4, lo + 9, 11,
            13, 6, 4, 9]
    out = [base[(i + 3 * salt) % 16] for i in range(count)]
    return [v or 12 for v in out] if nonzero else out


def rows(op: str, tag: str):
    """``(name, a lanes, b lanes)`` of one ``(op, elem)``."""
    k = natural(tag)
    elem = TYPE_TAGS[tag]
    division = op in ("div", "rem") and isinstance(elem, ty.IntType)
    a, b = lanes(tag, k, 0), lanes(tag, k, 1, nonzero=division)
    out = [("mixed", a, b)]
    if division:
        for lane in (1, k - 1):
            zero = list(b)
            zero[lane] = 0
            out.append((f"zero divisor in lane {lane}", a, zero))
    if isinstance(elem, ty.FloatType):
        nan_a, nan_b = list(a), list(b)
        nan_a[0], nan_b[-1] = NAN, NAN
        out.append(("NaN first and last", nan_a, nan_b))
    if tag == "f32" and op in ("add", "sub", "mul"):
        for lane in (1, k - 1):
            big_a, big_b = list(a), list(b)
            big_a[lane] = 3e38
            big_b[lane] = {"add": 3e38, "sub": -3e38, "mul": 10.0}[op]
            out.append((f"f32 overflow in lane {lane}", big_a, big_b))
    return out


# ---------------------------------------------------------------------------
# the VM's shapes: bytecode, arguments built in a fresh memory
# ---------------------------------------------------------------------------

def I(op, ty_=None, arg=None):
    return BCInstr(op, ty_, arg)


def vm_module(params, code, ret="i32", local_types=()):
    module = BytecodeModule()
    module.add(BytecodeFunction("f", list(params), ret,
                                local_types=list(local_types), code=code))
    return module


def vm_binop(op, tag, shape):
    """``c = a op b`` on the VM; ``shape`` says where ``b`` comes from."""
    vop = f"vec.{op}"
    tail = [I(vop, tag), I("vec.store", tag), I("const", "i32", 0),
            I("ret")]
    if shape == "proven":
        return vm_module(["u64"] * 3, [
            I("ldarg", None, 2), I("ldarg", None, 0), I("vec.load", tag),
            I("ldarg", None, 1), I("vec.load", tag), *tail])
    if shape == "local":        # lanes the facts prove, from a prior block
        return vm_module(["u64"] * 3, [
            I("ldarg", None, 1), I("vec.load", tag), I("stloc", None, 0),
            I("br", None, 4),
            I("ldarg", None, 2), I("ldarg", None, 0), I("vec.load", tag),
            I("ldloc", None, 0), *tail], local_types=[f"v128:{tag}"])
    if shape == "argument":     # lanes no one proves
        return vm_module(["u64", f"v128:{tag}", "u64"], [
            I("ldarg", None, 2), I("ldarg", None, 0), I("vec.load", tag),
            I("ldarg", None, 1), *tail])
    if shape == "arguments":    # neither operand proven
        return vm_module([f"v128:{tag}", f"v128:{tag}", "u64"], [
            I("ldarg", None, 2), I("ldarg", None, 0), I("ldarg", None, 1),
            *tail])
    assert shape == "loop"

    def address(base):
        return [I("ldarg", None, base), I("ldloc", None, 0),
                I("cast", "u64", "i32"), I("const", "u64", 16),
                I("mul", "u64"), I("add", "u64")]
    return vm_module(["u64", "u64", "u64", "i32"], [
        I("const", "i32", 0), I("stloc", None, 0),
        I("ldloc", None, 0), I("ldarg", None, 3), I("cmp", "i32", "lt"),
        I("brif", None, 8), I("const", "i32", 0), I("ret"),
        *address(2), *address(0), I("vec.load", tag),
        *address(1), I("vec.load", tag), I(vop, tag), I("vec.store", tag),
        I("ldloc", None, 0), I("const", "i32", 1), I("add", "i32"),
        I("stloc", None, 0), I("br", None, 2)], local_types=["i32"])


def built(module, engine):
    """A ``tier2`` run ran tier-2: its build returned a function (a
    build that fails leaves the function on the block tier, which
    would agree with the reference without tier-2 being asked)."""
    if engine == TIER2:
        pre = module.functions["f"]._predecode_cache[2]
        assert callable(pre.tier2()), "tier-2 build failed"


def vm_run(module, build, engine):
    memory = Memory()
    args = build(memory)
    vm = VM(module, memory=memory, engine=engine, verify=False)
    try:
        outcome = ("ok", repr(vm.call("f", args)))
    except Exception as exc:
        outcome = (type(exc).__name__, str(exc))
    built(module, engine)
    return (*outcome, vm.instructions_executed, bytes(memory.data))


def agree(run, module, build, context):
    """The outcome every executor agrees on (the reference's)."""
    outcomes = {engine: run(module, build, engine) for engine in ENGINES}
    assert_agree(outcomes, context)
    return outcomes[REFERENCE]


def binop_args(tag, shape, a, b, first=None):
    """Arguments of one row; a loop runs ``first`` (a clean row) on its
    first trip and the row on its second, so a trap in the row rolls
    back through a whole trip."""
    elem = TYPE_TAGS[tag]
    k = natural(tag)
    if shape == "loop":
        a, b = first[0] + a, first[1] + b

    def build(memory):
        pa = memory.alloc_array(elem, a)
        pb = memory.alloc_array(elem, b)
        pc = memory.alloc_array(elem, [0] * len(a))
        if shape == "argument":
            return [pa, list(b), pc]
        if shape == "arguments":
            return [list(a), list(b), pc]
        return [pa, pb, pc] + ([len(a) // k] if shape == "loop" else [])
    return build


VM_SHAPES = ("proven", "local", "argument", "arguments", "loop")


@pytest.mark.parametrize("op", BIN_OPS)
def test_vm_binop_table(op):
    for tag in ELEMS:
        k = natural(tag)
        for shape in VM_SHAPES:
            module = vm_binop(op, tag, shape)
            clean = rows(op, tag)[0][1:]
            for name, a, b in rows(op, tag):
                build = binop_args(tag, shape, a, b, clean)
                agree(vm_run, module, build, f"{op} {tag} {shape} {name}")
        # a lane-count mismatch, and one shared count the op's is not
        short = lanes(tag, k - 1 or 2, 2, nonzero=True)
        for shape, a in (("argument", lanes(tag, k, 0)),
                         ("arguments", short)):
            kind, text, *_ = agree(
                vm_run, vm_binop(op, tag, shape),
                binop_args(tag, shape, a, lanes(tag, k + 1, 1, True)),
                f"{op} {tag} {shape} mismatch")
            assert (kind, text) == ("TrapError", "vector lane count mismatch")
        agree(vm_run, vm_binop(op, tag, "arguments"),
              binop_args(tag, "arguments", short,
                         lanes(tag, len(short), 1, True)),
              f"{op} {tag} arguments of {len(short)} lanes")


# ---------------------------------------------------------------------------
# the simulator's shapes
# ---------------------------------------------------------------------------

def M(op, ty_=None, dst=None, srcs=(), arg=None):
    return MInst(op, ty_, dst, list(srcs), arg, cost=2)


def sim_module(code, param_locs):
    module = CompiledModule("x86")
    module.add(CompiledFunction(name="f", target_name="x86", code=code,
                                frame_bytes=0, param_locs=param_locs,
                                ret_void=False))
    return module


RET0 = [M("mov", None, ("int", 0), [("imm", 0)]),
        M("ret", None, None, [("int", 0)])]


def sim_binop(op, tag, shape):
    elem = TYPE_TAGS[tag]
    v = VecType(elem, natural(tag))
    tail = [M("vbin", v, ("vec", 2), [("vec", 0), ("vec", 1)], op),
            M("vstore", v, None, [("int", 3), ("vec", 2)]), *RET0]
    ints = [("int", 1), ("int", 2), ("int", 3)]
    if shape == "proven":
        return sim_module([M("vload", v, ("vec", 0), [("int", 1)]),
                           M("vload", v, ("vec", 1), [("int", 2)]),
                           *tail], ints)
    if shape == "block":        # ``b`` from a block before
        return sim_module([M("vload", v, ("vec", 1), [("int", 2)]),
                           M("br", None, None, [], 2),
                           M("vload", v, ("vec", 0), [("int", 1)]),
                           *tail], ints)
    if shape == "argument":
        return sim_module([M("vload", v, ("vec", 0), [("int", 1)]), *tail],
                          [("int", 1), ("vec", 1), ("int", 3)])
    if shape == "arguments":
        return sim_module(tail, [("vec", 0), ("vec", 1), ("int", 3)])
    assert shape == "loop"

    def at(base, dst):
        return M("bin", ty.U64, ("int", dst), [("int", 7), ("int", base)],
                 "add")
    return sim_module([
        M("mov", None, ("int", 0), [("imm", 0)]),
        M("cmp", ty.I32, ("int", 5), [("int", 0), ("int", 4)], "lt"),
        M("brif", None, None, [("int", 5)], 4),
        M("ret", None, None, [("int", 6)]),
        M("bin", ty.U64, ("int", 7), [("int", 0), ("imm", 16)], "mul"),
        at(1, 8), M("vload", v, ("vec", 0), [("int", 8)]),
        at(2, 9), M("vload", v, ("vec", 1), [("int", 9)]),
        M("vbin", v, ("vec", 2), [("vec", 0), ("vec", 1)], op),
        at(3, 10), M("vstore", v, None, [("int", 10), ("vec", 2)]),
        M("bin", ty.I32, ("int", 0), [("int", 0), ("imm", 1)], "add"),
        M("br", None, None, [], 1)],
        [("int", 1), ("int", 2), ("int", 3), ("int", 4), ("int", 6)])


def sim_run(module, build, engine):
    memory = Memory()
    args = build(memory)
    sim = Simulator(module, memory, engine=engine)
    try:
        result = sim.run("f", args)
        outcome = ("ok", repr(result.value), result.cycles,
                   result.branches)
    except Exception as exc:
        outcome = (type(exc).__name__, str(exc))
    built(module, engine)
    return (*outcome, sim._executed, bytes(memory.data))


def sim_args(tag, shape, a, b, first=None):
    build = binop_args(tag, "proven" if shape == "block" else shape, a, b,
                       first)
    if shape != "loop":
        return build
    return lambda memory: build(memory) + [0]


SIM_SHAPES = ("proven", "block", "argument", "arguments", "loop")


@pytest.mark.parametrize("op", BIN_OPS)
def test_sim_binop_table(op):
    for tag in ELEMS:
        k = natural(tag)
        for shape in SIM_SHAPES:
            module = sim_binop(op, tag, shape)
            clean = rows(op, tag)[0][1:]
            for name, a, b in rows(op, tag):
                build = sim_args(tag, shape, a, b, clean)
                agree(sim_run, module, build, f"{op} {tag} {shape} {name}")
        short = lanes(tag, k - 1 or 2, 2, nonzero=True)
        for shape, a in (("argument", lanes(tag, k, 0)),
                         ("arguments", short)):
            kind, text, *_ = agree(
                sim_run, sim_binop(op, tag, shape),
                sim_args(tag, shape, a, lanes(tag, k + 1, 1, True)),
                f"{op} {tag} {shape} mismatch")
            assert (kind, text) == ("TrapError", "vector lane count mismatch")
        agree(sim_run, sim_binop(op, tag, "arguments"),
              sim_args(tag, "arguments", short,
                       lanes(tag, len(short), 1, True)),
              f"{op} {tag} arguments of {len(short)} lanes")


@pytest.mark.parametrize("tag", ["f32", "i32", "f64"])
def test_vm_stack_corners(tag):
    """A dropped result still traps (an f32 batch rounds even when no
    one reads it), and a vector read from a local the block then
    overwrites keeps the value it read — also where it was first
    stored in a local no other block reads."""
    elem, k = TYPE_TAGS[tag], natural(tag)
    dropped = vm_module(["u64", "u64"], [
        I("ldarg", None, 0), I("vec.load", tag), I("ldarg", None, 1),
        I("vec.load", tag), I("vec.add", tag), I("pop"),
        I("const", "i32", 0), I("ret")])
    for row in (lanes(tag, k, 0), [3e38] * k):
        if isinstance(elem, ty.IntType):
            row = lanes(tag, k, 1)

        def build(memory, row=row):
            return [memory.alloc_array(elem, row),
                    memory.alloc_array(elem, row)]
        agree(vm_run, dropped, build, f"dropped {tag} {row}")
    overwritten = vm_module(["u64", "u64"], [
        I("ldarg", None, 0), I("vec.load", tag), I("stloc", None, 0),
        I("br", None, 4),
        I("ldarg", None, 1), I("ldloc", None, 0), I("ldloc", None, 0),
        I("ldloc", None, 0), I("vec.add", tag), I("stloc", None, 0),
        I("vec.store", tag), I("ldloc", None, 0), I("vec.reduce", tag,
                                                     ("add", tag)),
        I("ret")], ret=tag, local_types=[f"v128:{tag}"])
    outcome = agree(vm_run, overwritten, lambda memory: [
        memory.alloc_array(elem, lanes(tag, k, 0)),
        memory.alloc_array(elem, [0] * k)], f"overwritten {tag}")
    assert outcome[0] == "ok"
    # ``prev = cur; cur = load(...); store(prev)``: local 3 is read
    # before this block writes it, local 5 is the block's own; and the
    # same with a splat of a scalar local
    for name, code in (
            ("vector", [I("ldloc", None, 3), I("stloc", None, 5),
                        I("ldarg", None, 0), I("vec.load", tag),
                        I("stloc", None, 3)]),
            ("splat", [I("ldloc", None, 2), I("vec.splat", tag),
                       I("stloc", None, 5), I("ldarg", None, 0),
                       I("load", tag), I("stloc", None, 2)])):
        aliased = vm_module(["u64", "u64"], [
            *code, I("ldarg", None, 1), I("ldloc", None, 5),
            I("vec.store", tag), I("const", "i32", 0), I("ret")],
            local_types=[tag] * 3 + [f"v128:{tag}"] * 3)
        outcome = agree(vm_run, aliased, lambda memory: [
            memory.alloc_array(elem, lanes(tag, k, 0)),
            memory.alloc_array(elem, lanes(tag, k, 1))],
            f"{name} read before the local is written {tag}")
        assert outcome[0] == "ok" and not any(outcome[-1][-16:])
    # an f32 batch kept in a local a later block reads, stored (the
    # local reads the stored lanes back), stored at once, stored as
    # another type, and left in a local at a void return; an overflow
    # traps before the store reads a vector "address" (with no
    # overflow, the reference's TypeError there names ``&=`` and the
    # generated code's ``&``)
    both = [I("ldarg", None, 0), I("vec.load", tag), I("ldarg", None, 1),
            I("vec.load", tag), I("vec.add", tag)]
    kept = vm_module(["u64", "u64", "u64"], [
        *both, I("stloc", None, 0), I("ldarg", None, 2),
        I("ldloc", None, 0), I("vec.store", tag), I("br", None, 10),
        I("ldloc", None, 0), I("vec.reduce", tag, ("max", tag)),
        I("ret")], ret=tag, local_types=[f"v128:{tag}"])
    stored = vm_module(["u64", "u64", "u64"], [
        I("ldarg", None, 2), *both, I("vec.store", tag),
        I("const", "i32", 0), I("ret")])
    retyped = vm_module(["u64", "u64", "u64"], [
        I("ldarg", None, 2), *both, I("vec.store", "i32"),
        I("const", "i32", 0), I("ret")])
    vector_address = vm_module(["u64", "u64", "u64"], [
        I("ldarg", None, 2), I("vec.load", tag), *both, I("vec.store", tag),
        I("const", "i32", 0), I("ret")])
    void = vm_module(["u64", "u64", "u64"], [
        *both, I("stloc", None, 0), I("ret")], ret=None,
        local_types=[f"v128:{tag}"])
    for row in (lanes(tag, k, 0), [3e38] * k):
        if isinstance(elem, ty.IntType):
            row = lanes(tag, k, 1)

        def build(memory, row=row):
            return [memory.alloc_array(elem, row),
                    memory.alloc_array(elem, row[::-1]),
                    memory.alloc_array(elem, [0] * k)]
        for name, module in (("kept", kept), ("stored", stored),
                             ("retyped", retyped), ("void", void)):
            kind, *_ = agree(vm_run, module, build, f"{name} {tag} {row}")
            assert kind in ("ok", "OverflowError"), (name, kind)
        if kind == "OverflowError":
            kind, *_ = agree(vm_run, vector_address, build,
                             f"vector address {tag} {row}")
            assert kind == "OverflowError"


@pytest.mark.parametrize("tag", ["f32", "i32"])
def test_sim_tuples_stay_in_vector_registers(tag):
    """Tier-2 keeps a vector register a tuple; whatever reads it other
    than a vector op — a copy to another register file, a scalar
    store, a splat, a return — reads the list the other executors
    hold, as does a vector op's result in a scalar register."""
    elem, k = TYPE_TAGS[tag], natural(tag)
    v = VecType(elem, k)
    load = M("vload", v, ("vec", 0), [("int", 1)])
    ret = M("ret", None, None, [("int", 0)])
    programs = {
        "mov": [load, M("mov", None, ("int", 0), [("vec", 0)]), ret],
        "ret": [load, M("ret", None, None, [("vec", 0)])],
        "select": [load, M("select", None, ("int", 0),
                           [("int", 1), ("vec", 0), ("int", 1)]), ret],
        "store": [load, M("store", elem, None, [("int", 1), ("vec", 0)]),
                  *RET0],
        "splat": [load, M("vsplat", v, ("vec", 1), [("vec", 0)]),
                  M("vstore", v, None, [("int", 1), ("vec", 1)]), *RET0],
        "scalar destination": [M("vload", v, ("int", 0), [("int", 1)]),
                               ret],
    }
    for name, code in programs.items():
        agree(sim_run, sim_module(code, [("int", 1)]),
              lambda memory: [memory.alloc_array(elem, lanes(tag, k, 0))],
              f"{name} {tag}")


def test_lane_order_is_observable():
    """The table can tell lanes apart: a swapped operand or a lane
    computed in another's place changes what ``mixed`` stores."""
    for op in ("sub", "shl", "div", "min"):
        for tag in ELEMS:
            _, a, b = rows(op, tag)[0]
            build = binop_args(tag, "proven", a, b)
            run = vm_run(vm_binop(op, tag, "proven"), build, REFERENCE)
            swapped = vm_run(vm_binop(op, tag, "proven"),
                             binop_args(tag, "proven", b, a), REFERENCE)
            turned = vm_run(vm_binop(op, tag, "proven"),
                            binop_args(tag, "proven", a[::-1], b[::-1]),
                            REFERENCE)
            if run[0] == "ok":
                assert run[-1] != turned[-1], (op, tag)
                if op != "min":
                    assert run[-1] != swapped[-1], (op, tag)


# ---------------------------------------------------------------------------
# splat, load / store, reduce
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tag", ELEMS)
def test_splat_load_store_table(tag):
    elem, k = TYPE_TAGS[tag], natural(tag)
    v = VecType(elem, k)
    values = lanes(tag, k, 0)
    scalar = values[1]

    def memory_with(memory, source):
        return (memory.alloc_array(elem, source),
                memory.alloc_array(elem, [0] * k))

    vm_cases = {
        "splat": (vm_module([tag, "u64"], [
            I("ldarg", None, 1), I("ldarg", None, 0), I("vec.splat", tag),
            I("vec.store", tag), I("const", "i32", 0), I("ret")]),
            lambda memory: [scalar, memory.alloc_array(elem, [0] * k)]),
        "copy": (vm_module(["u64", "u64"], [
            I("ldarg", None, 1), I("ldarg", None, 0), I("vec.load", tag),
            I("vec.store", tag), I("const", "i32", 0), I("ret")]),
            lambda memory: list(memory_with(memory, values))),
        "store argument": (vm_module([f"v128:{tag}", "u64"], [
            I("ldarg", None, 1), I("ldarg", None, 0), I("vec.store", tag),
            I("const", "i32", 0), I("ret")]),
            lambda memory: [list(values), memory_with(memory, values)[1]]),
        "store short argument": (vm_module([f"v128:{tag}", "u64"], [
            I("ldarg", None, 1), I("ldarg", None, 0), I("vec.store", tag),
            I("const", "i32", 0), I("ret")]),
            lambda memory: [values[:-1], memory_with(memory, values)[1]]),
        "out of bounds": (vm_module(["u64", "u64"], [
            I("ldarg", None, 1), I("ldarg", None, 0), I("vec.load", tag),
            I("vec.store", tag), I("const", "i32", 0), I("ret")]),
            lambda memory: [memory_with(memory, values)[0], 8]),
    }
    for name, (module, build) in vm_cases.items():
        agree(vm_run, module, build, f"{tag} {name}")
    sim_cases = {
        "splat": (sim_module([
            M("vsplat", v, ("vec", 0), [("int", 1)]),
            M("vstore", v, None, [("int", 2), ("vec", 0)]), *RET0],
            [("int", 1), ("int", 2)]),
            lambda memory: [scalar, memory.alloc_array(elem, [0] * k)]),
        "copy": (sim_module([
            M("vload", v, ("vec", 0), [("int", 1)]),
            M("vstore", v, None, [("int", 2), ("vec", 0)]), *RET0],
            [("int", 1), ("int", 2)]),
            lambda memory: list(memory_with(memory, values))),
        "returned": (sim_module([
            M("vload", v, ("vec", 0), [("int", 1)]),
            M("ret", None, None, [("vec", 0)])], [("int", 1), ("int", 2)]),
            lambda memory: list(memory_with(memory, values))),
        "store short argument": (sim_module([
            M("vstore", v, None, [("int", 2), ("vec", 0)]), *RET0],
            [("vec", 0), ("int", 2)]),
            lambda memory: [values[:-1], memory_with(memory, values)[1]]),
        "out of bounds": (sim_module([
            M("vload", v, ("vec", 0), [("int", 1)]),
            M("vstore", v, None, [("int", 2), ("vec", 0)]), *RET0],
            [("int", 1), ("int", 2)]),
            lambda memory: [memory_with(memory, values)[0], 8]),
    }
    for name, (module, build) in sim_cases.items():
        outcome = agree(sim_run, module, build, f"{tag} {name}")
        if name == "returned":      # a list, as the reference returns
            assert outcome[1] == repr(values), outcome


#: reduce rows: lanes whose left fold differs from any other order
#: (a sum that rounds, zeros of both signs a ``max`` / ``min`` keeps
#: the first of), NaN first / middle / last, and an f32 sum that
#: overflows
REDUCE_ROWS = {
    "f32": [[1e8, 1.0, -1e8, 1.0], [NAN, 1.0, 2.0, 3.0],
            [1.0, NAN, 3.0, 2.0], [3.0, 1.0, 2.0, NAN],
            [3e38, 3e38, -3e38, 1.0], [0.0, -0.0, 0.0, -0.0],
            [-5.0, 0.0, -0.0, -7.0], [5.0, -0.0, 0.0, 7.0]],
    "f64": [[1e16, 1.0], [NAN, 1.0], [1.0, NAN], [-0.0, 0.0],
            [0.0, -0.0], [1e308, 1e308]],
    "i8": [[127] * 16, [-128, 127] * 8], "u8": [[255] * 16, [0, 255] * 8],
    "i16": [[32767, -32768, 1, 2, 3, 4, 5, 6]],
    "u16": [[65535] * 8], "i32": [[2 ** 31 - 1, -2 ** 31, -1, 1]],
    "u32": [[2 ** 32 - 1, 0, 7, 8]], "i64": [[2 ** 63 - 1, 1]],
    "u64": [[2 ** 64 - 1, 2]],
}


def reduce_accs(tag):
    elem = TYPE_TAGS[tag]
    if isinstance(elem, ty.FloatType):
        return (tag, "f64") if tag == "f32" else (tag,)
    return (tag, "i64", "f64")


@pytest.mark.parametrize("op", ["add", "max", "min"])
def test_reduce_table(op):
    """Proven lanes (a load) and not (an argument, and an argument of
    another count): the unrolled fold, the builtin and the kernel loop
    agree with the reference, value and count."""
    for tag, rows_ in REDUCE_ROWS.items():
        elem, k = TYPE_TAGS[tag], natural(tag)
        v = VecType(elem, k)
        for acc in reduce_accs(tag):
            proven = vm_module(["u64"], [
                I("ldarg", None, 0), I("vec.load", tag),
                I("vec.reduce", tag, (op, acc)), I("ret")], ret=acc)
            loose = vm_module([f"v128:{tag}"], [
                I("ldarg", None, 0), I("vec.reduce", tag, (op, acc)),
                I("ret")], ret=acc)
            sim_proven = sim_module([
                M("vload", v, ("vec", 0), [("int", 1)]),
                M("vreduce", v, ("int", 0), [("vec", 0)],
                  (op, TYPE_TAGS[acc])),
                M("ret", None, None, [("int", 0)])], [("int", 1)])
            sim_loose = sim_module([
                M("vreduce", v, ("int", 0), [("vec", 1)],
                  (op, TYPE_TAGS[acc])),
                M("ret", None, None, [("int", 0)])], [("vec", 1)])
            for row in [*rows_, lanes(tag, k, 3)]:
                context = f"{op} {tag}->{acc} {row}"

                def stored(memory, row=row):
                    return [memory.alloc_array(elem, row)]
                agree(vm_run, proven, stored, context)
                agree(sim_run, sim_proven, stored, context)
                for given in (row, row[:-1], []):
                    agree(vm_run, loose, lambda memory: [list(given)],
                          f"{context} argument {given}")
                    agree(sim_run, sim_loose, lambda memory: [list(given)],
                          f"{context} argument {given}")


# ---------------------------------------------------------------------------
# what the corpus' vector loops compile to
# ---------------------------------------------------------------------------

#: a lane kernel ``v<n>(`` or a reduce kernel ``k<n>(`` call
KERNEL_CALL = re.compile(r"\b[vk]\d+\(")


def counted_bodies(source: str):
    """The body lines of every counted loop (``for <iv> in range``) of
    a tier-2 source, each with the lane-guard arm it sits in: ``None``
    at the loop body's own level, else the guard's ``if`` or ``else``."""
    lines = source.split("\n")
    for start, line in enumerate(lines):
        if not re.match(r"^ +for \w+ in range\(", line):
            continue
        depth = len(line) - len(line.lstrip())
        arms = []           # (indent, "if" | "else") of open lane guards
        for body in lines[start + 1:]:
            indent = len(body) - len(body.lstrip())
            if indent <= depth:
                break
            while arms and indent <= arms[-1][0]:
                arms.pop()
            text = body.strip()
            if re.match(r"if len\(\w+\) == \d+", text):
                arms.append((indent, "if"))
            elif text == "else:" and arms is not None:
                arms.append((indent, "else"))
            yield text, arms[-1][1] if arms else None


def test_corpus_vector_loops_call_no_kernel():
    """In the split flow's tier-2 sources of ``dscal_fp`` and ``sdot``
    on x86, arm (the simulator) and wasm32 (the VM), a counted loop's
    body calls no lane or reduce kernel but in the fallback arm of a
    lane guard; and it has such loops."""
    sources = generated_sources()
    seen = 0
    for kernel in ("dscal_fp", "sdot"):
        for target in ("x86", "arm", "wasm32"):
            (source,) = [text for (name, flow, where, filename), text
                         in sources.items()
                         if (name, flow, where) == (kernel, "split", target)
                         and "-t2:" in filename]
            for text, arm in counted_bodies(source):
                seen += 1
                if KERNEL_CALL.search(text):
                    assert arm == "else", (kernel, target, text, source)
    assert seen


def test_no_kernel_call_per_trip_in_a_proven_vm_loop(monkeypatch):
    """The VM latch of the table's loop shape: loads prove every lane,
    so the body has no lane guard and no kernel call at all."""
    captured = {}
    real = compile

    def spy(source, filename, mode):
        captured[filename] = source
        return real(source, filename, mode)

    from repro import tiers
    monkeypatch.setattr(tiers, "compile", spy, raising=False)
    for op, tag in (("add", "i32"), ("mul", "f64"), ("add", "f32"),
                    ("max", "u8")):
        captured.clear()
        a, b = lanes(tag, natural(tag), 0), lanes(tag, natural(tag), 1)
        agree(vm_run, vm_binop(op, tag, "loop"),
              binop_args(tag, "loop", a * 2, b * 2, (a, b)),
              f"{op} {tag} loop")
        source = captured["<pvi-t2:f>"]
        body = [text for text, _ in counted_bodies(source)]
        assert body, source
        assert not any(KERNEL_CALL.search(text) or "len(" in text
                       for text in body), source
    assert threaded.tier2_build_stats()["loops_counted"]
