"""IR construction, CFG analyses, liveness and verifier tests."""

import inspect
import re

import pytest

from repro.ir import (
    Branch, Const, IRBuilder, Jump, Move, Ret,
    Function, IRVerifyError, verify_function,
)
from repro.ir.instructions import (
    BinOp, Cast, Cmp, FrameAddr, Load, Select, Store, VBinOp, VLoad,
    VReduce, VSplat, VStore,
)
from repro.ir.values import VecType, VReg
from repro.ir.cfg import (
    dominators, innermost_loops, natural_loops, predecessors,
    reverse_postorder, remove_unreachable,
)
from repro.ir.liveness import analyze, live_ranges, max_live
from repro.lang import types as ty
from tests.support import lower_checked


def build_diamond():
    """if/else diamond: entry -> (a | b) -> join."""
    func = Function("diamond", ty.I32)
    cond = func.new_param(ty.I32, "c")
    entry = func.new_block("entry")
    a = func.new_block("a")
    b = func.new_block("b")
    join = func.new_block("join")
    builder = IRBuilder(func)
    result = func.new_reg(ty.I32, "r")

    builder.set_block(entry)
    builder.branch(cond, a, b)
    builder.set_block(a)
    builder.emit(Move(result, Const(1, ty.I32)))
    builder.jump(join)
    builder.set_block(b)
    builder.emit(Move(result, Const(2, ty.I32)))
    builder.jump(join)
    builder.set_block(join)
    builder.ret(result)
    return func


def build_loop():
    """Simple counted loop CFG."""
    func = Function("loop", ty.I32)
    n = func.new_param(ty.I32, "n")
    entry = func.new_block("entry")
    head = func.new_block("head")
    body = func.new_block("body")
    exit_bb = func.new_block("exit")
    builder = IRBuilder(func)
    i = func.new_reg(ty.I32, "i")

    builder.set_block(entry)
    builder.emit(Move(i, Const(0, ty.I32)))
    builder.jump(head)
    builder.set_block(head)
    cmp = builder.cmp("lt", i, n, ty.I32)
    builder.branch(cmp, body, exit_bb)
    builder.set_block(body)
    next_i = builder.binop("add", i, Const(1, ty.I32), ty.I32)
    builder.emit(Move(i, next_i))
    builder.jump(head)
    builder.set_block(exit_bb)
    builder.ret(i)
    return func


class TestCFG:
    def test_predecessors_diamond(self):
        func = build_diamond()
        preds = predecessors(func)
        assert sorted(preds["join0"[:-1] + "3"]) == ["a1", "b2"] or True
        # Look up by actual labels to stay robust to numbering:
        join = func.blocks[3].label
        assert sorted(preds[join]) == sorted(
            [func.blocks[1].label, func.blocks[2].label])

    def test_reverse_postorder_starts_at_entry(self):
        func = build_loop()
        rpo = reverse_postorder(func)
        assert rpo[0] == func.entry.label
        assert len(rpo) == 4

    def test_dominators_loop(self):
        func = build_loop()
        dom = dominators(func)
        entry, head, body, exit_bb = [b.label for b in func.blocks]
        assert entry in dom[body]
        assert head in dom[body]
        assert head in dom[exit_bb]
        assert body not in dom[exit_bb]

    def test_natural_loop_detection(self):
        func = build_loop()
        loops = natural_loops(func)
        assert len(loops) == 1
        loop = loops[0]
        head, body = func.blocks[1].label, func.blocks[2].label
        assert loop.header == head
        assert loop.body == {head, body}
        assert loop.preheader == func.entry.label

    def test_diamond_has_no_loops(self):
        assert natural_loops(build_diamond()) == []

    def test_innermost_loops_from_source(self):
        module = lower_checked("""
            int nested(int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++)
                        s += i * j;
                return s;
            }""")
        func = module["nested"]
        loops = natural_loops(func)
        inner = innermost_loops(func)
        assert len(loops) == 2
        assert len(inner) == 1
        assert inner[0].body < max(loops, key=lambda l: len(l.body)).body

    def test_remove_unreachable(self):
        func = build_diamond()
        dead = func.new_block("dead")
        builder = IRBuilder(func)
        builder.set_block(dead)
        builder.ret(Const(0, ty.I32))
        assert remove_unreachable(func) == 1
        assert all(b.label != "dead4" for b in func.blocks)


class TestLiveness:
    def test_param_live_into_loop(self):
        func = build_loop()
        info = analyze(func)
        head = func.blocks[1].label
        n = func.params[0]
        assert n in info[head].live_in

    def test_loop_variable_live_around_backedge(self):
        func = build_loop()
        info = analyze(func)
        body = func.blocks[2].label
        i_reg = next(r for r in info[body].use if r.name == "i")
        assert i_reg in info[body].live_out or \
            i_reg in info[func.blocks[1].label].live_in

    def test_live_ranges_cover_defs_and_uses(self):
        func = build_loop()
        ranges = live_ranges(func)
        for reg, (start, end) in ranges.items():
            assert start <= end

    def test_max_live_positive(self):
        assert max_live(build_loop()) >= 2


class TestVerifier:
    def test_accepts_well_formed(self):
        verify_function(build_diamond())
        verify_function(build_loop())

    def test_rejects_missing_terminator(self):
        func = Function("bad", ty.VOID)
        func.new_block("entry")
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_branch_to_unknown_label(self):
        func = Function("bad", ty.VOID)
        block = func.new_block("entry")
        block.append(Jump("nowhere"))
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_type_mismatch_in_binop(self):
        func = Function("bad", ty.I32)
        block = func.new_block("entry")
        builder = IRBuilder(func)
        builder.set_block(block)
        from repro.ir import BinOp
        dst = func.new_reg(ty.I32)
        block.append(BinOp("add", dst, Const(1, ty.I64), Const(2, ty.I32),
                           ty.I32))
        block.append(Ret(dst))
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_use_of_undefined_register(self):
        func = Function("bad", ty.I32)
        block = func.new_block("entry")
        ghost = func.new_reg(ty.I32)
        block.append(Ret(ghost))
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_use_before_single_def_in_block(self):
        func = Function("bad", ty.I32)
        block = func.new_block("entry")
        reg = func.new_reg(ty.I32)
        copy = func.new_reg(ty.I32)
        block.append(Move(copy, reg))
        block.append(Move(reg, Const(1, ty.I32)))
        block.append(Ret(copy))
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_wrong_return_type(self):
        func = Function("bad", ty.F32)
        block = func.new_block("entry")
        block.append(Ret(Const(1, ty.I32)))
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_mid_block_terminator(self):
        func = Function("bad", ty.VOID)
        block = func.new_block("entry")
        block.append(Ret())
        block.append(Ret())
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_lowered_sources_always_verify(self):
        module = lower_checked("""
            int gcd(int a, int b) {
                while (b != 0) { int t = a % b; a = b; b = t; }
                return a;
            }
            double horner(double *c, int n, double x) {
                double acc = 0.0;
                for (int i = n - 1; i >= 0; i--) acc = acc * x + c[i];
                return acc;
            }""")
        assert len(list(module)) == 2   # verification happens in helper


# -- one malformed function per rejection site of the IR verifier ----------

def _entry(ret=ty.I32):
    func = Function("f", ret)
    return func, func.new_block("entry")


def _one(make, ret=ty.I32):
    """``f`` whose entry block holds ``make(func)``'s instructions, then
    ``ret 0``."""
    def build():
        func, block = _entry(ret)
        for instr in make(func):
            block.append(instr)
        block.append(Ret(Const(0, ret)))
        return func
    return build


def _returning(ret, value):
    def build():
        func, block = _entry(ret)
        block.append(Ret(value))
        return func
    return build


I1, L1, F1, U1 = (Const(1, ty.I32), Const(1, ty.I64), Const(1.0, ty.F32),
                  Const(64, ty.U64))
V4, VF = VecType(ty.I32, 4), VecType(ty.F32, 4)


def _no_blocks():
    return Function("f", ty.I32)


def _duplicate_labels():
    func, block = _entry()
    block.append(Ret(I1))
    twin = func.new_block("x")
    twin.label = block.label
    twin.append(Ret(I1))
    return func


def _no_terminator():
    func, block = _entry()
    block.append(Move(func.new_reg(ty.I32), I1))
    return func


def _mid_terminator():
    func, block = _entry()
    block.append(Ret(I1))
    block.append(Ret(I1))
    return func


def _unknown_target():
    func, block = _entry()
    block.append(Jump("nowhere"))
    return func


def _slot_addr(func):
    func.add_frame_slot("s", 8, 8)
    return [FrameAddr(func.new_reg(ty.I32), "s")]


def _register_outside():
    func, block = _entry()
    block.append(Ret(VReg(5, ty.I32)))
    return func


def _shared_id():
    func, block = _entry()
    reg = func.new_reg(ty.I32)
    block.append(Move(reg, I1))
    block.append(Ret(VReg(reg.id, ty.I32)))
    return func


def _undefined():
    func, block = _entry()
    block.append(Ret(func.new_reg(ty.I32)))
    return func


def _not_dominated():
    func, block = _entry()
    cond = func.new_param(ty.I32)
    reg = func.new_reg(ty.I32)
    left, join = func.new_block("l"), func.new_block("j")
    block.append(Branch(cond, left.label, join.label))
    left.append(Move(reg, I1))
    left.append(Jump(join.label))
    join.append(Ret(reg))
    return func


def _before_def():
    func, block = _entry()
    reg, copy = func.new_reg(ty.I32), func.new_reg(ty.I32)
    block.append(Move(copy, reg))
    block.append(Move(reg, I1))
    block.append(Ret(copy))
    return func


def _r(func, reg_ty=ty.I32):
    return func.new_reg(reg_ty)


#: (site, builder of a function the verifier rejects there, message)
IR_REJECTIONS = [
    ("no blocks", _no_blocks, "f: function has no blocks"),
    ("duplicate labels", _duplicate_labels, "f: duplicate block labels"),
    ("no terminator", _no_terminator,
     "f: block entry0 lacks a terminator"),
    ("mid-block terminator", _mid_terminator,
     "f: terminator in the middle of entry0"),
    ("unknown target", _unknown_target,
     "f: branch to unknown block 'nowhere'"),
    ("binop dst",
     _one(lambda f: [BinOp("add", _r(f, ty.I64), I1, I1, ty.I32)]),
     "f: entry0: binop dst type mismatch: %0 = add.i32 1:i32, 1:i32"),
    ("binop operand", _one(lambda f: [BinOp("add", _r(f), L1, I1, ty.I32)]),
     "f: entry0: binop operand type i64 != i32: %0 = add.i32 1:i64, 1:i32"),
    ("binop integer op",
     _one(lambda f: [BinOp("and", _r(f, ty.F32), F1, F1, ty.F32)]),
     "f: entry0: and requires integer type: "
     "%0 = and.f32 1.0:f32, 1.0:f32"),
    ("cmp result",
     _one(lambda f: [Cmp("lt", _r(f, ty.I64), I1, I1, ty.I32)]),
     "f: entry0: cmp result must be i32: %0 = cmp.lt.i32 1:i32, 1:i32"),
    ("cmp operand", _one(lambda f: [Cmp("lt", _r(f), I1, L1, ty.I32)]),
     "f: entry0: cmp operand type mismatch: %0 = cmp.lt.i32 1:i32, 1:i64"),
    ("cast dst", _one(lambda f: [Cast(_r(f), I1, ty.I32, ty.I64)]),
     "f: entry0: cast dst type mismatch: %0 = cast.i32.i64 1:i32"),
    ("cast src", _one(lambda f: [Cast(_r(f, ty.I64), L1, ty.I32, ty.I64)]),
     "f: entry0: cast src type mismatch: %0 = cast.i32.i64 1:i64"),
    ("move", _one(lambda f: [Move(_r(f), L1)]),
     "f: entry0: move type mismatch: %0 = mov 1:i64"),
    ("select dst",
     _one(lambda f: [Select(_r(f, ty.I64), I1, I1, I1, ty.I32)]),
     "f: entry0: select dst type mismatch: "
     "%0 = select.i32 1:i32, 1:i32, 1:i32"),
    ("select operand", _one(lambda f: [Select(_r(f), I1, I1, L1, ty.I32)]),
     "f: entry0: select operand type mismatch: "
     "%0 = select.i32 1:i32, 1:i32, 1:i64"),
    ("select condition",
     _one(lambda f: [Select(_r(f), F1, I1, I1, ty.I32)]),
     "f: entry0: select condition must be an integer: "
     "%0 = select.i32 1.0:f32, 1:i32, 1:i32"),
    ("load dst", _one(lambda f: [Load(_r(f, ty.I64), U1, ty.I32)]),
     "f: entry0: load dst type mismatch: %0 = load.i32 [64:u64]"),
    ("load address", _one(lambda f: [Load(_r(f), I1, ty.I32)]),
     "f: entry0: load address must be u64/i64: %0 = load.i32 [1:i32]"),
    ("store value", _one(lambda f: [Store(U1, L1, ty.I32)]),
     "f: entry0: store value type mismatch: store.i32 [64:u64], 1:i64"),
    ("store address", _one(lambda f: [Store(I1, I1, ty.I32)]),
     "f: entry0: store address must be u64/i64: store.i32 [1:i32], 1:i32"),
    ("frame slot", _one(lambda f: [FrameAddr(_r(f, ty.U64), "s")]),
     "f: entry0: unknown frame slot 's': %0 = frame_addr s"),
    ("frame_addr result", _one(_slot_addr),
     "f: entry0: frame_addr result must be u64: %0 = frame_addr s"),
    ("void returns", _returning(ty.VOID, I1),
     "f: entry0: void function returning a value: ret 1:i32"),
    ("missing return", _returning(ty.I32, None),
     "f: entry0: missing return value: ret"),
    ("return type", _returning(ty.I32, L1),
     "f: entry0: return type i64 != i32: ret 1:i64"),
    ("vload dst", _one(lambda f: [VLoad(_r(f, VF), U1, V4)]),
     "f: entry0: vload dst type mismatch: %0 = vload.<4 x i32> [64:u64]"),
    ("vload address", _one(lambda f: [VLoad(_r(f, V4), I1, V4)]),
     "f: entry0: vload address must be u64/i64: "
     "%0 = vload.<4 x i32> [1:i32]"),
    ("vstore value", _one(lambda f: [VStore(U1, I1, V4)]),
     "f: entry0: vstore value type mismatch: "
     "vstore.<4 x i32> [64:u64], 1:i32"),
    ("vbinop dst",
     _one(lambda f: [VBinOp("add", _r(f, VF), _r(f, V4), _r(f, V4), V4)]),
     "f: entry0: vbinop dst type mismatch: %0 = vadd.<4 x i32> %1, %2"),
    ("vbinop operand",
     _one(lambda f: [VBinOp("add", _r(f, V4), _r(f, V4), I1, V4)]),
     "f: entry0: vbinop operand type mismatch: "
     "%0 = vadd.<4 x i32> %1, 1:i32"),
    ("vsplat dst", _one(lambda f: [VSplat(_r(f, VF), I1, V4)]),
     "f: entry0: vsplat dst type mismatch: %0 = vsplat.<4 x i32> 1:i32"),
    ("vsplat scalar", _one(lambda f: [VSplat(_r(f, V4), L1, V4)]),
     "f: entry0: vsplat scalar type mismatch: "
     "%0 = vsplat.<4 x i32> 1:i64"),
    ("vreduce dst",
     _one(lambda f: [VReduce("add", _r(f, ty.I64), _r(f, V4), V4,
                             ty.I32)]),
     "f: entry0: vreduce dst type mismatch: "
     "%0 = vreduce.add.<4 x i32>->i32 %1"),
    ("vreduce src", _one(lambda f: [VReduce("add", _r(f), I1, V4, ty.I32)]),
     "f: entry0: vreduce src type mismatch: "
     "%0 = vreduce.add.<4 x i32>->i32 1:i32"),
    ("vreduce class",
     _one(lambda f: [VReduce("add", _r(f, ty.F32), _r(f, V4), V4,
                             ty.F32)]),
     "f: entry0: vreduce accumulator class mismatch: "
     "%0 = vreduce.add.<4 x i32>->f32 %1"),
    ("register outside", _register_outside,
     "f: register %5 in entry0 is outside the function's 0 registers"),
    ("shared id", _shared_id,
     "f: two registers share id 0: %0 in entry0 and %0"),
    ("undefined", _undefined, "f: use of undefined register %0 in entry0"),
    ("not dominated", _not_dominated,
     "f: use of %1 in j2 not dominated by its def in l1"),
    ("use before def", _before_def, "f: use of %0 before its def in entry0"),
]


class TestIRVerifierRejects:
    """The IR verifier guards every pass boundary of both compilers:
    each rejection site is reached by a function built in memory, and
    says what it rejected."""

    @pytest.mark.parametrize("site, build, message", IR_REJECTIONS,
                             ids=[row[0] for row in IR_REJECTIONS])
    def test_rejects(self, site, build, message):
        with pytest.raises(IRVerifyError) as info:
            verify_function(build())
        assert str(info.value) == message

    def test_every_site_has_a_row(self):
        """A new rejection site in the verifier needs a row above."""
        from repro.ir import verify
        text = inspect.getsource(verify)
        # less ``def bad(``, ``def _fail(`` and the ``_fail`` in ``bad``
        sites = len(re.findall(r"\bbad\(|\b_fail\(func", text)) - 3
        assert sites == len(IR_REJECTIONS)


class TestContainers:
    def test_shadowed_frame_slots_get_distinct_names(self):
        module = lower_checked("""
            int f(void) {
                int s = 0;
                { int a[2]; a[0] = 1; s += a[0]; }
                { int a[2]; a[0] = 2; s += a[0]; }
                { int a[2]; a[0] = 4; s += a[0]; }
                return s;
            }""")
        assert sorted(module["f"].frame_slots) == ["a", "a.1", "a.2"]

    def test_lookups_and_duplicates_are_refused(self):
        from repro.ir import Module
        func = build_diamond()
        with pytest.raises(KeyError):
            func.block("nowhere")
        module = Module("m")
        module.add(func)
        with pytest.raises(ValueError, match="duplicate function "
                                             "'diamond'"):
            module.add(build_diamond())

    def test_builder_refuses_code_after_a_terminator(self):
        func = Function("f", ty.I32)
        builder = IRBuilder(func)
        builder.set_block(func.new_block("entry"))
        builder.ret(Const(0, ty.I32))
        with pytest.raises(AssertionError, match="emitting into "
                                                 "terminated block entry0"):
            builder.emit(Move(func.new_reg(ty.I32), Const(1, ty.I32)))

    def test_vectors_are_sixteen_bytes(self):
        with pytest.raises(AssertionError, match="vector must be 16 "
                                                 "bytes"):
            VecType(ty.I32, 3)

    def test_loop_repr_lists_its_blocks(self):
        [loop] = natural_loops(build_loop())
        assert repr(loop) == (f"Loop(header={loop.header}, "
                              f"blocks={sorted(loop.body)})")
