"""Unit tests for individual offline optimization passes."""

import pytest

from repro.frontend import lower_source
from repro.ir import (
    BinOp, Branch, Cmp, Const, Jump, Load, Move, Ret, Select, Store,
    format_function, verify_function,
)
from repro.ir.cfg import natural_loops
from repro.lang import types as ty
from repro.opt import (
    PassManager, cleanup_passes, constfold, copyprop, cse, dce,
    simplify_cfg, standard_passes, strength_reduce,
)
from repro.opt.ifconvert import if_convert
from repro.opt.licm import licm
from repro.opt.loops import find_counted_loops
from tests.support import lower_checked


def cleaned(source, name=None):
    module = lower_source(source)
    for func in module:
        PassManager(cleanup_passes(), verify=True).run(func)
    return module[name] if name else next(iter(module))


def optimized(source, name=None):
    module = lower_source(source)
    for func in module:
        PassManager(standard_passes(), verify=True).run(func)
    return module[name] if name else next(iter(module))


def all_instrs(func):
    return list(func.instructions())


class TestConstFold:
    def test_folds_constant_expression(self):
        func = cleaned("int f(void) { return 2 * 21 + (7 - 7); }")
        ret = func.entry.terminator
        assert isinstance(ret.value, Const)
        assert ret.value.value == 42

    def test_folds_constant_branch(self):
        func = cleaned("int f(int x) { if (1 < 2) return x; return -x; }")
        # The false arm must be gone entirely.
        assert all(not isinstance(i, Branch) for i in all_instrs(func))

    def test_preserves_division_by_zero_trap(self):
        func = cleaned("int f(void) { return 1 / 0; }")
        assert any(isinstance(i, BinOp) and i.op == "div"
                   for i in all_instrs(func))

    def test_mul_by_zero_simplifies(self):
        func = cleaned("int f(int x) { return x * 0; }")
        ret = func.entry.terminator
        assert isinstance(ret.value, Const) and ret.value.value == 0

    def test_add_zero_identity(self):
        func = cleaned("int f(int x) { return x + 0; }")
        assert not any(isinstance(i, BinOp) for i in all_instrs(func))

    def test_float_identity_not_applied(self):
        # x + 0.0 must NOT be simplified (x could be -0.0).
        func = cleaned("double f(double x) { return x + 0.0; }")
        assert any(isinstance(i, BinOp) and i.op == "add"
                   for i in all_instrs(func))

    def test_xor_self_is_zero(self):
        func = cleaned("int f(int x) { return x ^ x; }")
        ret = func.entry.terminator
        assert isinstance(ret.value, Const) and ret.value.value == 0


class TestCopyPropAndDCE:
    def test_snapshot_movs_removed(self):
        func = cleaned("int f(int a, int b) { return a + b; }")
        assert not any(isinstance(i, Move) for i in all_instrs(func))

    def test_dead_computation_removed(self):
        func = cleaned("""
            int f(int x) {
                int unused = x * 37 + 5;
                return x;
            }""")
        assert not any(isinstance(i, BinOp) for i in all_instrs(func))

    def test_stores_never_removed(self):
        func = cleaned("void f(int *p) { *p = 1; }")
        assert any(isinstance(i, Store) for i in all_instrs(func))

    def test_chained_copies_collapse(self):
        func = cleaned("""
            int f(int x) {
                int a = x; int b = a; int c = b;
                return c;
            }""")
        ret = [b for b in func.blocks if b.terminator and
               b.terminator.srcs][-1].terminator
        assert ret.value == func.params[0]


class TestCSE:
    def test_duplicate_address_computation_shared(self):
        func = cleaned("""
            void f(float *y, float a, int i) {
                y[i] = y[i] * a;
            }""")
        muls = [i for i in all_instrs(func)
                if isinstance(i, BinOp) and i.op == "mul" and
                i.ty == ty.U64]
        assert len(muls) == 1      # one index scaling, not two

    def test_loads_not_merged_across_store(self):
        func = cleaned("""
            int f(int *p, int *q) {
                int a = p[0];
                q[0] = 7;
                int b = p[0];   /* may alias q: must reload */
                return a + b;
            }""")
        loads = [i for i in all_instrs(func) if isinstance(i, Load)]
        assert len(loads) == 2

    def test_loads_merged_without_store(self):
        func = cleaned("""
            int f(int *p) {
                int a = p[0];
                int b = p[0];
                return a + b;
            }""")
        loads = [i for i in all_instrs(func) if isinstance(i, Load)]
        assert len(loads) == 1

    def test_commutative_matching(self):
        func = cleaned("int f(int a, int b) { return a * b + b * a; }")
        muls = [i for i in all_instrs(func)
                if isinstance(i, BinOp) and i.op == "mul"]
        assert len(muls) == 1


class TestSimplifyCFG:
    def test_straightline_blocks_merged(self):
        func = cleaned("""
            int f(int x) {
                int y = x + 1;
                { int z = y * 2; return z; }
            }""")
        assert len(func.blocks) == 1

    def test_unreachable_code_removed(self):
        func = cleaned("""
            int f(int x) {
                return x;
                x = x + 1;  /* unreachable */
                return x;
            }""")
        assert len(func.blocks) == 1

    def test_loop_structure_preserved(self):
        func = cleaned("""
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += i;
                return s;
            }""")
        assert len(natural_loops(func)) == 1


class TestStrengthReduction:
    def test_mul_pow2_becomes_shift(self):
        module = lower_source("unsigned f(unsigned x) { return x * 8; }")
        func = next(iter(module))
        PassManager(cleanup_passes(), verify=True).run(func)
        strength_reduce(func)
        verify_function(func)
        ops = [i.op for i in all_instrs(func) if isinstance(i, BinOp)]
        assert "shl" in ops and "mul" not in ops

    def test_unsigned_div_pow2_becomes_shift(self):
        module = lower_source("unsigned f(unsigned x) { return x / 4; }")
        func = next(iter(module))
        strength_reduce(func)
        ops = [i.op for i in all_instrs(func) if isinstance(i, BinOp)]
        assert "shr" in ops and "div" not in ops

    def test_signed_div_untouched(self):
        module = lower_source("int f(int x) { return x / 4; }")
        func = next(iter(module))
        strength_reduce(func)
        ops = [i.op for i in all_instrs(func) if isinstance(i, BinOp)]
        assert "div" in ops

    def test_unsigned_rem_pow2_becomes_and(self):
        module = lower_source("unsigned f(unsigned x) { return x % 16; }")
        func = next(iter(module))
        strength_reduce(func)
        ops = [i.op for i in all_instrs(func) if isinstance(i, BinOp)]
        assert "and" in ops and "rem" not in ops

    def test_semantics_preserved(self):
        from tests.support import run_ir
        src = "unsigned f(unsigned x) { return x * 8 + x / 4 + x % 16; }"
        plain = run_ir(src, "f", [1234567])[0]
        module = lower_source(src)
        func = next(iter(module))
        strength_reduce(func)
        from repro.ir.interp import IRInterpreter
        assert IRInterpreter(module).call("f", [1234567]) == plain


class TestLICM:
    def test_invariant_hoisted_out_of_loop(self):
        func = optimized("""
            int f(int n, int a, int b) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a * b;
                return s;
            }""")
        loops = natural_loops(func)
        assert len(loops) == 1
        loop_instrs = [i for blk in func.blocks
                       if blk.label in loops[0].body
                       for i in blk.instrs]
        assert not any(isinstance(i, BinOp) and i.op == "mul"
                       for i in loop_instrs)

    def test_division_not_hoisted(self):
        func = optimized("""
            int f(int n, int a, int b) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a / b;  /* b may be 0 */
                return s;
            }""")
        loops = natural_loops(func)
        loop_instrs = [i for blk in func.blocks
                       if blk.label in loops[0].body
                       for i in blk.instrs]
        assert any(isinstance(i, BinOp) and i.op == "div"
                   for i in loop_instrs)

    def test_zero_trip_loop_division_still_safe(self):
        from tests.support import run_ir
        src = """
            int f(int n, int a, int b) {
                int s = 1;
                for (int i = 0; i < n; i++) s += a / b;
                return s;
            }"""
        module = lower_source(src)
        func = next(iter(module))
        PassManager(standard_passes(), verify=True).run(func)
        from repro.ir.interp import IRInterpreter
        # n == 0 with b == 0 must not trap.
        assert IRInterpreter(module).call("f", [0, 1, 0]) == 1


class TestIfConvert:
    def test_max_idiom_becomes_max_op(self):
        func = optimized("""
            int max_u8(unsigned char *a, int n) {
                int m = 0;
                for (int i = 0; i < n; i++) if (a[i] > m) m = a[i];
                return m;
            }""")
        assert any(isinstance(i, BinOp) and i.op == "max"
                   for i in all_instrs(func))
        assert len(natural_loops(func)) == 1     # diamond is gone

    def test_min_idiom_becomes_min_op(self):
        func = optimized("""
            int min_i32(int *a, int n) {
                int m = 2147483647;
                for (int i = 0; i < n; i++) if (a[i] < m) m = a[i];
                return m;
            }""")
        assert any(isinstance(i, BinOp) and i.op == "min"
                   for i in all_instrs(func))

    def test_else_arm_variant(self):
        func = optimized("""
            int f(int *a, int n) {
                int m = 0;
                for (int i = 0; i < n; i++)
                    if (a[i] <= m) ; else m = a[i];
                return m;
            }""")
        assert any(isinstance(i, (Select, BinOp)) and
                   (isinstance(i, Select) or i.op == "max")
                   for i in all_instrs(func))

    def test_unsafe_load_not_speculated(self):
        # The load address differs from anything loaded on the hot path:
        # if-conversion must leave the branch alone.
        func = optimized("""
            int f(int *a, int *t, int n) {
                int m = 0;
                for (int i = 0; i < n; i++)
                    if (a[i] > 0) m = t[i];   /* t[i] must not speculate */
                return m;
            }""")
        branches = [i for i in all_instrs(func) if isinstance(i, Branch)]
        assert len(branches) >= 2    # loop branch + kept diamond

    def test_store_never_speculated(self):
        func = optimized("""
            void f(int *a, int n) {
                for (int i = 0; i < n; i++)
                    if (a[i] > 0) a[i] = 0;
            }""")
        branches = [i for i in all_instrs(func) if isinstance(i, Branch)]
        assert len(branches) >= 2

    def test_semantics_preserved(self):
        from repro.ir.interp import IRInterpreter
        from repro.semantics import Memory
        src = """
            int clampsum(int *a, int n, int lo, int hi) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    int v = a[i];
                    if (v < lo) v = lo;
                    if (v > hi) v = hi;
                    s += v;
                }
                return s;
            }"""
        values = [-100, 5, 99999, 13, -2, 0, 77]
        expected = sum(min(max(v, -10), 50) for v in values)

        module = lower_source(src)
        func = next(iter(module))
        PassManager(standard_passes(), verify=True).run(func)
        memory = Memory()
        addr = memory.alloc_array(ty.I32, values)
        got = IRInterpreter(module, memory).call(
            "clampsum", [addr, len(values), -10, 50])
        assert got == expected


    @pytest.mark.parametrize("source", [
        # too much to speculate
        "int f(int c, int a, int x) { if (c) x = ((((((((a + 1) * 3) "
        "+ 5) * 7) + 9) * 11) + 13) * 15) + 17; return x; }",
        # an arm whose temporary is written on another path too
        "int f(int c, int a, int x) { int t = 0; if (a) t = 5; "
        "if (c) { t = a + 1; x = t * 2; } return x + t; }",
        # a load the arm would hoist that the block never made
        "int f(int *p, int c, int x) { if (c) x = p[1] + 1; "
        "return x; }",
    ], ids=["too long", "multi-def temporary", "unloaded address"])
    def test_branch_kept(self, source):
        func = optimized(source)
        assert any(isinstance(i, Branch) for i in all_instrs(func))

    def test_frame_load_speculated(self):
        """A load of an address-taken local the block already read is
        the same expression in the arm: it is speculated."""
        func = optimized("""
            int f(int c, int x) {
                int y = c * 3;
                int *p = &y;
                int z = *p;
                if (c) x = *p + 1;
                return x + z;
            }""")
        assert not any(isinstance(i, Branch) for i in all_instrs(func))

    @pytest.mark.parametrize("source", [
        "int f(int a, int b, int x) { if (a == b) x = a; return x; }",
        "long f(int a, int b, long x, long y) { if (a < b) x = y; "
        "return x; }",
    ], ids=["equality", "compare of another type"])
    def test_select_not_min_or_max(self, source):
        func = optimized(source)
        assert any(isinstance(i, Select) for i in all_instrs(func))
        assert not any(isinstance(i, BinOp) and i.op in ("min", "max")
                       for i in all_instrs(func))

    def test_branches_it_leaves(self):
        """A constant condition, one target twice, an arm with another
        predecessor, a join with a third: nothing to convert."""
        from repro.ir import Function
        for shape in range(4):
            func = Function("f", ty.I32)
            c = func.new_param(ty.I32)
            x = func.new_reg(ty.I32)
            entry, arm, join, other = (func.new_block(n) for n in
                                       ("e", "a", "j", "o"))
            entry.append(Move(x, Const(0, ty.I32)))
            cond = Const(1, ty.I32) if shape == 0 else c
            entry.append(Branch(cond, arm.label,
                                arm.label if shape == 1 else join.label))
            arm.append(Move(x, c))
            arm.append(Jump(join.label))
            other.append(Jump((arm if shape == 2 else join).label))
            join.append(Ret(x))
            if shape < 2:
                func.blocks.remove(other)
            before = format_function(func)
            if_convert(func)
            assert format_function(func) == before, shape

    def test_arms_it_will_not_speculate(self):
        """An arm with a second way in; one that ends in a branch; one
        that divides; one loading an address the block did not load;
        one loading an address the block did, through a register the
        block itself loaded: each keeps its branch."""
        from repro.ir import Function
        from repro.ir.function import BasicBlock

        def build(shape):
            func = Function("f", ty.I32)
            c = func.new_param(ty.I32)
            p = func.new_param(ty.U64)
            x = func.new_reg(ty.I32)
            v, t0, t1 = (func.new_reg(ty.U64), func.new_reg(ty.I32),
                         func.new_reg(ty.I32))
            blocks = {label: BasicBlock(label)
                      for label in ("e", "o", "m", "a", "j", "k")}
            e, o, m, a, j, k = blocks.values()
            e.instrs = [Move(x, Const(0, ty.I32)), Branch(c, "m", "o")]
            o.instrs = [Jump("a")]
            m.instrs = [Branch(c, "a", "j")]
            a.instrs = [Move(x, c), Jump("j")]
            j.instrs = [Ret(x)]
            k.instrs = [Ret(c)]
            if shape != "arm ends in a branch":
                del blocks["k"]
            if shape != "second way in":
                e.instrs[-1] = Jump("m")
                del blocks["o"]
            if shape == "arm ends in a branch":
                a.instrs[-1] = Branch(c, "j", "k")
            elif shape == "division in the arm":
                a.instrs[:1] = [BinOp("div", t1, c, Const(3, ty.I32),
                                      ty.I32), Move(x, t1)]
            elif shape == "load the block lacks":
                a.instrs[:1] = [Load(t1, p, ty.I32), Move(x, t1)]
            elif shape == "address the block loaded":
                m.instrs[:0] = [Load(v, p, ty.U64), Load(t0, v, ty.I32)]
                a.instrs[:1] = [Load(t1, v, ty.I32), Move(x, t1)]
            func.blocks = list(blocks.values())
            verify_function(func)
            return func

        for shape in ("second way in", "arm ends in a branch",
                      "division in the arm", "load the block lacks",
                      "address the block loaded"):
            func = build(shape)
            if_convert(func)
            assert isinstance(func.block("m").instrs[-1], Branch), shape

    def test_select_on_a_constant_stays(self):
        from repro.ir import Function
        func = Function("f", ty.I32)
        a = func.new_param(ty.I32)
        x = func.new_reg(ty.I32)
        block = func.new_block("e")
        block.append(Select(x, Const(1, ty.I32), a, Const(0, ty.I32),
                            ty.I32))
        block.append(Ret(x))
        if_convert(func)
        assert isinstance(block.instrs[0], Select)


class TestCountedLoopRecognition:
    def test_simple_for_recognized(self):
        func = cleaned("""
            void f(int *a, int n) {
                for (int i = 0; i < n; i++) a[i] = i;
            }""")
        loops = find_counted_loops(func)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.pred == "lt"
        assert loop.step == 1
        assert isinstance(loop.init, Const) and loop.init.value == 0
        assert loop.is_simple_forward

    def test_downward_loop_recognized_not_simple(self):
        func = cleaned("""
            void f(int *a, int n) {
                for (int i = n - 1; i >= 0; i--) a[i] = i;
            }""")
        loops = find_counted_loops(func)
        # Either unrecognized or recognized as non-simple; both are fine,
        # but if recognized the step must be negative.
        for loop in loops:
            assert loop.step == -1
            assert not loop.is_simple_forward

    def test_while_with_side_exit_not_counted(self):
        func = cleaned("""
            int f(int *a, int n) {
                for (int i = 0; i < n; i++) {
                    if (a[i] == 0) return i;
                }
                return -1;
            }""")
        loops = find_counted_loops(func)
        assert loops == []

    def test_bound_modified_in_loop_not_counted(self):
        func = cleaned("""
            void f(int *a, int n) {
                for (int i = 0; i < n; i++) { a[i] = i; n--; }
            }""")
        assert find_counted_loops(func) == []


    SUM = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) " \
          "s += i; return s; }"

    @staticmethod
    def _break(edit):
        """The canonical counted loop of ``SUM`` (head: cmp, branch;
        body: s += i, i = i + 1, jump head), after ``edit(func, head,
        body, exit)``."""
        func = optimized(TestCountedLoopRecognition.SUM)
        assert len(find_counted_loops(func)) == 1
        head, body, exit_ = func.blocks[1], func.blocks[2], func.blocks[3]
        edit(func, head, body, exit_)
        verify_function(func)
        return func

    @staticmethod
    def _extra_entry(func, head, body, exit_):
        """A second way into the header, so it has no preheader."""
        from repro.ir.function import BasicBlock
        entry = func.blocks[0]
        side = BasicBlock("side")
        side.append(Jump(head.label))
        func.blocks.insert(1, side)
        flag = func.params[0]
        entry.instrs[-1] = Branch(flag, head.label, side.label)

    @pytest.mark.parametrize("edit", [
        lambda f, h, b, e: h.instrs.insert(0, Move(f.new_reg(ty.I32),
                                                   Const(1, ty.I32))),
        lambda f, h, b, e: h.instrs.__setitem__(
            0, Move(h.instrs[0].dst, Const(1, ty.I32))),
        lambda f, h, b, e: h.instrs.__setitem__(
            1, Branch(f.params[0], b.label, e.label)),
        lambda f, h, b, e: h.instrs.__setitem__(
            1, Branch(h.instrs[0].dst, e.label, b.label)),
        lambda f, h, b, e: b.instrs.__setitem__(
            -1, Branch(f.params[0], h.label, e.label)),
        lambda f, h, b, e: b.instrs.__delitem__(slice(0, -1)),
        lambda f, h, b, e: b.instrs.__setitem__(
            -2, Move(b.instrs[-2].dst, b.instrs[0].dst)),
        lambda f, h, b, e: b.instrs.__setitem__(-3, BinOp(
            "add", b.instrs[-3].dst, b.instrs[-3].a, f.params[0],
            ty.I32)),
        lambda f, h, b, e: h.instrs.__setitem__(0, Cmp(
            "lt", h.instrs[0].dst, f.params[0], h.instrs[0].a, ty.I32)),
        lambda f, h, b, e: b.instrs.insert(
            0, Move(b.instrs[-2].dst, Const(0, ty.I32))),
        lambda f, h, b, e: h.instrs.__setitem__(
            1, Branch(h.instrs[0].dst, b.label, b.label)),
    ], ids=["header of three", "header tests no cmp",
            "branch on another value", "inverted branch",
            "latch branches", "latch of one", "copy of another value",
            "step not a constant", "induction compared second",
            "induction written twice", "no way out"])
    def test_refused_shapes(self, edit):
        """One instruction changed in the canonical loop, each away
        from a different clause of the counted-loop match."""
        assert find_counted_loops(self._break(edit)) == []

    def test_loops_the_cfg_never_hands_the_matcher(self):
        """The matcher takes any two-block ``Loop``: one whose other
        block the header does not branch to, one whose body has a way
        in that skips the header, and one whose named preheader is
        gone are each refused or given no start."""
        from dataclasses import replace
        from repro.ir.cfg import predecessors
        from repro.opt.loops import _match
        func = optimized(self.SUM)
        [loop] = natural_loops(func)
        head, body = loop.header, loop.latch

        def match(loop):
            return _match(func, func.block_map(), predecessors(func), loop)

        assert match(replace(loop, body={head, func.blocks[0].label})) \
            is None
        assert match(replace(loop, preheader="gone")).init is None
        self._extra_entry(func, func.block(head), None, None)
        func.blocks[1].instrs[-1] = Jump(body)
        assert match(loop) is None

    def test_no_preheader_no_init(self):
        """A header entered from two blocks has no preheader, hence no
        known start; unroll gives it one and keeps the sum."""
        from repro.ir.interp import IRInterpreter
        from repro.opt.unroll import unroll
        from repro.semantics import Memory
        func = self._break(self._extra_entry)
        [loop] = find_counted_loops(func)
        assert loop.preheader is None and loop.init is None
        assert unroll(func, 2).changed
        verify_function(func)
        [pre] = [b for b in func.blocks if b.label.startswith("preheader")]
        assert pre.instrs[-1].target.startswith("unroll.head")
        from repro.ir.function import Module
        module = Module("m")
        module.add(func)
        assert IRInterpreter(module, Memory()).call("f", [7]) == 21

    def test_preheader_that_writes_the_induction_gives_no_init(self):
        def edit(func, head, body, exit_):
            entry = func.blocks[0]
            ivar = body.instrs[-2].dst
            entry.instrs.insert(-1, BinOp("add", ivar, ivar,
                                          Const(1, ty.I32), ty.I32))
        [loop] = find_counted_loops(self._break(edit))
        assert loop.init is None

    def test_unroll_by_one_changes_nothing(self):
        from repro.opt.unroll import unroll
        func = optimized(self.SUM)
        before = format_function(func)
        assert not unroll(func, 1).changed
        assert format_function(func) == before


class TestFoldRules:
    """Every rule of ``constfold`` on one instruction: what it becomes
    (``("x",)`` a copy of ``x``, ``(0,)`` of zero) or ``None``."""

    @staticmethod
    def fold(op, a, b):
        from repro.ir import Function
        from repro.opt.constfold import _fold
        func = Function("f", ty.I32)
        x = func.new_reg(ty.I32, "x")
        operands = {"x": x, 0: Const(0, ty.I32), 1: Const(1, ty.I32)}
        out = _fold(BinOp(op, func.new_reg(ty.I32), operands[a],
                          operands[b], ty.I32))
        if out is None:
            return None
        assert isinstance(out, Move)
        return (out.src.name,) if out.src is x else (out.src.value,)

    @pytest.mark.parametrize("op, a, b, want", [
        ("add", "x", 0, ("x",)), ("add", 0, "x", ("x",)),
        ("sub", "x", 0, ("x",)), ("sub", "x", "x", (0,)),
        ("mul", "x", 1, ("x",)), ("mul", 1, "x", ("x",)),
        ("mul", 0, "x", (0,)), ("mul", "x", "x", None),
        ("div", "x", 1, ("x",)), ("shl", "x", 0, ("x",)),
        ("shr", "x", 0, ("x",)), ("and", 0, "x", (0,)),
        ("and", "x", "x", ("x",)), ("or", "x", 0, ("x",)),
        ("or", 0, "x", ("x",)), ("or", "x", "x", ("x",)),
        ("xor", "x", "x", (0,)), ("xor", "x", 0, ("x",)),
        ("rem", "x", 1, None),
    ])
    def test_identity(self, op, a, b, want):
        assert self.fold(op, a, b) == want

    def test_constant_cast_and_branches(self):
        from repro.ir import Cast, Function
        from repro.opt.constfold import _fold
        func = Function("f", ty.I32)
        cast = _fold(Cast(func.new_reg(ty.I64), Const(-1, ty.I32),
                          ty.I32, ty.I64))
        assert cast.src == Const(-1, ty.I64)
        assert _fold(Branch(Const(0, ty.I32), "a", "b")).target == "b"
        assert _fold(Branch(Const(7, ty.I32), "a", "b")).target == "a"
        same = Branch(func.new_reg(ty.I32), "a", "a")
        assert _fold(same).target == "a"


class TestCfgShapesTheFrontEndNeverMakes:
    @staticmethod
    def func(*blocks):
        """``f(c)`` of the given ``(label, make)`` blocks, ``make(c)``
        their instructions."""
        from repro.ir import Function
        from repro.ir.function import BasicBlock
        func = Function("f", ty.I32)
        c = func.new_param(ty.I32)
        for label, make in blocks:
            block = BasicBlock(label)
            block.instrs = make(c)
            func.blocks.append(block)
        verify_function(func)
        return func

    def test_branch_to_one_target_becomes_a_jump(self):
        func = self.func(("e", lambda c: [Branch(c, "x", "x")]),
                         ("x", lambda c: [Ret(c)]))
        assert simplify_cfg(func).changed
        assert not any(isinstance(i, Branch) for i in all_instrs(func))

    def test_self_loop_and_back_edge_to_entry_stay(self):
        """A block that jumps to itself, and the one predecessor of
        the entry, are not merged into their successor."""
        spin = self.func(("e", lambda c: [Jump("s")]),
                         ("s", lambda c: [Jump("s")]))
        simplify_cfg(spin)
        assert [b.label for b in spin.blocks] == ["e", "s"]
        ring = self.func(("e", lambda c: [Branch(c, "b", "x")]),
                         ("b", lambda c: [Jump("e")]),
                         ("x", lambda c: [Ret(c)]))
        simplify_cfg(ring)
        assert ring.blocks[0].label == "e"
        verify_function(ring)

    def test_copies_back_and_forth(self):
        """``y = x`` after ``x = y`` leaves no copy cycle to follow."""
        from repro.ir import Function
        func = Function("f", ty.I32)
        a = func.new_param(ty.I32)
        x, y = func.new_reg(ty.I32), func.new_reg(ty.I32)
        block = func.new_block("e")
        block.instrs = [Move(y, a), Move(x, y), Move(y, x), Ret(y)]
        cse(func)
        verify_function(func)
