"""Vectorizer tests: recognition, rejection, and differential execution."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import lower_source
from repro.ir import Const, VLoad, VReduce, VStore, verify_function
from repro.ir.interp import IRInterpreter
from repro.lang import types as ty
from repro.opt import PassManager, standard_passes
from repro.opt.unroll import unroll
from repro.opt.vectorize import vectorize
from repro.semantics import Memory

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

TABLE1_SOURCES = {
    "vecadd": """
        void vecadd(float *a, float *b, float *c, int n) {
            for (int i = 0; i < n; i++) c[i] = a[i] + b[i];
        }""",
    "saxpy": """
        void saxpy(int n, float a, float *x, float *y) {
            for (int i = 0; i < n; i++) y[i] = a * x[i] + y[i];
        }""",
    "dscal": """
        void dscal(int n, double a, double *x) {
            for (int i = 0; i < n; i++) x[i] = a * x[i];
        }""",
    "max_u8": """
        int max_u8(unsigned char *a, int n) {
            int m = 0;
            for (int i = 0; i < n; i++) if (a[i] > m) m = a[i];
            return m;
        }""",
    "sum_u8": """
        int sum_u8(unsigned char *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }""",
    "sum_u16": """
        int sum_u16(unsigned short *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }""",
}


def compile_fn(source, do_vectorize):
    module = lower_source(source)
    func = next(iter(module))
    PassManager(standard_passes(), verify=True).run(func)
    if do_vectorize:
        result = vectorize(func)
        verify_function(func)
        assert result.changed, "expected the loop to vectorize"
    return module, func


class TestRecognition:
    @pytest.mark.parametrize("name", sorted(TABLE1_SOURCES))
    def test_table1_kernels_vectorize(self, name):
        _, func = compile_fn(TABLE1_SOURCES[name], do_vectorize=True)
        assert func.vector_loops

    def test_lane_counts(self):
        expected = {"vecadd": 4, "saxpy": 4, "dscal": 2,
                    "max_u8": 16, "sum_u8": 16, "sum_u16": 8}
        for name, lanes in expected.items():
            _, func = compile_fn(TABLE1_SOURCES[name], do_vectorize=True)
            assert func.vector_loops[0].lanes == lanes, name

    def test_reduction_metadata(self):
        _, func = compile_fn(TABLE1_SOURCES["max_u8"], do_vectorize=True)
        info = func.vector_loops[0]
        assert info.kind == "reduction"
        assert info.reduce_op == "max"
        assert info.acc_type == "i32"
        assert info.noalias_bases      # the assumption is recorded

    def test_elementwise_metadata(self):
        _, func = compile_fn(TABLE1_SOURCES["saxpy"], do_vectorize=True)
        info = func.vector_loops[0]
        assert info.kind == "elementwise"
        assert info.reduce_op is None

    def test_vector_ops_present(self):
        _, func = compile_fn(TABLE1_SOURCES["sum_u8"], do_vectorize=True)
        instrs = list(func.instructions())
        assert any(isinstance(i, VLoad) for i in instrs)
        assert any(isinstance(i, VReduce) for i in instrs)

    def test_scalar_epilogue_preserved(self):
        _, func = compile_fn(TABLE1_SOURCES["saxpy"], do_vectorize=True)
        info = func.vector_loops[0]
        labels = [b.label for b in func.blocks]
        assert info.vector_header in labels
        assert info.scalar_header in labels


class TestRejection:
    def rejects(self, source):
        module = lower_source(source)
        func = next(iter(module))
        PassManager(standard_passes(), verify=True).run(func)
        result = vectorize(func)
        assert not result.changed

    def test_loop_carried_dependence(self):
        self.rejects("""
            void prefix(int *a, int n) {
                for (int i = 0; i < n; i++) a[i + 1] = a[i];
            }""")

    def test_strided_store(self):
        self.rejects("""
            void evens(int *a, int n) {
                for (int i = 0; i < n; i++) a[2 * i] = i;
            }""")

    def test_gather_load(self):
        self.rejects("""
            int gather(int *a, int *idx, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a[idx[i]];
                return s;
            }""")

    def test_call_in_body(self):
        self.rejects("""
            int g(int x);
            int g(int x) { return x + 1; }
            int f(int *a, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += g(a[i]);
                return s;
            }""")

    def test_induction_variable_used_as_value(self):
        self.rejects("""
            void iota_plus(int *a, int n) {
                for (int i = 0; i < n; i++) a[i] = a[i] + i;
            }""")

    def test_non_unit_step(self):
        self.rejects("""
            void skip(float *a, int n) {
                for (int i = 0; i < n; i += 2) a[i] = 0.0f;
            }""")

    def test_mixed_element_sizes(self):
        self.rejects("""
            void widen(short *src, int *dst, int n) {
                for (int i = 0; i < n; i++) dst[i] = src[i];
            }""")


    @pytest.mark.parametrize("source", [
        # no memory access at all
        "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += 3; "
        "return s; }",
        # a store whose address is not affine in i
        "void f(int *a, int *b, int n) { for (int i = 0; i < n; i++) "
        "{ a[i] = b[0]; b[0] = 1; } }",
        # an invariant load from a base the loop stores to
        "void f(int *a, int n) { for (int i = 0; i < n; i++) "
        "a[i] = a[0]; }",
        # a read of what the same trip just stored
        "void f(int *a, int n) { for (int i = 0; i < n; i++) "
        "{ a[i] = 1; a[i] = a[i] + 1; } }",
        # only invariant loads: no element type to widen
        "int f(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) "
        "s += a[0]; return s; }",
        # a product is no lane reduction
        "int f(int *a, int n) { int s = 1; for (int i = 0; i < n; i++) "
        "s *= a[i]; return s; }",
        # an int accumulator over float lanes
        "int f(float *a, int n) { int s = 0; for (int i = 0; i < n; i++) "
        "s += (int) a[i]; return s; }",
        # a value of the trip read after the loop
        "int f(int *a, int n) { int t = 0; for (int i = 0; i < n; i++) "
        "{ t = a[i] + 1; a[i] = t; } return t; }",
        # a compare has no lane-wise form
        "void f(int *a, int *b, int n) { for (int i = 0; i < n; i++) "
        "a[i] = b[i] < 3; }",
        # an invariant load of another element type
        "void f(int *a, short *b, int n) { for (int i = 0; i < n; i++) "
        "a[i] = b[0] + a[i]; }",
        # two stores to one base at different offsets
        "void f(int *a, int *b, int n) { for (int i = 0; i < n; i++) "
        "{ a[i] = b[i]; a[i + 4] = b[i]; } }",
        # an i32 constant summed over u8 lanes
        "int f(unsigned char *a, int n) { int s = 0; "
        "for (int i = 0; i < n; i++) { s += 3; a[i] = 0; } return s; }",
        # an accumulator updated twice a trip
        "int f(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) "
        "{ s += a[i]; s += a[i]; } return s; }",
        # a strided load
        "int f(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) "
        "s += a[2 * i]; return s; }",
        # a load of the stored base, four elements ahead
        "void f(int *a, int *b, int n) { for (int i = 0; i < n; i++) "
        "a[i] = b[i] + a[i + 4]; }",
        # an invariant address computed from i
        "void f(int *a, int *b, int n) { for (int i = 0; i < n; i++) "
        "a[i] = b[(i + 4) - i]; }",
        # a value overwritten each trip, read after the loop
        "int f(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) "
        "s = a[i] + a[i]; return s; }",
    ], ids=["no memory", "non-affine store", "invariant stored base",
            "read after write", "invariant loads only", "product",
            "int over float", "used after the loop", "compare",
            "invariant of another type", "two store offsets",
            "constant over lanes", "accumulator twice", "strided load",
            "stored base ahead", "invariant address from i",
            "overwritten each trip"])
    def test_rejected_shapes(self, source):
        self.rejects(source)


class TestVectorizedShapes:
    """Shapes past the Table 1 kernels that do vectorize: a negation
    and invariant loads, hoisted and splat; the vector form agrees
    with the scalar one at every length around the lane count."""

    SOURCES = {
        "negate": "void f(int *a, int *b, int n) { "
                  "for (int i = 0; i < n; i++) a[i] = -b[i]; }",
        "fneg": "void f(float *a, float *b, int n) { "
                "for (int i = 0; i < n; i++) a[i] = -b[i]; }",
        "splat": "void f(int *a, int *b, int *c, int n) { "
                 "for (int i = 0; i < n; i++) a[i] = b[i] * c[3]; }",
    }

    def run(self, name, n, do_vectorize):
        module, _ = compile_fn(self.SOURCES[name], do_vectorize)
        memory = Memory(1 << 16)
        elem = ty.F32 if name == "fneg" else ty.I32
        a = memory.alloc_array(elem, [0] * (n + 1))
        b = memory.alloc_array(elem, [k * 3 - 7 for k in range(n + 1)])
        c = memory.alloc_array(ty.I32, [2, 3, 5, 7])
        args = [a, b, c, n] if name == "splat" else [a, b, n]
        IRInterpreter(module, memory).call("f", args)
        return memory.read_array(elem, a, n + 1)

    @pytest.mark.parametrize("name", sorted(SOURCES))
    @pytest.mark.parametrize("n", [0, 3, 4, 9])
    def test_vector_matches_scalar(self, name, n):
        assert self.run(name, n, True) == self.run(name, n, False)


class TestDifferentialExecution:
    """Vectorized and scalar versions must agree bit-for-bit."""

    def run_kernel(self, name, n, seed, do_vectorize):
        source = TABLE1_SOURCES[name]
        module, func = (lambda m_f: m_f)(compile_fn(source, do_vectorize))
        module, func = compile_fn(source, do_vectorize)
        rng = random.Random(seed)
        memory = Memory(1 << 20)
        interp = IRInterpreter(module, memory)

        if name == "vecadd":
            a = memory.alloc_array(ty.F32, [rng.uniform(-9, 9)
                                            for _ in range(n)])
            b = memory.alloc_array(ty.F32, [rng.uniform(-9, 9)
                                            for _ in range(n)])
            c = memory.alloc_array(ty.F32, [0.0] * n)
            interp.call("vecadd", [a, b, c, n])
            return memory.read_array(ty.F32, c, n)
        if name == "saxpy":
            x = memory.alloc_array(ty.F32, [rng.uniform(-9, 9)
                                            for _ in range(n)])
            y = memory.alloc_array(ty.F32, [rng.uniform(-9, 9)
                                            for _ in range(n)])
            interp.call("saxpy", [n, 2.5, x, y])
            return memory.read_array(ty.F32, y, n)
        if name == "dscal":
            x = memory.alloc_array(ty.F64, [rng.uniform(-9, 9)
                                            for _ in range(n)])
            interp.call("dscal", [n, 1.5, x])
            return memory.read_array(ty.F64, x, n)
        if name in ("max_u8", "sum_u8"):
            a = memory.alloc_array(ty.U8, [rng.randrange(256)
                                           for _ in range(n)])
            return interp.call(name, [a, n])
        if name == "sum_u16":
            a = memory.alloc_array(ty.U16, [rng.randrange(65536)
                                            for _ in range(n)])
            return interp.call(name, [a, n])
        raise AssertionError(name)

    @pytest.mark.parametrize("name", sorted(TABLE1_SOURCES))
    @pytest.mark.parametrize("n", [0, 1, 3, 16, 17, 64, 100])
    def test_vector_matches_scalar(self, name, n):
        scalar = self.run_kernel(name, n, seed=n * 7 + 1,
                                 do_vectorize=False)
        vector = self.run_kernel(name, n, seed=n * 7 + 1,
                                 do_vectorize=True)
        assert scalar == vector

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 70), seed=st.integers(0, 10**6))
    def test_sum_u8_property(self, n, seed):
        scalar = self.run_kernel("sum_u8", n, seed, do_vectorize=False)
        vector = self.run_kernel("sum_u8", n, seed, do_vectorize=True)
        assert scalar == vector

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 70), seed=st.integers(0, 10**6))
    def test_saxpy_property(self, n, seed):
        scalar = self.run_kernel("saxpy", n, seed, do_vectorize=False)
        vector = self.run_kernel("saxpy", n, seed, do_vectorize=True)
        assert scalar == vector


class TestUnroll:
    def run_sum(self, transform, values):
        module = lower_source(TABLE1_SOURCES["sum_u8"])
        func = next(iter(module))
        PassManager(standard_passes(), verify=True).run(func)
        transform(func)
        verify_function(func)
        memory = Memory()
        addr = memory.alloc_array(ty.U8, values)
        return IRInterpreter(module, memory).call(
            "sum_u8", [addr, len(values)])

    @pytest.mark.parametrize("factor", [2, 4, 8])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 33])
    def test_unroll_preserves_semantics(self, factor, n):
        rng = random.Random(factor * 100 + n)
        values = [rng.randrange(256) for _ in range(n)]
        plain = self.run_sum(lambda f: None, values)
        unrolled = self.run_sum(lambda f: unroll(f, factor), values)
        assert plain == unrolled

    def test_unroll_replicates_body(self):
        module = lower_source(TABLE1_SOURCES["sum_u8"])
        func = next(iter(module))
        PassManager(standard_passes(), verify=True).run(func)
        before = sum(len(b.instrs) for b in func.blocks)
        result = unroll(func, 4)
        assert result.changed
        after = sum(len(b.instrs) for b in func.blocks)
        assert after > before * 2

    def test_unroll_then_vectorize_composes(self):
        rng = random.Random(5)
        values = [rng.randrange(256) for _ in range(50)]
        combo = self.run_sum(lambda f: (unroll(f, 2), vectorize(f)),
                             values)
        assert combo == sum(values)


class TestAffineForms:
    """The address algebra the vectorizer's legality rests on: what
    is ``base + i*coeff + offset`` and what is not."""

    def test_arithmetic(self):
        from repro.opt.affine import Affine
        p, q, i = Affine(1, 0, 0), Affine(2, 0, 0), Affine(None, 4, 8)
        assert p + q is None            # two bases
        assert p - q is None            # a base subtracted
        assert p - i == Affine(1, -4, -8)
        assert (p + i).scaled(2) is None
        assert i.scaled(2) == Affine(None, 8, 16)

    def test_map_over_a_body(self):
        from repro.ir import BinOp, Cast, Function
        from repro.opt.affine import Affine, AffineMap
        func = Function("f", ty.I32)
        iv, base, n = (func.new_reg(ty.I64), func.new_reg(ty.U64),
                       func.new_reg(ty.I64))
        amap = AffineMap(iv, [base, n])
        regs = [func.new_reg(ty.I64) for _ in range(5)]
        k4 = Const(4, ty.I64)
        for instr in [
                BinOp("sub", regs[0], iv, k4, ty.I64),      # i - 4
                BinOp("mul", regs[1], k4, regs[0], ty.I64),  # 4 * (i - 4)
                BinOp("mul", regs[2], iv, n, ty.I64),       # i * n: no
                BinOp("div", regs[3], iv, k4, ty.I64),      # no
                Cast(regs[4], iv, ty.I64, ty.I32)]:         # narrowing: no
            amap.visit(instr)
        assert amap.of(regs[1]) == Affine(None, 4, -16)
        assert [amap.of(r) for r in regs[2:]] == [None, None, None]
        assert amap.of(Const(1.5, ty.F64)) is None
        assert amap.is_invariant(Const(3, ty.I32))
        assert amap.is_invariant(n) and not amap.is_invariant(iv)
