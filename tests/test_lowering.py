"""Differential tests: lowered IR executed by the interpreter vs Python
oracles.  These pin down MiniC's end-to-end semantics before any
optimization or bytecode stage enters the picture."""

import pytest

from repro.lang import types as ty
from tests.support import run_ir


class TestScalarFunctions:
    def test_arith_mix(self):
        src = "int f(int a, int b) { return (a + b) * (a - b) / 2 % 7; }"
        result, _, _ = run_ir(src, "f", [9, 4])
        assert result == ((9 + 4) * (9 - 4) // 2) % 7

    def test_gcd(self):
        src = """
        int gcd(int a, int b) {
            while (b != 0) { int t = a % b; a = b; b = t; }
            return a;
        }"""
        assert run_ir(src, "gcd", [252, 105])[0] == 21

    def test_collatz_steps(self):
        src = """
        int collatz(int n) {
            int steps = 0;
            while (n != 1) {
                if (n % 2 == 0) n = n / 2;
                else n = 3 * n + 1;
                steps++;
            }
            return steps;
        }"""
        assert run_ir(src, "collatz", [27])[0] == 111

    def test_recursion(self):
        src = "int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }"
        assert run_ir(src, "fact", [10])[0] == 3628800

    def test_mutual_calls(self):
        src = """
        int is_odd(int n);
        int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
        int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
        """
        assert run_ir(src, "is_even", [10])[0] == 1
        assert run_ir(src, "is_odd", [7])[0] == 1

    def test_signed_overflow_wraps(self):
        src = "int f(int a) { return a + 1; }"
        assert run_ir(src, "f", [2**31 - 1])[0] == -(2**31)

    def test_unsigned_division(self):
        src = ("unsigned f(unsigned a, unsigned b) { return a / b; }")
        assert run_ir(src, "f", [2**32 - 2, 3])[0] == (2**32 - 2) // 3

    def test_signed_vs_unsigned_compare(self):
        src_signed = "int f(int a) { return a < 0; }"
        src_unsigned = "int f(unsigned a) { return a < 0u; }"
        assert run_ir(src_signed, "f", [-1])[0] == 1
        assert run_ir(src_unsigned, "f", [-1])[0] == 0

    def test_short_circuit_skips_side_effect(self):
        src = """
        int f(int x) {
            int calls = 0;
            int r = (x > 0) && (calls = 1);
            return calls * 10 + r;
        }"""
        assert run_ir(src, "f", [0])[0] == 0      # rhs never evaluated
        assert run_ir(src, "f", [5])[0] == 11

    def test_logical_or_result_is_01(self):
        src = "int f(int x) { return x || 0; }"
        assert run_ir(src, "f", [42])[0] == 1

    def test_conditional_expression(self):
        src = "int f(int a, int b) { return a > b ? a - b : b - a; }"
        assert run_ir(src, "f", [3, 10])[0] == 7

    def test_do_while_executes_at_least_once(self):
        src = """
        int f(int n) {
            int count = 0;
            do { count++; } while (count < n);
            return count;
        }"""
        assert run_ir(src, "f", [0])[0] == 1

    def test_break_and_continue(self):
        src = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) continue;
                if (i > 10) break;
                s += i;
            }
            return s;
        }"""
        assert run_ir(src, "f", [100])[0] == 1 + 3 + 5 + 7 + 9

    def test_nested_loop_product(self):
        src = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++)
                    s += i * j;
            return s;
        }"""
        n = 7
        assert run_ir(src, "f", [n])[0] == \
            sum(i * j for i in range(n) for j in range(n))

    def test_compound_assignments(self):
        src = """
        int f(int x) {
            x += 3; x *= 2; x -= 1; x /= 3; x %= 10;
            x <<= 2; x >>= 1; x |= 8; x &= 14; x ^= 5;
            return x;
        }"""
        x = 7
        x += 3; x *= 2; x -= 1; x //= 3; x %= 10
        x <<= 2; x >>= 1; x |= 8; x &= 14; x ^= 5
        assert run_ir(src, "f", [7])[0] == x

    def test_incdec_value_semantics(self):
        src = """
        int f(int x) {
            int a = x++;
            int b = ++x;
            int c = x--;
            int d = --x;
            return a * 1000000 + b * 10000 + c * 100 + d;
        }"""
        assert run_ir(src, "f", [5])[0] == \
            5 * 1000000 + 7 * 10000 + 7 * 100 + 5


class TestFloats:
    def test_float_arith(self):
        src = "double f(double a, double b) { return a * b + a / b; }"
        assert run_ir(src, "f", [3.0, 4.0])[0] == pytest.approx(12.75)

    def test_f32_precision_differs_from_f64(self):
        src32 = "float f(float a, float b) { return a + b; }"
        src64 = "double f(double a, double b) { return a + b; }"
        r32 = run_ir(src32, "f", [0.1, 0.2])[0]
        r64 = run_ir(src64, "f", [0.1, 0.2])[0]
        assert r32 != r64

    def test_int_float_conversions(self):
        src = "int f(double x) { return (int)(x * 2.0); }"
        assert run_ir(src, "f", [2.7])[0] == 5

    def test_float_condition(self):
        src = "int f(double x) { if (x) return 1; return 0; }"
        assert run_ir(src, "f", [0.0])[0] == 0
        assert run_ir(src, "f", [-0.5])[0] == 1

    def test_float_incdec(self):
        src = "double f(double x) { x++; ++x; return x; }"
        assert run_ir(src, "f", [1.5])[0] == 3.5


class TestMemoryAndPointers:
    def test_array_sum(self):
        src = """
        int sum(int *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }"""
        values = [3, -1, 4, 1, -5, 9, 2, 6]
        result, _, _ = run_ir(src, "sum", ["a", len(values)],
                              arrays={"a": (ty.I32, values)})
        assert result == sum(values)

    def test_writes_visible_in_memory(self):
        src = """
        void scale(float *x, int n, float k) {
            for (int i = 0; i < n; i++) x[i] = x[i] * k;
        }"""
        values = [1.0, 2.0, 3.0]
        _, mem, addrs = run_ir(src, "scale", ["x", 3, 2.0],
                               arrays={"x": (ty.F32, values)})
        assert mem.read_array(ty.F32, addrs["x"], 3) == [2.0, 4.0, 6.0]

    def test_pointer_walk(self):
        src = """
        int last(int *p, int n) {
            int *end = p + n - 1;
            while (p < end) p++;
            return *p;
        }"""
        result, _, _ = run_ir(src, "last", ["p", 5],
                              arrays={"p": (ty.I32, [10, 20, 30, 40, 50])})
        assert result == 50

    def test_pointer_difference(self):
        src = """
        long dist(int *a, int n) {
            int *b = a + n;
            return b - a;
        }"""
        result, _, _ = run_ir(src, "dist", ["a", 7],
                              arrays={"a": (ty.I32, [0] * 8)})
        assert result == 7

    def test_local_array_and_addressof(self):
        src = """
        int f(void) {
            int buf[4];
            for (int i = 0; i < 4; i++) buf[i] = i + 1;
            int *p = &buf[2];
            *p = 99;
            return buf[0] + buf[1] + buf[2] + buf[3];
        }"""
        assert run_ir(src, "f", [])[0] == 1 + 2 + 99 + 4

    def test_address_taken_scalar(self):
        src = """
        void set(int *p, int v) { *p = v; }
        int f(void) {
            int x = 1;
            set(&x, 42);
            return x;
        }"""
        assert run_ir(src, "f", [])[0] == 42

    def test_subword_store_load(self):
        src = """
        int f(unsigned char *b) {
            b[0] = 300;           /* wraps to 44 */
            short s = -2;
            b[1] = s;             /* wraps to 254 */
            return b[0] + b[1];
        }"""
        result, _, _ = run_ir(src, "f", ["b"],
                              arrays={"b": (ty.U8, [0, 0])})
        assert result == 44 + 254

    def test_two_dimensional_local_array(self):
        src = """
        int f(void) {
            int m[3][4];
            for (int i = 0; i < 3; i++)
                for (int j = 0; j < 4; j++)
                    m[i][j] = i * 10 + j;
            return m[2][3] + m[0][1] + m[1][0];
        }"""
        assert run_ir(src, "f", [])[0] == 23 + 1 + 10

    def test_out_of_bounds_traps(self):
        from repro.semantics import TrapError
        src = "int f(int *p) { return p[1000000]; }"
        with pytest.raises(TrapError):
            run_ir(src, "f", ["p"], arrays={"p": (ty.I32, [1])})

    def test_sizeof_in_pointer_code(self):
        src = """
        long f(void) { return sizeof(double) + sizeof(int*); }
        """
        assert run_ir(src, "f", [])[0] == 16


class TestKernelOracles:
    """The Table 1 kernels against numpy-style oracles."""

    def test_vecadd_fp(self):
        src = """
        void vecadd(float *a, float *b, float *c, int n) {
            for (int i = 0; i < n; i++) c[i] = a[i] + b[i];
        }"""
        a = [float(i) for i in range(32)]
        b = [float(2 * i) for i in range(32)]
        _, mem, addrs = run_ir(src, "vecadd", ["a", "b", "c", 32],
                               arrays={"a": (ty.F32, a), "b": (ty.F32, b),
                                       "c": (ty.F32, [0.0] * 32)})
        assert mem.read_array(ty.F32, addrs["c"], 32) == \
            [x + y for x, y in zip(a, b)]

    def test_max_u8(self):
        src = """
        int max_u8(unsigned char *a, int n) {
            int m = 0;
            for (int i = 0; i < n; i++) if (a[i] > m) m = a[i];
            return m;
        }"""
        values = [17, 250, 3, 99, 250, 1, 128]
        result, _, _ = run_ir(src, "max_u8", ["a", len(values)],
                              arrays={"a": (ty.U8, values)})
        assert result == 250

    def test_sum_u16_wraps_in_i32(self):
        src = """
        int sum_u16(unsigned short *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }"""
        values = [65535, 65535, 12345]
        result, _, _ = run_ir(src, "sum_u16", ["a", 3],
                              arrays={"a": (ty.U16, values)})
        assert result == sum(values)

    def test_dscal(self):
        src = """
        void dscal(int n, double a, double *x) {
            for (int i = 0; i < n; i++) x[i] = a * x[i];
        }"""
        values = [1.5, -2.0, 0.25]
        _, mem, addrs = run_ir(src, "dscal", [3, 4.0, "x"],
                               arrays={"x": (ty.F64, values)})
        assert mem.read_array(ty.F64, addrs["x"], 3) == \
            [4.0 * v for v in values]


#: the lowering's less common forms: address-taken parameters and
#: locals, declarations with no initializer, pointer compound
#: assignment, ``int + pointer``, a byte-pointer difference, pointer
#: and identity casts, ``&*p``, a ``for`` with no condition, a pointer
#: function that falls off its end, and an array that decays to a
#: pointer offset by an ``unsigned long``
FORMS = """
long addr_param(int a, double d) {
    int *p = &a;
    double *q = &d;
    *p += 2;
    a++;
    *q = *q * 2.0;
    return a + (long) d;
}
long addr_local(int k) {
    int x;
    float y;
    int *p = &x;
    *p = *p + k;
    y = y + 1.5;
    return x + (long) (y * 2.0);
}
long pointers(int *a, char *s, int n) {
    int *p = a;
    p += 2;
    p -= 1;
    char *e = s;
    e += n;
    int *q = 1 + a;
    long span = e - s;
    long *w = (long *) a;
    int *back = (int *) w;
    int *same = &*p;
    (void) n;
    return *p + *q + span + (long) (back == a) + *same + (int) n;
}
int spin(int n) {
    int i = 0;
    for (;;) {
        if (i >= n)
            break;
        i++;
    }
    return i;
}
int *fall(int *p, int c) {
    if (c)
        return p;
}
long decay(int k) {
    int a[3];
    int *p = a;
    p[1] = k;
    return a[1] + (p + (unsigned long) 2 - p);
}
"""


class TestLessCommonForms:
    @pytest.mark.parametrize("name, args, want", [
        ("addr_param", [5, 1.5], 11),
        ("addr_local", [7], 10),
        ("pointers", ["a", "s", 5], 20 + 20 + 5 + 1 + 20 + 5),
        ("spin", [9], 9),
        ("fall", ["a", 0], 0),
        ("decay", [40], 42),
    ])
    def test_against_python(self, name, args, want):
        """The IR interpreter, then the VM and x86 running the
        compiled module, give the value worked out by hand."""
        from repro.core import deploy, offline_compile
        from repro.semantics import Memory
        from repro.targets import Simulator
        from repro.vm import VM
        arrays = {"a": (ty.I32, [10, 20, 30]), "s": (ty.U8, [1] * 8)}
        assert run_ir(FORMS, name, args, arrays=arrays)[0] == want
        artifact = offline_compile(FORMS, "forms")
        for image in (artifact.bytecode, deploy(artifact, "x86", "split")):
            memory = Memory()
            places = {key: memory.alloc_array(*arrays[key])
                      for key in arrays}
            concrete = [places.get(a, a) if isinstance(a, str) else a
                        for a in args]
            if image is artifact.bytecode:
                got = VM(image, memory).call(name, concrete)
            else:
                got = Simulator(image, memory).run(name, concrete).value
            assert got == want, image
