"""VM interpreter tests: functional execution of PVI bytecode."""

import pytest

from repro.bytecode import emit_module
from repro.frontend import lower_source
from repro.lang import types as ty
from repro.opt import PassManager, standard_passes
from repro.opt.vectorize import vectorize
from repro.semantics import Memory, TrapError
from repro.vm import VM
from tests.support import lower_checked


def make_vm(source, optimize=False, do_vectorize=False, memory=None):
    module = lower_checked(source)
    if optimize:
        for func in module:
            PassManager(standard_passes(), verify=True).run(func)
    if do_vectorize:
        for func in module:
            vectorize(func)
    bc, _ = emit_module(module)
    return VM(bc, memory=memory)


class TestScalarExecution:
    def test_arithmetic(self):
        vm = make_vm("int f(int a, int b) { return a * b - a / b; }")
        assert vm.call("f", [17, 5]) == 17 * 5 - 17 // 5

    def test_recursion(self):
        vm = make_vm("int fib(int n) { if (n < 2) return n; "
                     "return fib(n-1) + fib(n-2); }")
        assert vm.call("fib", [15]) == 610

    def test_void_function(self):
        memory = Memory()
        vm = make_vm("void set(int *p, int v) { *p = v; }",
                     memory=memory)
        addr = memory.alloc_array(ty.I32, [0])
        assert vm.call("set", [addr, 99]) is None
        assert memory.load(ty.I32, addr) == 99

    def test_call_chain(self):
        vm = make_vm("""
            int square(int x) { return x * x; }
            int cube(int x) { return square(x) * x; }
            int f(int x) { return cube(x) + square(x); }
        """)
        assert vm.call("f", [5]) == 125 + 25

    def test_local_arrays(self):
        vm = make_vm("""
            int f(int n) {
                int fibs[20];
                fibs[0] = 0; fibs[1] = 1;
                for (int i = 2; i < 20; i++)
                    fibs[i] = fibs[i-1] + fibs[i-2];
                return fibs[n];
            }""")
        assert vm.call("f", [10]) == 55

    def test_division_by_zero_traps(self):
        vm = make_vm("int f(int a) { return 10 / a; }")
        with pytest.raises(TrapError):
            vm.call("f", [0])

    def test_infinite_loop_exhausts_fuel(self):
        module = lower_checked("int f(void) { while (1) {} return 0; }")
        bc, _ = emit_module(module)
        vm = VM(bc, fuel=10_000)
        with pytest.raises(TrapError):
            vm.call("f", [])

    def test_float_math(self):
        vm = make_vm("""
            double norm(double x, double y) {
                return x * x + y * y;
            }""")
        assert vm.call("norm", [3.0, 4.0]) == 25.0

    def test_argument_coercion(self):
        vm = make_vm("int f(unsigned char c) { return c; }")
        assert vm.call("f", [255]) == 255
        assert vm.call("f", [2.9]) == 2         # a float is converted
        with pytest.raises(TrapError, match="argument 0 = 300 is not an u8"):
            vm.call("f", [300])                 # an int is not wrapped

    def test_unknown_function(self):
        vm = make_vm("int f(void) { return 0; }")
        with pytest.raises(TrapError):
            vm.call("ghost", [])

    def test_wrong_arity(self):
        vm = make_vm("int f(int a) { return a; }")
        with pytest.raises(TrapError):
            vm.call("f", [1, 2])


class TestVectorExecution:
    def test_vectorized_sum_matches_scalar(self):
        source = """
            int sum_u8(unsigned char *a, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a[i];
                return s;
            }"""
        values = list(range(100, 155))
        mem1, mem2 = Memory(), Memory()
        scalar_vm = make_vm(source, optimize=True, memory=mem1)
        vector_vm = make_vm(source, optimize=True, do_vectorize=True,
                            memory=mem2)
        a1 = mem1.alloc_array(ty.U8, values)
        a2 = mem2.alloc_array(ty.U8, values)
        assert scalar_vm.call("sum_u8", [a1, len(values)]) == \
            vector_vm.call("sum_u8", [a2, len(values)]) == sum(values)

    def test_vectorized_saxpy_updates_memory(self):
        source = """
            void saxpy(int n, float a, float *x, float *y) {
                for (int i = 0; i < n; i++) y[i] = a * x[i] + y[i];
            }"""
        memory = Memory()
        vm = make_vm(source, optimize=True, do_vectorize=True,
                     memory=memory)
        n = 21
        x = memory.alloc_array(ty.F32, [float(i) for i in range(n)])
        y = memory.alloc_array(ty.F32, [1.0] * n)
        vm.call("saxpy", [n, 2.0, x, y])
        assert memory.read_array(ty.F32, y, n) == \
            [2.0 * i + 1.0 for i in range(n)]


class TestVMvsIRInterpreter:
    """The VM and the IR interpreter must agree on everything."""

    CASES = [
        ("int f(int a, int b) { return (a << 3) ^ (b >> 1); }",
         "f", [123, -456]),
        ("int f(int n) { int s = 0; for (int i = 0; i < n; i++) "
         "s += i * i; return s; }", "f", [50]),
        ("unsigned f(unsigned a) { return a * 2654435761u; }",
         "f", [987654321]),
        ("double f(double x) { double r = 1.0; for (int i = 0; i < 10;"
         " i++) r = r * x; return r; }", "f", [1.1]),
        ("int f(int x) { return x > 0 ? x : -x; }", "f", [-17]),
    ]

    @pytest.mark.parametrize("source, entry, args", CASES)
    def test_agreement(self, source, entry, args):
        from repro.ir.interp import IRInterpreter
        module = lower_checked(source)
        expected = IRInterpreter(module).call(entry, args)
        bc, _ = emit_module(module)
        assert VM(bc).call(entry, args) == expected

    @pytest.mark.parametrize("source, entry, args", CASES)
    def test_agreement_after_optimization(self, source, entry, args):
        from repro.ir.interp import IRInterpreter
        plain = lower_checked(source)
        expected = IRInterpreter(plain).call(entry, args)
        optimized = lower_checked(source)
        for func in optimized:
            PassManager(standard_passes(), verify=True).run(func)
        bc, _ = emit_module(optimized)
        assert VM(bc).call(entry, args) == expected


class TestEveryEngineOnLessCommonCode:
    """Code the corpus does not hand every engine: a ``select`` and a
    stack frame under the reference ladder, a rounding f32 negation
    and an argument-free call inside tier-2, and code that runs off
    its end."""

    SOURCE = """
        int pick(int a, int b, int x) { if (a == b) x = a; return x; }
        int framed(int k) { int a[4]; a[k] = 7; return a[k] + k; }
        float neg(float x) { return -x; }
        int three(void) { return 3; }
        int callee_free(int k) { return three() + k; }
    """

    @pytest.mark.parametrize("engine", ["reference", "fast", "tier2"])
    def test_values(self, engine):
        from repro.core import offline_compile
        bytecode = offline_compile(self.SOURCE, "m").bytecode
        ops = {i.op for i in bytecode.functions["pick"].code}
        assert "select" in ops
        vm = VM(bytecode, Memory(), engine=engine)
        assert [vm.call("pick", [2, 2, 9]), vm.call("pick", [2, 3, 9])] \
            == [2, 9]
        assert vm.call("framed", [2]) == 9
        assert vm.call("neg", [1.5]) == -1.5
        assert vm.call("callee_free", [4]) == 7

    @pytest.mark.parametrize("engine", ["reference", "fast", "tier2"])
    def test_running_off_the_end_traps(self, engine):
        from repro.bytecode import BCInstr
        from repro.bytecode.module import BytecodeFunction, BytecodeModule
        module = BytecodeModule("m")
        module.add(BytecodeFunction("f", [], "i32", [], code=[
            BCInstr("const", "i32", 1), BCInstr("pop")]))
        vm = VM(module, Memory(), verify=False, engine=engine)
        with pytest.raises(TrapError, match="^f: fell off code end$"):
            vm.call("f", [])
