"""Semantic analysis unit tests."""

import pytest

from repro.lang import ast, parse_and_check
from repro.lang import types as ty
from repro.lang.errors import SemanticError


def check_ok(source):
    return parse_and_check(source)


def check_fails(source):
    with pytest.raises(SemanticError) as exc:
        parse_and_check(source)
    return exc.value


def ret_expr(source):
    """The (typed) expression of the first return in the first function."""
    program = parse_and_check(source)
    for node in ast.walk(program.funcs[0]):
        if isinstance(node, ast.Return):
            return node.value
    raise AssertionError("no return found")


class TestTyping:
    def test_int_plus_int_is_int(self):
        expr = ret_expr("int f(int a, int b) { return a + b; }")
        assert expr.ty == ty.I32

    def test_char_promotes_to_int(self):
        expr = ret_expr("int f(char a, char b) { return a + b; }")
        assert expr.ty == ty.I32
        # both operands must have been cast up
        assert isinstance(expr.left, ast.Cast)
        assert expr.left.ty == ty.I32

    def test_mixed_int_float_promotes_to_float(self):
        expr = ret_expr("float f(int a, float b) { return a + b; }")
        assert expr.ty == ty.F32
        assert isinstance(expr.left, ast.Cast)

    def test_float_plus_double_is_double(self):
        src = "double f(float a, double b) { return a + b; }"
        assert ret_expr(src).ty == ty.F64

    def test_unsigned_wins_at_equal_width(self):
        expr = ret_expr("unsigned f(int a, unsigned b) { return a + b; }")
        assert expr.ty == ty.U32

    def test_comparison_yields_int(self):
        expr = ret_expr("int f(float a, float b) { return a < b; }")
        assert expr.ty == ty.I32

    def test_pointer_indexing_type(self):
        expr = ret_expr("short f(short *p) { return p[3]; }")
        assert expr.ty == ty.I16

    def test_index_coerced_to_i64(self):
        src = "int f(int *p, int i) { return p[i]; }"
        expr = ret_expr(src)
        assert isinstance(expr.index, ast.Cast)
        assert expr.index.ty == ty.I64

    def test_addrof_type(self):
        expr = ret_expr("int *f(int x) { return &x; }")
        assert expr.ty == ty.PointerType(ty.I32)

    def test_pointer_difference_is_i64(self):
        expr = ret_expr("long f(int *a, int *b) { return a - b; }")
        assert expr.ty == ty.I64

    def test_pointer_plus_int_keeps_pointer_type(self):
        expr = ret_expr("int *f(int *p, int i) { return p + i; }")
        assert expr.ty == ty.PointerType(ty.I32)

    def test_float_literal_is_double_by_default(self):
        expr = ret_expr("double f(void) { return 1.5; }")
        assert expr.ty == ty.F64

    def test_float_literal_with_suffix_is_single(self):
        expr = ret_expr("float f(void) { return 1.5f; }")
        assert expr.ty == ty.F32

    def test_return_value_coerced(self):
        expr = ret_expr("char f(int x) { return x; }")
        assert isinstance(expr, ast.Cast)
        assert expr.ty == ty.I8

    def test_call_arguments_coerced(self):
        program = check_ok("""
            float g(float x) { return x; }
            float f(int a) { return g(a); }
        """)
        call = program.funcs[1].body.stmts[0].value
        assert isinstance(call.args[0], ast.Cast)
        assert call.args[0].ty == ty.F32

    def test_compound_assign_records_compute_type(self):
        program = check_ok("int f(char c, int x) { c += x; return c; }")
        assign = program.funcs[0].body.stmts[0].expr
        assert assign.compute_ty == ty.I32

    def test_shadowing_in_nested_scope(self):
        program = check_ok("""
            int f(int x) {
                int y = x;
                { int y = 2 * x; y = y + 1; }
                return y;
            }""")
        outer = program.funcs[0].body.stmts[0]
        inner = program.funcs[0].body.stmts[1].stmts[0]
        assert outer.uid != inner.uid

    def test_ident_links_to_declaration(self):
        program = check_ok("int f(int x) { return x; }")
        ret = program.funcs[0].body.stmts[0]
        assert ret.value.decl is program.funcs[0].params[0]

    def test_sizeof_is_u64(self):
        assert ret_expr(
            "unsigned long f(void) { return sizeof(int); }").ty == ty.U64

    def test_conditional_common_type(self):
        src = "double f(int c, float a, double b) { return c ? a : b; }"
        assert ret_expr(src).ty == ty.F64


class TestRejections:
    @pytest.mark.parametrize("source, fragment", [
        ("int f(void) { return x; }", "undeclared"),
        ("int f(void) { g(); return 0; }", "undeclared function"),
        ("int f(int x) { int x = 1; int x = 2; return x; }", "redeclaration"),
        ("int f(void) { return 1; } int f(void) { return 2; }",
         "redefinition"),
        ("int f(int a); int f(float b) { return 0; }", "conflicting"),
        ("void f(float x) { x % 2; }", "integers"),
        ("void f(float x) { x & 1; }", "integers"),
        ("void f(int *p, float *q) { p - q; }", "distinct pointer"),
        ("void f(int *p, float f2) { p[f2]; }", "index"),
        ("void f(int x) { x[0]; }", "cannot index"),
        ("void f(int x) { *x; }", "dereference"),
        ("void f(void) { &3; }", "address of an rvalue"),
        ("void f(int x) { 3 = x; }", "not an lvalue"),
        ("void f(int a) { break; }", "break outside loop"),
        ("void f(int a) { continue; }", "continue outside loop"),
        ("int f(void) { return; }", "must return a value"),
        ("void f(void) { return 3; }", "cannot return a value"),
        ("void f(int n) { int a[4]; a = 0; }", "array"),
        ("void f(int g) { g(3); }", "undeclared function"),
        ("int f(int a) { return f(1, 2); }", "arguments"),
        ("void f(void a) {}", "void"),
        ("void f(void) { void x; }", "void"),
        ("void f(int *p, float f2) { p + f2 ? 0 : 1; }", "invalid operands"),
    ])
    def test_rejects(self, source, fragment):
        error = check_fails(source)
        assert fragment.lower() in str(error).lower()

    def test_pointer_mismatch_assignment_rejected(self):
        check_fails("void f(int *p, float *q) { p = q; }")

    def test_void_call_in_expression_rejected(self):
        check_fails("""
            void g(void) {}
            int f(void) { return g() + 1; }
        """)


#: (site, a program sema rejects there, its whole diagnostic)
SEMA_REJECTIONS = [
    ("convert", 'int f(int *p) { int x = p; return x; }',
     '<minic>:1:25: cannot convert i32* to i32'),
    ("scalar", 'void g(void) {} int f(void) { return g() && 1; }',
     "<minic>:1:38: operand of '&&' must be scalar, got void"),
    ("conflicting", 'int f(int a); long f(int a) { return a; }',
     "<minic>:1:15: conflicting declarations of 'f'"),
    ("redefinition", 'int f(void) { return 0; } int f(void) { return 1; }',
     "<minic>:1:27: redefinition of 'f'"),
    ("void param", 'int f(void v) { return 0; }',
     '<minic>:1:1: parameter of void type'),
    ("missing value", 'int f(void) { return; }',
     '<minic>:1:15: non-void function must return a value'),
    ("void value", 'void f(void) { return 1; }',
     '<minic>:1:16: void function cannot return a value'),
    ("break", 'void f(void) { break; }',
     '<minic>:1:16: break outside loop'),
    ("continue", 'void f(void) { continue; }',
     '<minic>:1:16: continue outside loop'),
    ("void variable", 'void f(void) { void v; }',
     '<minic>:1:16: variable of void type'),
    ("array initializer", 'void f(void) { int a[2] = 0; }',
     '<minic>:1:16: array initializers are not supported'),
    ("undeclared", 'int f(void) { return y; }',
     "<minic>:1:22: use of undeclared identifier 'y'"),
    ("bitwise not", 'int f(float x) { return ~x; }',
     "<minic>:1:25: operand of '~' must be integer"),
    ("negate", 'int f(int *p) { return -p; }',
     "<minic>:1:24: operand of unary '-' must be arithmetic"),
    ("distinct pointer compare", 'int f(int *p, long *q) { return p < q; }',
     '<minic>:1:35: comparison of distinct pointer types'),
    ("compare operands", 'int f(int *p, float x) { return p < x; }',
     "<minic>:1:35: invalid operands to '<' (i32* and f32)"),
    ("shift operands", 'int f(float x) { return x << 1; }',
     "<minic>:1:27: operands of '<<' must be integers"),
    ("bitwise operands", 'int f(float x) { return x & 1; }',
     "<minic>:1:27: operands of '&' must be integers"),
    ("distinct pointer subtract", 'long f(int *p, long *q) { return p - q; }',
     '<minic>:1:36: subtraction of distinct pointer types'),
    ("arithmetic operands", 'int f(int *p, int *q) { return p * q; }',
     "<minic>:1:34: invalid operands to '*' (i32* and i32*)"),
    ("assign rvalue", 'int f(int a) { a + 1 = 2; return a; }',
     '<minic>:1:22: assignment target is not an lvalue'),
    ("assign array", 'void f(void) { int a[2]; int b[2]; a = b; }',
     '<minic>:1:38: cannot assign to an array'),
    ("pointer compound", 'void f(int *p) { p *= 2; }',
     "<minic>:1:20: invalid compound assignment '*=' on pointer"),
    ("compound integers", 'void f(float x) { x <<= 1; }',
     "<minic>:1:21: operands of '<<=' must be integers"),
    ("compound operands", 'void f(int *p, float x) { x += p; }',
     "<minic>:1:29: invalid operands to '+='"),
    ("incdec rvalue", 'int f(int a) { return (a + 1)++; }',
     "<minic>:1:30: operand of '++' is not an lvalue"),
    ("incdec type", 'void f(void *p) { (*p)++; }',
     "<minic>:1:23: operand of '++' must be arithmetic or pointer"),
    ("conditional", 'int f(int c, int *p) { return c ? p : 1.5; }',
     "<minic>:1:33: incompatible '?:' branch types"),
    ("undeclared call", 'int f(void) { return g(); }',
     "<minic>:1:22: call to undeclared function 'g'"),
    ("arity", 'int g(int a) { return a; } int f(void) { return g(); }',
     "<minic>:1:49: 'g' expects 1 arguments, got 0"),
    ("index type", 'int f(int *p, float x) { return p[x]; }',
     '<minic>:1:34: array index must be an integer'),
    ("index base", 'int f(int a) { return a[0]; }',
     '<minic>:1:24: cannot index a value of type i32'),
    ("dereference", 'int f(int a) { return *a; }',
     '<minic>:1:23: cannot dereference a non-pointer'),
    ("address of rvalue", 'long f(int a) { return (long) &(a + 1); }',
     '<minic>:1:31: cannot take the address of an rvalue'),
    ("cast", 'int f(float *p) { return (float) p; }',
     '<minic>:1:26: invalid cast from f32* to f32'),
]


class TestRejectionSites:
    """Every diagnostic sema can give is reached by a program, and
    reads as written."""

    @pytest.mark.parametrize("site, source, message", SEMA_REJECTIONS,
                             ids=[row[0] for row in SEMA_REJECTIONS])
    def test_rejects(self, site, source, message):
        assert str(check_fails(source)) == message

    def test_every_site_has_a_row(self):
        """A new diagnostic in sema needs a row above."""
        import inspect
        from repro.lang import sema
        text = inspect.getsource(sema)
        assert text.count("raise self.error(") == len(SEMA_REJECTIONS)


class TestPointerForms:
    def test_conditional_of_one_pointer_type(self):
        assert ret_expr("int *f(int c, int *p, int *q) "
                        "{ return c ? p : q; }").ty == \
            ty.PointerType(ty.I32)

    def test_address_of_an_array_is_its_first_element(self):
        program = check_ok("int f(void) { int a[2]; int *p = &a; "
                           "p[0] = 5; return a[0]; }")
        decl = program.funcs[0].body.stmts[1]
        assert decl.init.ty == ty.PointerType(ty.I32)

    def test_pointer_to_a_64_bit_integer(self):
        assert ret_expr("long f(int *p) { return (long) p; }").ty == ty.I64
