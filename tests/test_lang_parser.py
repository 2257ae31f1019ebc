"""Parser unit tests."""

import pytest

from repro.lang import ast
from repro.lang import types as ty
from repro.lang.errors import ParseError
from repro.lang.parser import parse


def parse_expr(text):
    """Parse an expression by wrapping it in a function body."""
    program = parse(f"int f(void) {{ return {text}; }}")
    return program.funcs[0].body.stmts[0].value


class TestDeclarations:
    def test_simple_function(self):
        program = parse("int add(int a, int b) { return a + b; }")
        func = program.funcs[0]
        assert func.name == "add"
        assert func.ret_type == ty.I32
        assert [p.name for p in func.params] == ["a", "b"]

    def test_void_param_list(self):
        func = parse("int f(void) { return 0; }").funcs[0]
        assert func.params == []

    def test_pointer_types(self):
        func = parse("void f(float *x, char **y) {}").funcs[0]
        assert func.params[0].param_type == ty.PointerType(ty.F32)
        assert func.params[1].param_type == \
            ty.PointerType(ty.PointerType(ty.I8))

    def test_unsigned_types(self):
        func = parse("void f(unsigned char a, unsigned short b, "
                     "unsigned int c, unsigned long d) {}").funcs[0]
        got = [p.param_type for p in func.params]
        assert got == [ty.U8, ty.U16, ty.U32, ty.U64]

    def test_array_param_decays_to_pointer(self):
        func = parse("void f(int a[10]) {}").funcs[0]
        assert func.params[0].param_type == ty.PointerType(ty.I32)

    def test_local_array_declaration(self):
        program = parse("void f(void) { int buf[16]; }")
        decl = program.funcs[0].body.stmts[0]
        assert isinstance(decl, ast.VarDecl)
        assert decl.var_type == ty.ArrayType(ty.I32, 16)

    def test_two_dimensional_array(self):
        program = parse("void f(void) { float m[3][4]; }")
        decl = program.funcs[0].body.stmts[0]
        assert decl.var_type == ty.ArrayType(ty.ArrayType(ty.F32, 4), 3)

    def test_prototype_without_body(self):
        program = parse("int g(int x); int f(void) { return g(1); }")
        assert program.funcs[0].body is None

    def test_pointer_return_type(self):
        func = parse("int *f(int *p) { return p; }").funcs[0]
        assert func.ret_type == ty.PointerType(ty.I32)


class TestStatements:
    def test_if_else_chain(self):
        program = parse("""
            int f(int x) {
                if (x > 0) return 1;
                else if (x < 0) return -1;
                else return 0;
            }""")
        stmt = program.funcs[0].body.stmts[0]
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.otherwise, ast.If)

    def test_for_with_declaration(self):
        program = parse("void f(void) { for (int i = 0; i < 9; i++) ; }")
        loop = program.funcs[0].body.stmts[0]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.init, ast.VarDecl)
        assert isinstance(loop.step, ast.IncDec)

    def test_for_with_empty_clauses(self):
        program = parse("void f(void) { for (;;) break; }")
        loop = program.funcs[0].body.stmts[0]
        assert loop.init is None and loop.cond is None and loop.step is None

    def test_do_while(self):
        program = parse("void f(int n) { do { n--; } while (n); }")
        stmt = program.funcs[0].body.stmts[0]
        assert isinstance(stmt, ast.DoWhile)

    def test_break_continue(self):
        program = parse(
            "void f(void) { while (1) { if (1) break; continue; } }")
        body = program.funcs[0].body.stmts[0].body
        assert isinstance(body.stmts[1], ast.Continue)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_shift_vs_relational(self):
        expr = parse_expr("1 << 2 < 3")
        assert expr.op == "<"
        assert expr.left.op == "<<"

    def test_logical_precedence(self):
        expr = parse_expr("a || b && c")
        assert expr.op == "||"
        assert expr.right.op == "&&"

    def test_assignment_right_associative(self):
        program = parse("void f(int a, int b) { a = b = 1; }")
        expr = program.funcs[0].body.stmts[0].expr
        assert isinstance(expr, ast.Assign)
        assert isinstance(expr.value, ast.Assign)

    def test_conditional_expression(self):
        expr = parse_expr("a ? b : c ? d : e")
        assert isinstance(expr, ast.Conditional)
        assert isinstance(expr.otherwise, ast.Conditional)

    def test_cast_vs_parenthesized(self):
        cast = parse_expr("(float)x")
        assert isinstance(cast, ast.Cast)
        assert cast.target_type == ty.F32
        paren = parse_expr("(x)")
        assert isinstance(paren, ast.Ident)

    def test_cast_to_pointer(self):
        cast = parse_expr("(int*)p")
        assert cast.target_type == ty.PointerType(ty.I32)

    def test_sizeof_type(self):
        expr = parse_expr("sizeof(double)")
        assert isinstance(expr, ast.SizeOf)
        assert expr.target_type == ty.F64

    def test_unary_chain(self):
        expr = parse_expr("-~!x")
        assert expr.op == "-"
        assert expr.operand.op == "~"
        assert expr.operand.operand.op == "!"

    def test_deref_and_addressof(self):
        expr = parse_expr("*&x")
        assert isinstance(expr, ast.Deref)
        assert isinstance(expr.operand, ast.AddrOf)

    def test_call_with_arguments(self):
        expr = parse_expr("g(1, x + 2, h())")
        assert isinstance(expr, ast.Call)
        assert len(expr.args) == 3
        assert isinstance(expr.args[2], ast.Call)

    def test_index_chains(self):
        expr = parse_expr("m[i][j]")
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.base, ast.Index)

    def test_postfix_incdec(self):
        expr = parse_expr("x++")
        assert isinstance(expr, ast.IncDec)
        assert expr.is_postfix

    def test_unary_plus_is_identity(self):
        expr = parse_expr("+x")
        assert isinstance(expr, ast.Ident)


class TestParseErrors:
    @pytest.mark.parametrize("source", [
        "int f(void) { return 1 }",            # missing semicolon
        "int f(void) { return (1; }",          # unbalanced paren
        "int f(void) {",                       # unterminated block
        "int 2f(void) { return 0; }",          # bad name
        "int f(int) { return 0; }",            # unnamed param
        "banana f(void) { return 0; }",        # unknown type
        "int f(void) { sizeof(x); }",          # sizeof expr unsupported
        "int f(void) { int a[n]; }",           # non-constant array size
    ])
    def test_rejects(self, source):
        with pytest.raises(ParseError):
            parse(source)

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as exc:
            parse("int f(void) {\n  return 1 2;\n}")
        assert exc.value.line == 2


class TestLessCommonForms:
    def test_char_literal_is_an_int(self):
        lit = parse_expr("'a'")
        assert isinstance(lit, ast.IntLit) and lit.value == ord("a")

    def test_for_with_an_expression_initializer(self):
        program = parse("int f(int n) { int i; "
                        "for (i = 0; i < n; i++) ; return i; }")
        loop = program.funcs[0].body.stmts[1]
        assert isinstance(loop.init, ast.ExprStmt)
        assert isinstance(loop.init.expr, ast.Assign)

    @pytest.mark.parametrize("source, message", [
        (r"int f(void) { return '\q'; }",
         "<minic>:1:22: unknown escape in char literal"),
        ("short long f(void) { return 0; }",
         "<minic>:1:12: unsupported type 'short long'"),
        ("int f(void) { return 1 + ; }",
         "<minic>:1:26: unexpected token ';'"),
    ], ids=["escape", "type", "token"])
    def test_diagnostics(self, source, message):
        from repro.lang.errors import CompilerError
        with pytest.raises(CompilerError) as info:
            parse(source)
        assert str(info.value) == message
