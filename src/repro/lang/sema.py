"""Semantic analysis for MiniC.

``check(program)`` type-checks the AST in place:

* every :class:`~repro.lang.ast.Expr` node receives a ``ty`` attribute;
* implicit conversions are materialized as ``Cast`` nodes, so lowering
  never has to re-derive C conversion rules;
* every ``Ident`` receives a ``decl`` attribute pointing at its
  declaration (``VarDecl`` or ``Param``), and every declaration gets a
  unique ``uid``, which makes shadowing trivial for the lowering pass;
* compound assignments receive a ``compute_ty`` attribute: the usual-
  arithmetic-conversion type in which the implied binary operation is
  evaluated before being converted back to the target's type.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.lang import ast
from repro.lang import types as ty
from repro.lang.errors import SemanticError


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Dict[str, ast.Node] = {}

    def declare(self, name: str, decl: ast.Node) -> None:
        if name in self.names:
            raise SemanticError(f"redeclaration of {name!r}",
                                line=decl.line, col=decl.col)
        self.names[name] = decl

    def lookup(self, name: str) -> Optional[ast.Node]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


def _decl_type(decl: ast.Node) -> ty.Type:
    if isinstance(decl, ast.VarDecl):
        return decl.var_type
    return decl.param_type              # an ast.Param


class _Checker:
    def __init__(self, program: ast.Program):
        self.program = program
        self.functions: Dict[str, ast.FuncDef] = {}
        self.current: Optional[ast.FuncDef] = None
        self.loop_depth = 0
        self._uid = 0

    def error(self, message: str, node: ast.Node) -> SemanticError:
        return SemanticError(message, line=node.line, col=node.col)

    def fresh_uid(self) -> int:
        self._uid += 1
        return self._uid

    # -- helpers -------------------------------------------------------------

    def coerce(self, expr: ast.Expr, target: ty.Type) -> ast.Expr:
        """Insert an implicit conversion of ``expr`` to ``target`` if needed."""
        assert expr.ty is not None
        src = ty.decay(expr.ty)
        if src == target:
            return expr
        if not ty.can_convert(src, target):
            raise self.error(f"cannot convert {src} to {target}", expr)
        cast = ast.Cast(target_type=target, operand=expr,
                        line=expr.line, col=expr.col)
        cast.ty = target
        return cast

    def require_scalar(self, expr: ast.Expr, what: str) -> None:
        if not ty.is_scalar(ty.decay(expr.ty)):
            raise self.error(f"{what} must be scalar, got {expr.ty}", expr)

    # -- program -------------------------------------------------------------

    def run(self) -> None:
        for func in self.program.funcs:
            prior = self.functions.get(func.name)
            if prior is not None:
                same_sig = (prior.ret_type == func.ret_type and
                            [p.param_type for p in prior.params] ==
                            [p.param_type for p in func.params])
                if not same_sig:
                    raise self.error(
                        f"conflicting declarations of {func.name!r}", func)
                if prior.body is not None and func.body is not None:
                    raise self.error(f"redefinition of {func.name!r}", func)
                if func.body is not None:
                    self.functions[func.name] = func
            else:
                self.functions[func.name] = func
        for func in self.program.funcs:
            if func.body is not None:
                self.check_func(func)

    def check_func(self, func: ast.FuncDef) -> None:
        self.current = func
        scope = _Scope()
        for param in func.params:
            if isinstance(param.param_type, ty.VoidType):
                raise self.error("parameter of void type", param)
            param.uid = self.fresh_uid()
            scope.declare(param.name, param)
        self.check_block(func.body, _Scope(scope))
        self.current = None

    # -- statements ------------------------------------------------------------

    def check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Block):
            self.check_block(stmt, _Scope(scope))
        elif isinstance(stmt, ast.VarDecl):
            self.check_vardecl(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self.check_expr(stmt.cond, scope)
            self.require_scalar(stmt.cond, "if condition")
            self.check_stmt(stmt.then, scope)
            if stmt.otherwise is not None:
                self.check_stmt(stmt.otherwise, scope)
        elif isinstance(stmt, ast.While):
            self.check_expr(stmt.cond, scope)
            self.require_scalar(stmt.cond, "while condition")
            self.loop_depth += 1
            self.check_stmt(stmt.body, scope)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.DoWhile):
            self.loop_depth += 1
            self.check_stmt(stmt.body, scope)
            self.loop_depth -= 1
            self.check_expr(stmt.cond, scope)
            self.require_scalar(stmt.cond, "do-while condition")
        elif isinstance(stmt, ast.For):
            inner = _Scope(scope)
            if stmt.init is not None:
                self.check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self.check_expr(stmt.cond, inner)
                self.require_scalar(stmt.cond, "for condition")
            if stmt.step is not None:
                self.check_expr(stmt.step, inner)
            self.loop_depth += 1
            self.check_stmt(stmt.body, inner)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.Return):
            ret = self.current.ret_type
            if stmt.value is None:
                if not isinstance(ret, ty.VoidType):
                    raise self.error("non-void function must return a value",
                                     stmt)
            else:
                if isinstance(ret, ty.VoidType):
                    raise self.error("void function cannot return a value",
                                     stmt)
                self.check_expr(stmt.value, scope)
                stmt.value = self.coerce(stmt.value, ret)
        elif isinstance(stmt, ast.Break):
            if self.loop_depth == 0:
                raise self.error("break outside loop", stmt)
        elif self.loop_depth == 0:        # an ast.Continue
            raise self.error("continue outside loop", stmt)

    def check_block(self, block: ast.Block, scope: _Scope) -> None:
        for stmt in block.stmts:
            self.check_stmt(stmt, scope)

    def check_vardecl(self, decl: ast.VarDecl, scope: _Scope) -> None:
        if isinstance(decl.var_type, ty.VoidType):
            raise self.error("variable of void type", decl)
        decl.uid = self.fresh_uid()
        if decl.init is not None:
            if isinstance(decl.var_type, ty.ArrayType):
                raise self.error("array initializers are not supported", decl)
            self.check_expr(decl.init, scope)
            decl.init = self.coerce(decl.init, decl.var_type)
        scope.declare(decl.name, decl)

    # -- expressions -------------------------------------------------------------

    def check_expr(self, expr: ast.Expr, scope: _Scope) -> ty.Type:
        method = getattr(self, f"_check_{type(expr).__name__}")
        result = method(expr, scope)
        expr.ty = result
        return result

    def _check_IntLit(self, expr: ast.IntLit, scope: _Scope) -> ty.Type:
        return ty.I32 if -(2**31) <= expr.value < 2**31 else ty.I64

    def _check_FloatLit(self, expr: ast.FloatLit, scope: _Scope) -> ty.Type:
        return ty.F32 if getattr(expr, "single", False) else ty.F64

    def _check_Ident(self, expr: ast.Ident, scope: _Scope) -> ty.Type:
        decl = scope.lookup(expr.name)
        if decl is None:
            raise self.error(f"use of undeclared identifier {expr.name!r}",
                             expr)
        expr.decl = decl
        return _decl_type(decl)

    def _check_Unary(self, expr: ast.Unary, scope: _Scope) -> ty.Type:
        operand_ty = ty.decay(self.check_expr(expr.operand, scope))
        if expr.op == "!":
            self.require_scalar(expr.operand, "operand of '!'")
            return ty.I32
        if expr.op == "~":
            if not ty.is_integer(operand_ty):
                raise self.error("operand of '~' must be integer", expr)
            promoted = ty.promote(operand_ty)
            expr.operand = self.coerce(expr.operand, promoted)
            return promoted
        # unary '-', the parser's last unary operator
        if not ty.is_arithmetic(operand_ty):
            raise self.error("operand of unary '-' must be arithmetic",
                             expr)
        promoted = ty.promote(operand_ty)
        expr.operand = self.coerce(expr.operand, promoted)
        return promoted

    def _check_Binary(self, expr: ast.Binary, scope: _Scope) -> ty.Type:
        left_ty = ty.decay(self.check_expr(expr.left, scope))
        right_ty = ty.decay(self.check_expr(expr.right, scope))
        op = expr.op

        if op in ("&&", "||"):
            self.require_scalar(expr.left, f"operand of {op!r}")
            self.require_scalar(expr.right, f"operand of {op!r}")
            return ty.I32

        if op in ("==", "!=", "<", "<=", ">", ">="):
            if ty.is_pointer(left_ty) and ty.is_pointer(right_ty):
                if left_ty != right_ty:
                    raise self.error("comparison of distinct pointer types",
                                     expr)
                return ty.I32
            if not (ty.is_arithmetic(left_ty) and ty.is_arithmetic(right_ty)):
                raise self.error(f"invalid operands to {op!r} "
                                 f"({left_ty} and {right_ty})", expr)
            common = ty.common_type(left_ty, right_ty)
            expr.left = self.coerce(expr.left, common)
            expr.right = self.coerce(expr.right, common)
            return ty.I32

        if op in ("<<", ">>"):
            if not (ty.is_integer(left_ty) and ty.is_integer(right_ty)):
                raise self.error(f"operands of {op!r} must be integers", expr)
            promoted = ty.promote(left_ty)
            expr.left = self.coerce(expr.left, promoted)
            expr.right = self.coerce(expr.right, ty.I32)
            return promoted

        if op in ("&", "|", "^", "%"):
            if not (ty.is_integer(left_ty) and ty.is_integer(right_ty)):
                raise self.error(f"operands of {op!r} must be integers", expr)
            common = ty.common_type(left_ty, right_ty)
            expr.left = self.coerce(expr.left, common)
            expr.right = self.coerce(expr.right, common)
            return common

        if op in ("+", "-"):
            if ty.is_pointer(left_ty) and ty.is_integer(right_ty):
                expr.right = self.coerce(expr.right, ty.I64)
                return left_ty
            if op == "+" and ty.is_integer(left_ty) and ty.is_pointer(right_ty):
                expr.left = self.coerce(expr.left, ty.I64)
                return right_ty
            if op == "-" and ty.is_pointer(left_ty) and ty.is_pointer(right_ty):
                if left_ty != right_ty:
                    raise self.error("subtraction of distinct pointer types",
                                     expr)
                return ty.I64

        # "+", "-", "*" and "/", the parser's last binary operators
        if not (ty.is_arithmetic(left_ty) and ty.is_arithmetic(right_ty)):
            raise self.error(f"invalid operands to {op!r} "
                             f"({left_ty} and {right_ty})", expr)
        common = ty.common_type(left_ty, right_ty)
        expr.left = self.coerce(expr.left, common)
        expr.right = self.coerce(expr.right, common)
        return common

    def _check_Assign(self, expr: ast.Assign, scope: _Scope) -> ty.Type:
        target_ty = self.check_expr(expr.target, scope)
        if not ast.is_lvalue(expr.target):
            raise self.error("assignment target is not an lvalue", expr)
        if isinstance(target_ty, ty.ArrayType):
            raise self.error("cannot assign to an array", expr)
        self.check_expr(expr.value, scope)
        if expr.op == "=":
            expr.value = self.coerce(expr.value, target_ty)
            expr.compute_ty = target_ty
            return target_ty
        binop = expr.op[:-1]
        value_ty = ty.decay(expr.value.ty)
        if ty.is_pointer(target_ty):
            if binop not in ("+", "-") or not ty.is_integer(value_ty):
                raise self.error(
                    f"invalid compound assignment {expr.op!r} on pointer",
                    expr)
            expr.value = self.coerce(expr.value, ty.I64)
            expr.compute_ty = target_ty
            return target_ty
        if binop in ("&", "|", "^", "%", "<<", ">>"):
            if not (ty.is_integer(target_ty) and ty.is_integer(value_ty)):
                raise self.error(
                    f"operands of {expr.op!r} must be integers", expr)
        elif not (ty.is_arithmetic(target_ty) and ty.is_arithmetic(value_ty)):
            raise self.error(f"invalid operands to {expr.op!r}", expr)
        if binop in ("<<", ">>"):
            compute = ty.promote(target_ty)
            expr.value = self.coerce(expr.value, ty.I32)
        else:
            compute = ty.common_type(target_ty, value_ty)
            expr.value = self.coerce(expr.value, compute)
        expr.compute_ty = compute
        return target_ty

    def _check_IncDec(self, expr: ast.IncDec, scope: _Scope) -> ty.Type:
        target_ty = self.check_expr(expr.target, scope)
        if not ast.is_lvalue(expr.target):
            raise self.error(f"operand of {expr.op!r} is not an lvalue", expr)
        target_ty = ty.decay(target_ty)
        if not (ty.is_arithmetic(target_ty) or ty.is_pointer(target_ty)):
            raise self.error(
                f"operand of {expr.op!r} must be arithmetic or pointer", expr)
        return target_ty

    def _check_Conditional(self, expr: ast.Conditional,
                           scope: _Scope) -> ty.Type:
        self.check_expr(expr.cond, scope)
        self.require_scalar(expr.cond, "'?:' condition")
        then_ty = ty.decay(self.check_expr(expr.then, scope))
        else_ty = ty.decay(self.check_expr(expr.otherwise, scope))
        if ty.is_arithmetic(then_ty) and ty.is_arithmetic(else_ty):
            common = ty.common_type(then_ty, else_ty)
            expr.then = self.coerce(expr.then, common)
            expr.otherwise = self.coerce(expr.otherwise, common)
            return common
        if then_ty == else_ty:
            return then_ty
        raise self.error("incompatible '?:' branch types", expr)

    def _check_Call(self, expr: ast.Call, scope: _Scope) -> ty.Type:
        func = self.functions.get(expr.name)
        if func is None:
            raise self.error(f"call to undeclared function {expr.name!r}",
                             expr)
        if len(expr.args) != len(func.params):
            raise self.error(
                f"{expr.name!r} expects {len(func.params)} arguments, "
                f"got {len(expr.args)}", expr)
        for i, (arg, param) in enumerate(zip(expr.args, func.params)):
            self.check_expr(arg, scope)
            expr.args[i] = self.coerce(arg, param.param_type)
        expr.callee = func
        return func.ret_type

    def _check_Index(self, expr: ast.Index, scope: _Scope) -> ty.Type:
        base_ty = self.check_expr(expr.base, scope)
        index_ty = self.check_expr(expr.index, scope)
        if not ty.is_integer(ty.decay(index_ty)):
            raise self.error("array index must be an integer", expr)
        expr.index = self.coerce(expr.index, ty.I64)
        base_ty = base_ty if isinstance(base_ty, ty.ArrayType) \
            else ty.decay(base_ty)
        if isinstance(base_ty, ty.ArrayType):
            return base_ty.elem
        if isinstance(base_ty, ty.PointerType):
            return base_ty.pointee
        raise self.error(f"cannot index a value of type {base_ty}", expr)

    def _check_Deref(self, expr: ast.Deref, scope: _Scope) -> ty.Type:
        operand_ty = ty.decay(self.check_expr(expr.operand, scope))
        if not isinstance(operand_ty, ty.PointerType):
            raise self.error("cannot dereference a non-pointer", expr)
        return operand_ty.pointee

    def _check_AddrOf(self, expr: ast.AddrOf, scope: _Scope) -> ty.Type:
        operand_ty = self.check_expr(expr.operand, scope)
        if not ast.is_lvalue(expr.operand):
            raise self.error("cannot take the address of an rvalue", expr)
        if isinstance(operand_ty, ty.ArrayType):
            return ty.PointerType(operand_ty.elem)
        return ty.PointerType(operand_ty)

    def _check_Cast(self, expr: ast.Cast, scope: _Scope) -> ty.Type:
        operand_ty = ty.decay(self.check_expr(expr.operand, scope))
        target = expr.target_type
        if isinstance(target, ty.VoidType):
            return target
        if ty.is_arithmetic(operand_ty) and ty.is_arithmetic(target):
            return target
        if ty.is_pointer(operand_ty) and ty.is_pointer(target):
            return target
        if ty.is_pointer(operand_ty) and ty.is_integer(target) and \
                target.bits == 64:
            return target
        if ty.is_integer(operand_ty) and ty.is_pointer(target):
            return target
        raise self.error(f"invalid cast from {operand_ty} to {target}", expr)

    def _check_SizeOf(self, expr: ast.SizeOf, scope: _Scope) -> ty.Type:
        return ty.U64


def check(program: ast.Program) -> ast.Program:
    """Type-check ``program`` in place and return it."""
    _Checker(program).run()
    return program
