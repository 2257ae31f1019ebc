"""Lower the typed MiniC AST into the mid-level register IR.

Conventions:

* pointers become ``u64`` byte addresses (the PVI memory is flat);
* every scalar local has a *home register*; assignment is a ``mov``.
  Arrays and address-taken locals live in frame slots instead and are
  accessed through ``frame_addr`` + ``load``/``store``;
* scalar locals are zero-initialized at their declaration — MiniC
  defines what C leaves undefined, which keeps differential testing
  between the interpreter and the JIT meaningful;
* short-circuit operators and ``?:`` lower to control flow writing a
  shared result register (the IR is not SSA, so multiple definitions
  are fine).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.lang import ast
from repro.lang import parse_and_check
from repro.lang import types as ty
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import Move
from repro.ir.values import Const, Value, VReg


def irtype(t: ty.Type) -> ty.Type:
    """Map a front-end type to its IR register type."""
    if isinstance(t, (ty.PointerType, ty.ArrayType)):
        return ty.U64
    return t


def _pointee_size(t: ty.Type) -> int:
    assert isinstance(t, ty.PointerType)
    return ty.sizeof(t.pointee)


#: An lvalue is either a home register or a memory address + type.
LValue = Tuple[str, Union[VReg, Value], ty.Type]


class _FuncLowerer:
    def __init__(self, ast_func: ast.FuncDef):
        self.ast_func = ast_func
        self.func = Function(ast_func.name, irtype(ast_func.ret_type))
        self.b = IRBuilder(self.func)
        self.homes: Dict[int, VReg] = {}       # decl uid -> home register
        self.slots: Dict[int, str] = {}        # decl uid -> frame slot name
        self.decl_types: Dict[int, ty.Type] = {}
        self.break_stack: List[BasicBlock] = []
        self.continue_stack: List[BasicBlock] = []
        self.addr_taken = self._find_address_taken()

    def _find_address_taken(self) -> set:
        taken = set()
        for node in ast.walk(self.ast_func):
            if isinstance(node, ast.AddrOf) and \
                    isinstance(node.operand, ast.Ident):
                taken.add(node.operand.decl.uid)
        return taken

    # -- entry ---------------------------------------------------------------

    def run(self) -> Function:
        entry = self.func.new_block("entry")
        self.b.set_block(entry)
        for param in self.ast_func.params:
            reg = self.func.new_param(irtype(param.param_type), param.name)
            self.decl_types[param.uid] = param.param_type
            if param.uid in self.addr_taken:
                slot = self.func.add_frame_slot(
                    param.name, ty.sizeof(irtype(param.param_type)),
                    ty.alignof(irtype(param.param_type)))
                self.slots[param.uid] = slot.name
                addr = self.b.frame_addr(slot.name)
                self.b.store(addr, reg, irtype(param.param_type))
            else:
                self.homes[param.uid] = reg
        self.lower_block(self.ast_func.body)
        self._ensure_terminated()
        return self.func

    def _ensure_terminated(self) -> None:
        if self.b.block.terminator is None:
            if isinstance(self.func.ret_ty, ty.VoidType):
                self.b.ret()
            else:
                self.b.ret(_zero(self.func.ret_ty))

    # -- statements ---------------------------------------------------------

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        method = getattr(self, f"_stmt_{type(stmt).__name__}")
        method(stmt)

    def lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self.lower_stmt(stmt)

    def _stmt_Block(self, stmt: ast.Block) -> None:
        self.lower_block(stmt)

    def _stmt_VarDecl(self, stmt: ast.VarDecl) -> None:
        self.decl_types[stmt.uid] = stmt.var_type
        if isinstance(stmt.var_type, ty.ArrayType):
            slot = self.func.add_frame_slot(
                stmt.name, ty.sizeof(stmt.var_type),
                ty.alignof(stmt.var_type))
            self.slots[stmt.uid] = slot.name
            return
        reg_ty = irtype(stmt.var_type)
        if stmt.uid in self.addr_taken:
            slot = self.func.add_frame_slot(
                stmt.name, ty.sizeof(reg_ty), ty.alignof(reg_ty))
            self.slots[stmt.uid] = slot.name
            init = self.lower_expr(stmt.init) if stmt.init is not None \
                else _zero(reg_ty)
            addr = self.b.frame_addr(slot.name)
            self.b.store(addr, init, reg_ty)
            return
        home = self.func.new_reg(reg_ty, stmt.name)
        self.homes[stmt.uid] = home
        init = self.lower_expr(stmt.init) if stmt.init is not None \
            else _zero(reg_ty)
        self.b.emit(Move(home, init))

    def _stmt_ExprStmt(self, stmt: ast.ExprStmt) -> None:
        self.lower_expr(stmt.expr)

    def _stmt_If(self, stmt: ast.If) -> None:
        cond = self.truthy(self.lower_expr(stmt.cond))
        then_bb = self.func.new_block("if.then")
        join_bb = self.func.new_block("if.join")
        else_bb = self.func.new_block("if.else") if stmt.otherwise else join_bb
        self.b.branch(cond, then_bb, else_bb)
        self.b.set_block(then_bb)
        self.lower_stmt(stmt.then)
        if self.b.block.terminator is None:
            self.b.jump(join_bb)
        if stmt.otherwise is not None:
            self.b.set_block(else_bb)
            self.lower_stmt(stmt.otherwise)
            if self.b.block.terminator is None:
                self.b.jump(join_bb)
        self.b.set_block(join_bb)

    def _stmt_While(self, stmt: ast.While) -> None:
        head = self.func.new_block("while.head")
        body = self.func.new_block("while.body")
        exit_bb = self.func.new_block("while.exit")
        self.b.jump(head)
        self.b.set_block(head)
        cond = self.truthy(self.lower_expr(stmt.cond))
        self.b.branch(cond, body, exit_bb)
        self.b.set_block(body)
        self.break_stack.append(exit_bb)
        self.continue_stack.append(head)
        self.lower_stmt(stmt.body)
        self.continue_stack.pop()
        self.break_stack.pop()
        if self.b.block.terminator is None:
            self.b.jump(head)
        self.b.set_block(exit_bb)

    def _stmt_DoWhile(self, stmt: ast.DoWhile) -> None:
        body = self.func.new_block("do.body")
        cond_bb = self.func.new_block("do.cond")
        exit_bb = self.func.new_block("do.exit")
        self.b.jump(body)
        self.b.set_block(body)
        self.break_stack.append(exit_bb)
        self.continue_stack.append(cond_bb)
        self.lower_stmt(stmt.body)
        self.continue_stack.pop()
        self.break_stack.pop()
        if self.b.block.terminator is None:
            self.b.jump(cond_bb)
        self.b.set_block(cond_bb)
        cond = self.truthy(self.lower_expr(stmt.cond))
        self.b.branch(cond, body, exit_bb)
        self.b.set_block(exit_bb)

    def _stmt_For(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        head = self.func.new_block("for.head")
        body = self.func.new_block("for.body")
        step_bb = self.func.new_block("for.step")
        exit_bb = self.func.new_block("for.exit")
        self.b.jump(head)
        self.b.set_block(head)
        if stmt.cond is not None:
            cond = self.truthy(self.lower_expr(stmt.cond))
            self.b.branch(cond, body, exit_bb)
        else:
            self.b.jump(body)
        self.b.set_block(body)
        self.break_stack.append(exit_bb)
        self.continue_stack.append(step_bb)
        self.lower_stmt(stmt.body)
        self.continue_stack.pop()
        self.break_stack.pop()
        if self.b.block.terminator is None:
            self.b.jump(step_bb)
        self.b.set_block(step_bb)
        if stmt.step is not None:
            self.lower_expr(stmt.step)
        self.b.jump(head)
        self.b.set_block(exit_bb)

    def _stmt_Return(self, stmt: ast.Return) -> None:
        value = self.lower_expr(stmt.value) if stmt.value is not None else None
        self.b.ret(value)
        self.b.set_block(self.func.new_block("dead"))

    def _stmt_Break(self, stmt: ast.Break) -> None:
        self.b.jump(self.break_stack[-1])
        self.b.set_block(self.func.new_block("dead"))

    def _stmt_Continue(self, stmt: ast.Continue) -> None:
        self.b.jump(self.continue_stack[-1])
        self.b.set_block(self.func.new_block("dead"))

    # -- lvalues -----------------------------------------------------------

    def lower_lvalue(self, expr: ast.Expr) -> LValue:
        if isinstance(expr, ast.Ident):
            uid = expr.decl.uid
            if uid in self.homes:
                return ("reg", self.homes[uid], self.decl_types[uid])
            addr = self.b.frame_addr(self.slots[uid])
            return ("mem", addr, self.decl_types[uid])
        if isinstance(expr, ast.Deref):
            addr = self.lower_expr(expr.operand)
            return ("mem", addr, expr.ty)
        # an ast.Index: sema admits no other lvalue
        return ("mem", self.index_address(expr), expr.ty)

    def read_lvalue(self, lvalue: LValue) -> Value:
        kind, place, decl_ty = lvalue
        if kind == "reg":
            # Snapshot: the rvalue must not alias the (mutable) home
            # register, or `x++` would observe its own update.
            return self.b.move(place)
        return self.b.load(place, irtype(decl_ty))

    def write_lvalue(self, lvalue: LValue, value: Value) -> None:
        kind, place, decl_ty = lvalue
        if kind == "reg":
            self.b.emit(Move(place, value))
        else:
            self.b.store(place, value, irtype(decl_ty))

    def index_address(self, expr: ast.Index) -> Value:
        base = expr.base
        elem_ty = expr.ty
        if isinstance(base, ast.Ident) and \
                isinstance(base.ty, ty.ArrayType) and \
                base.decl.uid in self.slots:
            base_addr: Value = self.b.frame_addr(self.slots[base.decl.uid])
        else:
            base_addr = self.lower_expr(base)
        index = self.lower_expr(expr.index)          # i64 after sema
        index_u = self._to_u64(index)
        size = ty.sizeof(irtype(elem_ty)) if not isinstance(
            elem_ty, ty.ArrayType) else ty.sizeof(elem_ty)
        scaled = self.b.binop("mul", index_u, Const(size, ty.U64), ty.U64) \
            if size != 1 else index_u
        return self.b.binop("add", base_addr, scaled, ty.U64)

    def _to_u64(self, value: Value) -> Value:
        # sema makes every offset and index an i64
        if isinstance(value, Const):
            return Const(value.value, ty.U64)
        return self.b.cast(value, value.ty, ty.U64)

    # -- expressions -------------------------------------------------------

    def lower_expr(self, expr: ast.Expr) -> Value:
        method = getattr(self, f"_expr_{type(expr).__name__}")
        return method(expr)

    def truthy(self, value: Value) -> Value:
        """A value usable as a branch condition (non-zero = taken)."""
        if ty.is_float(value.ty):
            return self.b.cmp("ne", value, Const(0.0, value.ty), value.ty)
        return value

    def boolean(self, value: Value) -> Value:
        """Normalize to i32 0/1 (for logical operators' results)."""
        zero = Const(0.0, value.ty) if ty.is_float(value.ty) \
            else Const(0, value.ty)
        return self.b.cmp("ne", value, zero, value.ty)

    def _expr_IntLit(self, expr: ast.IntLit) -> Value:
        return Const(expr.value, expr.ty)

    def _expr_FloatLit(self, expr: ast.FloatLit) -> Value:
        return Const(expr.value, expr.ty)

    def _expr_SizeOf(self, expr: ast.SizeOf) -> Value:
        return Const(ty.sizeof(expr.target_type), ty.U64)

    def _expr_Ident(self, expr: ast.Ident) -> Value:
        uid = expr.decl.uid
        if isinstance(expr.ty, ty.ArrayType):
            return self.b.frame_addr(self.slots[uid])
        if uid in self.homes:
            return self.b.move(self.homes[uid])
        addr = self.b.frame_addr(self.slots[uid])
        return self.b.load(addr, irtype(expr.ty))

    def _expr_Unary(self, expr: ast.Unary) -> Value:
        operand = self.lower_expr(expr.operand)
        if expr.op == "-":
            return self.b.unop("neg", operand, irtype(expr.ty))
        if expr.op == "~":
            return self.b.unop("not", operand, irtype(expr.ty))
        # "!", the last unary operator the parser makes
        zero = Const(0.0, operand.ty) if ty.is_float(operand.ty) \
            else Const(0, operand.ty)
        return self.b.cmp("eq", operand, zero, operand.ty)

    _BINOP_MAP = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
                  "&": "and", "|": "or", "^": "xor",
                  "<<": "shl", ">>": "shr"}
    _CMP_MAP = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le",
                ">": "gt", ">=": "ge"}

    def _expr_Binary(self, expr: ast.Binary) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._short_circuit(expr)
        if op in self._CMP_MAP:
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            operand_ty = irtype(ty.decay(expr.left.ty))
            return self.b.cmp(self._CMP_MAP[op], left, right, operand_ty)

        left_ty = ty.decay(expr.left.ty)
        right_ty = ty.decay(expr.right.ty)
        # Pointer arithmetic: scale the integer side by the pointee size.
        if isinstance(expr.ty, ty.PointerType):
            size = _pointee_size(expr.ty)
            if ty.is_pointer(left_ty):
                base = self.lower_expr(expr.left)
                offset = self._to_u64(self.lower_expr(expr.right))
            else:
                base = self.lower_expr(expr.right)
                offset = self._to_u64(self.lower_expr(expr.left))
            if size != 1:
                offset = self.b.binop("mul", offset, Const(size, ty.U64),
                                      ty.U64)
            ir_op = "add" if op == "+" else "sub"
            return self.b.binop(ir_op, base, offset, ty.U64)
        if op == "-" and ty.is_pointer(left_ty) and ty.is_pointer(right_ty):
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            diff = self.b.binop("sub", left, right, ty.U64)
            diff_i = self.b.cast(diff, ty.U64, ty.I64)
            size = _pointee_size(left_ty)
            if size == 1:
                return diff_i
            return self.b.binop("div", diff_i, Const(size, ty.I64), ty.I64)

        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        result_ty = irtype(expr.ty)
        if op in ("<<", ">>"):
            # the count is an int whatever the shifted type is
            right = self._coerce(right, result_ty)
        return self.b.binop(self._BINOP_MAP[op], left, right, result_ty)

    def _short_circuit(self, expr: ast.Binary) -> Value:
        result = self.func.new_reg(ty.I32, "sc")
        rhs_bb = self.func.new_block("sc.rhs")
        short_bb = self.func.new_block("sc.short")
        join_bb = self.func.new_block("sc.join")
        left = self.truthy(self.lower_expr(expr.left))
        if expr.op == "&&":
            self.b.branch(left, rhs_bb, short_bb)
            short_value = Const(0, ty.I32)
        else:
            self.b.branch(left, short_bb, rhs_bb)
            short_value = Const(1, ty.I32)
        self.b.set_block(rhs_bb)
        right = self.boolean(self.lower_expr(expr.right))
        self.b.emit(Move(result, right))
        self.b.jump(join_bb)
        self.b.set_block(short_bb)
        self.b.emit(Move(result, short_value))
        self.b.jump(join_bb)
        self.b.set_block(join_bb)
        return result

    def _expr_Assign(self, expr: ast.Assign) -> Value:
        lvalue = self.lower_lvalue(expr.target)
        target_ty = irtype(lvalue[2])
        if expr.op == "=":
            value = self.lower_expr(expr.value)
            self.write_lvalue(lvalue, value)
            return value
        binop = expr.op[:-1]
        old = self.read_lvalue(lvalue)
        rhs = self.lower_expr(expr.value)
        if isinstance(lvalue[2], ty.PointerType):
            size = _pointee_size(lvalue[2])
            offset = self._to_u64(rhs)
            if size != 1:
                offset = self.b.binop("mul", offset, Const(size, ty.U64),
                                      ty.U64)
            ir_op = "add" if binop == "+" else "sub"
            new = self.b.binop(ir_op, old, offset, ty.U64)
            self.write_lvalue(lvalue, new)
            return new
        compute_ty = irtype(expr.compute_ty)
        lhs = old
        if old.ty != compute_ty:
            lhs = self.b.cast(old, old.ty, compute_ty)
        if binop in ("<<", ">>"):
            rhs = self._coerce(rhs, compute_ty)
        result = self.b.binop(self._BINOP_MAP[binop], lhs, rhs, compute_ty)
        if compute_ty != target_ty:
            result = self.b.cast(result, compute_ty, target_ty)
        self.write_lvalue(lvalue, result)
        return result

    def _coerce(self, value: Value, to_ty: ty.Type) -> Value:
        if value.ty == to_ty:
            return value
        if isinstance(value, Const) and ty.is_integer(to_ty) and \
                ty.is_integer(value.ty):
            return Const(value.value, to_ty)
        return self.b.cast(value, value.ty, to_ty)

    def _expr_IncDec(self, expr: ast.IncDec) -> Value:
        lvalue = self.lower_lvalue(expr.target)
        decl_ty = lvalue[2]
        old = self.read_lvalue(lvalue)
        if isinstance(decl_ty, ty.PointerType):
            step = Const(_pointee_size(decl_ty), ty.U64)
            op = "add" if expr.op == "++" else "sub"
            new = self.b.binop(op, old, step, ty.U64)
        elif ty.is_float(decl_ty):
            one = Const(1.0, decl_ty)
            op = "add" if expr.op == "++" else "sub"
            new = self.b.binop(op, old, one, decl_ty)
        else:
            one = Const(1, decl_ty)
            op = "add" if expr.op == "++" else "sub"
            new = self.b.binop(op, old, one, decl_ty)
        self.write_lvalue(lvalue, new)
        return old if expr.is_postfix else new

    def _expr_Conditional(self, expr: ast.Conditional) -> Value:
        result_ty = irtype(ty.decay(expr.ty))
        result = self.func.new_reg(result_ty, "sel")
        then_bb = self.func.new_block("sel.then")
        else_bb = self.func.new_block("sel.else")
        join_bb = self.func.new_block("sel.join")
        cond = self.truthy(self.lower_expr(expr.cond))
        self.b.branch(cond, then_bb, else_bb)
        self.b.set_block(then_bb)
        then_value = self.lower_expr(expr.then)
        self.b.emit(Move(result, then_value))
        self.b.jump(join_bb)
        self.b.set_block(else_bb)
        else_value = self.lower_expr(expr.otherwise)
        self.b.emit(Move(result, else_value))
        self.b.jump(join_bb)
        self.b.set_block(join_bb)
        return result

    def _expr_Call(self, expr: ast.Call) -> Value:
        args = [self.lower_expr(a) for a in expr.args]
        ret_ty = irtype(ty.decay(expr.ty)) if not isinstance(
            expr.ty, ty.VoidType) else expr.ty
        result = self.b.call(expr.name, args, ret_ty)
        return result if result is not None else Const(0, ty.I32)

    def _expr_Index(self, expr: ast.Index) -> Value:
        addr = self.index_address(expr)
        if isinstance(expr.ty, ty.ArrayType):
            return addr          # subarray decays to its address
        return self.b.load(addr, irtype(expr.ty))

    def _expr_Deref(self, expr: ast.Deref) -> Value:
        addr = self.lower_expr(expr.operand)
        return self.b.load(addr, irtype(expr.ty))

    def _expr_AddrOf(self, expr: ast.AddrOf) -> Value:
        operand = expr.operand
        if isinstance(operand, ast.Ident):
            uid = operand.decl.uid
            return self.b.frame_addr(self.slots[uid])
        if isinstance(operand, ast.Index):
            return self.index_address(operand)
        # an ast.Deref: sema admits no other operand of '&'
        return self.lower_expr(operand.operand)

    def _expr_Cast(self, expr: ast.Cast) -> Value:
        operand = self.lower_expr(expr.operand)
        from_ty = irtype(ty.decay(expr.operand.ty))
        to_ty = irtype(expr.target_type)
        if isinstance(expr.target_type, ty.VoidType):
            return operand
        if from_ty == to_ty:
            return operand
        if isinstance(operand, Const) and ty.is_integer(from_ty) and \
                ty.is_integer(to_ty):
            return Const(ty.wrap_int(int(operand.value), to_ty), to_ty)
        return self.b.cast(operand, from_ty, to_ty)


def _zero(reg_ty: ty.Type) -> Const:
    return Const(0.0, reg_ty) if ty.is_float(reg_ty) else Const(0, reg_ty)


def lower_program(program: ast.Program, name: str = "module") -> Module:
    """Lower every defined function of a typed AST program."""
    module = Module(name)
    for func in program.funcs:
        if func.body is not None:
            module.add(_FuncLowerer(func).run())
    return module


def lower_source(source: str, name: str = "module") -> Module:
    """Parse, check and lower MiniC source in one step."""
    return lower_program(parse_and_check(source), name)
