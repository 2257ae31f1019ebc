"""AST node definitions for MiniC.

Nodes are plain dataclasses.  Expression nodes gain a ``ty`` attribute
during semantic analysis; statement nodes are checked in place.  The
tree after :func:`repro.lang.sema.check` is fully typed and all implicit
conversions have been materialized as :class:`Cast` nodes, so lowering
to IR never needs conversion logic of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.lang.types import Type


@dataclass
class Node:
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass
class Expr(Node):
    """Base expression; ``ty`` is filled in by sema."""

    def __post_init__(self) -> None:
        self.ty: Optional[Type] = None


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class Unary(Expr):
    """Prefix unary: ``-``, ``!``, ``~``."""
    op: str = ""
    operand: Expr = None


@dataclass
class Binary(Expr):
    """All binary operators, including ``&&``/``||`` (short-circuit)."""
    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class Assign(Expr):
    """``target op= value``; plain assignment has ``op == '='``."""
    op: str = "="
    target: Expr = None
    value: Expr = None


@dataclass
class IncDec(Expr):
    """``++x``, ``x++``, ``--x``, ``x--``."""
    op: str = "++"
    target: Expr = None
    is_postfix: bool = False


@dataclass
class Conditional(Expr):
    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None


@dataclass
class Call(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    """``base[index]``; base is a pointer or array."""
    base: Expr = None
    index: Expr = None


@dataclass
class Deref(Expr):
    operand: Expr = None


@dataclass
class AddrOf(Expr):
    operand: Expr = None


@dataclass
class Cast(Expr):
    """Explicit or sema-inserted conversion to ``target_type``."""
    target_type: Type = None
    operand: Expr = None


@dataclass
class SizeOf(Expr):
    target_type: Type = None


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass
class Stmt(Node):
    pass


@dataclass
class VarDecl(Stmt):
    name: str = ""
    var_type: Type = None
    init: Optional[Expr] = None


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Stmt = None


@dataclass
class DoWhile(Stmt):
    body: Stmt = None
    cond: Expr = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None      # VarDecl or ExprStmt
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# --------------------------------------------------------------------------
# Top level
# --------------------------------------------------------------------------

@dataclass
class Param(Node):
    name: str = ""
    param_type: Type = None


@dataclass
class FuncDef(Node):
    name: str = ""
    ret_type: Type = None
    params: List[Param] = field(default_factory=list)
    body: Optional[Block] = None     # None for declarations (prototypes)


@dataclass
class Program(Node):
    funcs: List[FuncDef] = field(default_factory=list)


LVALUE_NODES = (Ident, Index, Deref)


def is_lvalue(expr: Expr) -> bool:
    return isinstance(expr, LVALUE_NODES)


def walk(node: Node):
    """Yield ``node`` and every descendant node, depth-first.

    Only declared dataclass fields are followed: attributes added by
    semantic analysis (``decl``, ``callee``) point back up the tree and
    would make the traversal cyclic.
    """
    import dataclasses

    yield node
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield from walk(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield from walk(item)
