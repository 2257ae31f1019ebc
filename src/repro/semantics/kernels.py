"""Type-specialized semantics kernels and the templates they are
compiled from.

``(op, type) -> callable`` tables that replace the per-call
``isinstance`` ladders of :mod:`repro.semantics.scalar` on the hot
execution paths, so an executing engine pays one lookup per *decoded*
instruction instead of an isinstance ladder per *executed*
instruction.

What an op computes on the fast path is written once, as an
expression *template* with ``{a}`` / ``{b}`` operand slots
(:func:`inline_binop`, :func:`inline_cmp`, :func:`inline_unop`,
:func:`inline_cast`).  The tier-2 compilers inline a template into
the function they generate; the tables hold the same template,
compiled on its first lookup into a function (filename
``<pvi-kernel>``) over the names it bound.  So the block tier and
tier-2 compute the same thing by construction.  The lane kernels come
from the same text: a pure template mapped over the lanes, or for f32
the batch round trip of :func:`f32_batch`.  Tier-2 writes the lanes of
a vector op out one by one from the same templates (and the same
batch, at any lane count), so a lane kernel is only ever its fallback
(:meth:`repro.tiers.BlockEmitter.vbinop`).

Kernels are written by hand only where no template exists, because
the op needs a statement a single expression cannot make:

* integer ``div`` / ``rem`` — trap on a zero divisor, truncate toward
  zero;
* float ``div`` — the IEEE zero-divisor cases (inf, -inf, NaN) that
  Python's ``/`` raises on;
* float -> int casts — NaN and the infinities convert to 0;
* :func:`identity_kernel` — value-preserving casts, shared by object
  so the engines can elide them;
* the reference fallback for any other ``(op, type)``, which calls the
  ladder itself.

Parity with the reference ladder (``eval_binop`` / ``eval_unop`` /
``eval_cmp`` / ``eval_cast``) is non-negotiable, including trap
messages and the wrap / sign-decode of out-of-range operands;
``tests/test_semantics_kernels.py`` sweeps every (op, type) pair
against the reference to enforce it.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Callable, Optional, Tuple

from repro.engine import CodegenEnv
from repro.lang import types as ty
from repro.semantics.errors import TrapError
from repro.semantics.scalar import eval_binop, eval_cast, eval_cmp, eval_unop

#: the scalar types the tables are built for
SCALAR_TYPES = ty.INT_TYPES + ty.FLOAT_TYPES

#: the filename every templated kernel is compiled under
KERNEL_FILENAME = "<pvi-kernel>"

#: the f32 rounding round trip of every f32 result
_F32_ROUND = struct.Struct("<f")

#: the 4-lane batch round trip of the f32 quad kernels
_F32_QUAD = struct.Struct("<4f")


# ---------------------------------------------------------------------------
# the templates
# ---------------------------------------------------------------------------
#
# A template is inlined wherever its result is identical to the
# kernel's for every input — which it is, being the kernel's text.
# Ops with trap semantics (integer div/rem, unknown predicates) and
# float division (IEEE zero-divide special cases) have none.  The
# second element of each result marks expressions that cannot raise:
# tier-2 defers and reorders pure values.  f32 results round through
# a struct pack, which can overflow on absurd inputs, so they stay
# marked impure.

def is_f32_quad(bop: str, elem) -> bool:
    """Is ``vec.<bop>`` over ``elem`` an f32 batch (:func:`f32_batch`):
    one rounding round trip for all its lanes, whose result tier-2
    keeps as a tuple?  The emitter asks before inlining, the lane
    analysis before giving the result a tuple meta."""
    return isinstance(elem, ty.FloatType) and elem.bits == 32 \
        and bop in ("add", "sub", "mul", "min", "max")


_ARITH_SYMS = {"add": "+", "sub": "-", "mul": "*"}
_BIT_SYMS = {"and": "&", "or": "|", "xor": "^"}
_CMP_SYMS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
             "gt": ">", "ge": ">="}


def _int_wrap(core: str, int_ty, exact: bool = False) -> str:
    """Wrap ``core`` into ``int_ty``'s range: mask, then sign-decode
    via the xor trick for signed types.  ``exact``: the caller proved
    ``core`` already in range (interval knowledge,
    :meth:`repro.tiers.BlockEmitter.fits`), so the wrap is the
    identity and is left out."""
    if exact:
        return f"({core})"
    mask = (1 << int_ty.bits) - 1
    if int_ty.signed:
        sign = 1 << (int_ty.bits - 1)
        return f"(((({core}) & {mask}) ^ {sign}) - {sign})"
    return f"(({core}) & {mask})"


def _float_core(op: str) -> Optional[str]:
    """The unrounded float result of ``op``, or ``None`` (div)."""
    if op in _ARITH_SYMS:
        return f"{{a}} {_ARITH_SYMS[op]} {{b}}"
    if op in ("min", "max"):
        return f"{op}({{a}}, {{b}})"
    return None


def _round_f32(core: str, env: CodegenEnv) -> str:
    p = env.bind(_F32_ROUND.pack, "p")
    u = env.bind(_F32_ROUND.unpack, "u")
    return f"{u}({p}({core}))[0]"


def inline_binop(op: str, value_ty, env: CodegenEnv,
                 exact: bool = False):
    """``(template, pure)`` of the binop kernel for ``value_ty``, or
    ``None`` when the op has a hand-written kernel.  ``exact``: an
    integer ``add`` / ``sub`` / ``mul`` / ``shl`` whose unwrapped
    result is proven in range (see :func:`_int_wrap`)."""
    if isinstance(value_ty, ty.IntType):
        mask = (1 << value_ty.bits) - 1
        sm = value_ty.bits - 1
        if op in _ARITH_SYMS:
            return _int_wrap(f"{{a}} {_ARITH_SYMS[op]} {{b}}",
                             value_ty, exact), True
        if op in _BIT_SYMS:
            core = f"({{a}} & {mask}) {_BIT_SYMS[op]} ({{b}} & {mask})"
            if value_ty.signed:
                return _int_wrap(core, value_ty), True
            return f"({core})", True       # masked operands: in range
        if op == "shl":
            return _int_wrap(f"{{a}} << ({{b}} & {sm})", value_ty,
                             exact), True
        if op == "shr":
            if value_ty.signed:
                return _int_wrap(f"{{a}} >> ({{b}} & {sm})",
                                 value_ty), True
            return f"(({{a}} & {mask}) >> ({{b}} & {sm}))", True
        if op in ("min", "max"):
            return _int_wrap(f"{op}({{a}}, {{b}})", value_ty), True
        return None                        # div/rem trap on zero
    if isinstance(value_ty, ty.FloatType):
        core = _float_core(op)
        if core is None:
            return None                    # div: IEEE special cases
        if value_ty.bits == 32:
            return _round_f32(core, env), False
        return f"({core})", True
    return None


def inline_cmp(pred: str, value_ty):
    """A pure template of the cmp kernel, or ``None`` for predicates
    the reference traps on."""
    sym = _CMP_SYMS.get(pred)
    if sym is None:
        return None
    if isinstance(value_ty, ty.IntType) and not value_ty.signed:
        mask = (1 << value_ty.bits) - 1
        return (f"(1 if (({{a}}) & {mask}) {sym} (({{b}}) & {mask}) "
                f"else 0)")
    # Signed ints compare directly; Python float comparisons share
    # IEEE's unordered-NaN results (all False except ``!=``).
    return f"(1 if ({{a}}) {sym} ({{b}}) else 0)"


def inline_cast(from_ty, to_ty, env: CodegenEnv, exact: bool = False):
    """``(template, pure)`` of a non-identity cast kernel, or ``None``
    (float->int is hand-written: NaN/inf special cases).  ``exact``:
    an int->int cast of a value proven in ``to_ty``'s range (see
    :func:`_int_wrap`)."""
    if isinstance(to_ty, ty.IntType):
        if isinstance(from_ty, ty.IntType):
            return _int_wrap("{a}", to_ty, exact), True
        return None
    if not isinstance(to_ty, ty.FloatType):
        return None
    if to_ty.bits == 32:
        return _round_f32("float({a})", env), False
    return "(float({a}))", False       # float(huge int) can overflow


def inline_unop(op: str, value_ty, env: CodegenEnv):
    """``(template, pure)`` of the unop kernel, or ``None``."""
    if isinstance(value_ty, ty.IntType):
        if op == "neg":
            return _int_wrap("-({a})", value_ty), True
        if op == "not":
            return _int_wrap("~({a})", value_ty), True
        return None
    if op != "neg" or not isinstance(value_ty, ty.FloatType):
        return None
    if value_ty.bits == 32:
        return _round_f32("-({a})", env), False
    return "(-({a}))", True


def f32_batch(bop: str, lanes: int, env: CodegenEnv) -> Tuple[str, str, str]:
    """``(pack name, unpack name, lane template)`` of ``lanes`` f32
    lanes of ``bop`` rounded by one ``<{lanes}f`` round trip: per lane,
    exactly the scalar f32 kernel's rounding (the same ``OverflowError``,
    first failing lane first).  The lane template has ``{a}`` / ``{b}``
    slots; the results are ``unpack(pack(<lane>, <lane>, ...))``.  The
    4-lane kernel and tier-2's inlined batches are both this text."""
    batch = _f32_batch_struct(lanes)
    return (env.bind(batch.pack, "qp"), env.bind(batch.unpack, "qu"),
            _float_core(bop))


@functools.lru_cache(maxsize=None)
def _f32_batch_struct(lanes: int) -> struct.Struct:
    return _F32_QUAD if lanes == 4 else struct.Struct(f"<{lanes}f")


# ---------------------------------------------------------------------------
# compiling templates into kernels
# ---------------------------------------------------------------------------

def _compiled(env: CodegenEnv, params: str, body: str) -> Callable:
    """``def kernel(params): body`` compiled over the names ``env``
    bound: one function object per table entry."""
    exec(compile(f"def kernel({params}):\n{body}", KERNEL_FILENAME,
                 "exec"), env.env)
    return env.env["kernel"]


def _scalar_kernel(template: str, env: CodegenEnv,
                   params: str = "a, b") -> Callable:
    return _compiled(env, params,
                     f"    return {template.format(a='a', b='b')}\n")


def _lane_kernel(template: str) -> Callable:
    """A pure, binding-free scalar template mapped over the lanes."""
    env = CodegenEnv({"TrapError": TrapError})
    return _compiled(
        env, "a, b",
        "    if len(a) != len(b):\n"
        "        raise TrapError('vector lane count mismatch')\n"
        f"    return [{template.format(a='x', b='y')} "
        f"for x, y in zip(a, b)]\n")


def _quad_kernel(op: str) -> Callable:
    """The f32 4-lane batch; any other lane count goes per lane."""
    env = CodegenEnv({})
    qp, qu, core = f32_batch(op, 4, env)
    cores = ", ".join(core.format(a=f"_a{i}", b=f"_b{i}") for i in range(4))
    generic = env.bind(_generic_vec_kernel(op, ty.F32), "g")
    return _compiled(
        env, "a, b",
        "    if len(a) != 4 or len(b) != 4:\n"
        f"        return {generic}(a, b)\n"
        "    _a0, _a1, _a2, _a3 = a\n"
        "    _b0, _b1, _b2, _b3 = b\n"
        f"    return list({qu}({qp}({cores})))\n")


# ---------------------------------------------------------------------------
# the hand-written kernels
# ---------------------------------------------------------------------------

def _int_division(op: str, int_ty: ty.IntType) -> Callable:
    """``div`` or ``rem``: trap on a zero divisor, truncate toward
    zero, wrap the result."""
    wrap = _scalar_kernel(_int_wrap("{a}", int_ty), CodegenEnv({}), "a")

    def div(a, b):
        if b == 0:
            raise TrapError("integer division by zero")
        q = abs(a) // abs(b)
        return wrap(q if (a >= 0) == (b >= 0) else -q)

    def rem(a, b):
        if b == 0:
            raise TrapError("integer remainder by zero")
        q = abs(a) // abs(b)
        q = q if (a >= 0) == (b >= 0) else -q
        return wrap(a - q * b)
    return div if op == "div" else rem


def _float_div(float_ty: ty.FloatType) -> Callable:
    """IEEE division: a zero divisor gives inf, -inf or NaN."""
    def div(a, b):
        if b == 0.0:
            if a == 0.0 or a != a:
                return math.nan
            return math.inf if (a > 0) == (not math.copysign(1, b) < 0) \
                else -math.inf
        return a / b

    if float_ty.bits == 32:
        pack, unpack = _F32_ROUND.pack, _F32_ROUND.unpack

        def div32(a, b):
            return unpack(pack(div(a, b)))[0]
        return div32
    return div


def _float_to_int(to_ty: ty.IntType) -> Callable:
    """Truncate, then wrap; NaN and the infinities convert to 0
    (defined here, undefined in C)."""
    wrap = _scalar_kernel(_int_wrap("{a}", to_ty), CodegenEnv({}), "a")

    def to_int(value):
        if value != value or value == math.inf or value == -math.inf:
            return 0
        return wrap(int(value))
    return to_int


def identity_kernel(value):
    """The no-op kernel: shared so engines can recognize (``is``) and
    elide value-preserving casts at decode time."""
    return value


def _int_cast_is_identity(from_ty: ty.IntType, to_ty: ty.IntType) -> bool:
    """Is int->int conversion value-preserving for every in-range
    input?  (Widening within a signedness, or unsigned into a strictly
    wider signed type.)"""
    if from_ty.signed == to_ty.signed:
        return from_ty.bits <= to_ty.bits
    return not from_ty.signed and to_ty.signed \
        and from_ty.bits < to_ty.bits


# ---------------------------------------------------------------------------
# the tables and their lookup API
# ---------------------------------------------------------------------------
#
# Each entry is compiled on its first lookup and kept: a process pays
# only for the kernels its code uses, and one that runs no code (the
# compilation service) compiles none: building every entry at import
# slowed the edge server's warm requests, which never run a kernel.
# A combination with no entry (``None``) goes to the reference ladder,
# or for lanes to the per-lane scalar kernel.

@functools.lru_cache(maxsize=None)
def _binop_entry(op: str, value_ty) -> Optional[Callable]:
    if value_ty not in SCALAR_TYPES:
        return None
    if isinstance(value_ty, ty.IntType) and op in ("div", "rem"):
        return _int_division(op, value_ty)
    if op == "div":
        return _float_div(value_ty)
    env = CodegenEnv({})
    template = inline_binop(op, value_ty, env)
    return None if template is None else _scalar_kernel(template[0], env)


@functools.lru_cache(maxsize=None)
def _cmp_entry(pred: str, value_ty) -> Optional[Callable]:
    if value_ty not in SCALAR_TYPES:
        return None
    template = inline_cmp(pred, value_ty)
    if template is None:
        return None
    return _scalar_kernel(template, CodegenEnv({}))


@functools.lru_cache(maxsize=None)
def _unop_entry(op: str, value_ty) -> Optional[Callable]:
    if value_ty not in SCALAR_TYPES:
        return None
    env = CodegenEnv({})
    template = inline_unop(op, value_ty, env)
    if template is None:
        return None
    return _scalar_kernel(template[0], env, "a")


@functools.lru_cache(maxsize=None)
def _cast_entry(from_ty, to_ty) -> Optional[Callable]:
    if from_ty not in SCALAR_TYPES or to_ty not in SCALAR_TYPES:
        return None
    if from_ty == to_ty:
        return identity_kernel
    if isinstance(from_ty, ty.IntType) and isinstance(to_ty, ty.IntType) \
            and _int_cast_is_identity(from_ty, to_ty):
        return identity_kernel
    env = CodegenEnv({})
    template = inline_cast(from_ty, to_ty, env)
    if template is None:
        return _float_to_int(to_ty)
    return _scalar_kernel(template[0], env, "a")


@functools.lru_cache(maxsize=None)
def _vec_entry(op: str, elem_ty) -> Optional[Callable]:
    """Lane-wise kernels with no per-lane call: a pure template's
    comprehension or the f32 quad batch."""
    if elem_ty not in SCALAR_TYPES:
        return None
    template = inline_binop(op, elem_ty, CodegenEnv({}))
    if template is not None and template[1]:
        return _lane_kernel(template[0])
    if is_f32_quad(op, elem_ty):
        return _quad_kernel(op)
    return None


def _generic_vec_kernel(op: str, elem_ty) -> Callable:
    kernel = binop_kernel(op, elem_ty)

    def vec_kernel(a, b, _k=kernel):
        if len(a) != len(b):
            raise TrapError("vector lane count mismatch")
        return [_k(x, y) for x, y in zip(a, b)]
    return vec_kernel


def binop_kernel(op: str, value_ty) -> Callable:
    """``a op b`` evaluator specialized to ``value_ty``.  Unknown
    combinations defer to :func:`eval_binop` so traps and messages
    stay byte-identical with the reference ladder."""
    kernel = _binop_entry(op, value_ty)
    if kernel is None:
        def kernel(a, b, _op=op, _ty=value_ty):
            return eval_binop(_op, _ty, a, b)
    return kernel


def cmp_kernel(pred: str, value_ty) -> Callable:
    kernel = _cmp_entry(pred, value_ty)
    if kernel is None:
        def kernel(a, b, _pred=pred, _ty=value_ty):
            return eval_cmp(_pred, _ty, a, b)
    return kernel


def unop_kernel(op: str, value_ty) -> Callable:
    kernel = _unop_entry(op, value_ty)
    if kernel is None:
        def kernel(a, _op=op, _ty=value_ty):
            return eval_unop(_op, _ty, a)
    return kernel


def cast_kernel(from_ty, to_ty) -> Callable:
    kernel = _cast_entry(from_ty, to_ty)
    if kernel is None:
        def kernel(value, _f=from_ty, _t=to_ty):
            return eval_cast(value, _f, _t)
    return kernel


def vec_binop_kernel(op: str, elem_ty) -> Callable:
    """Lane-wise binop over list vectors: a pure template's
    comprehension, the f32 quad batch, or the per-lane scalar
    kernel."""
    kernel = _vec_entry(op, elem_ty)
    if kernel is None:
        kernel = _generic_vec_kernel(op, elem_ty)
    return kernel
