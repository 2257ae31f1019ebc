"""Kernel-table parity: every specialized kernel must behave exactly
like the reference ladder in ``repro.semantics.scalar`` — values,
traps and trap messages — across all (op, type) pairs and a value grid
covering wrap-around, signedness, out-of-range operands and IEEE edge
cases.  Every kernel that has a tier-2 template is compiled from it,
so the sweep tests the templates too."""

import math

import pytest

from repro.bytecode.opcodes import BIN_OPS, CMP_PREDS, UN_OPS
from repro.engine import CodegenEnv
from repro.lang import types as ty
from repro.semantics import (
    TrapError, eval_binop, eval_cast, eval_cmp, eval_unop, vec_binop,
)
from repro.semantics.kernels import (
    KERNEL_FILENAME, SCALAR_TYPES, binop_kernel, cast_kernel, cmp_kernel,
    identity_kernel, inline_binop, inline_cast, inline_cmp, inline_unop,
    is_f32_quad, unop_kernel, vec_binop_kernel,
)


def _int_values(int_ty):
    """In-range edges, then operands outside the type's range: the
    kernels (and the templates they are compiled from) promise the
    reference's wrap / sign-decode of those too."""
    lo, hi = ty.int_min(int_ty), ty.int_max(int_ty)
    return [lo, lo + 1, -7, -1, 0, 1, 2, 3, 7, hi - 1, hi,
            lo - 1, hi + 1, -2**70, 2**70 + 3]


_FLOAT_VALUES = [0.0, -0.0, 1.0, -1.5, 3.25, -1e3, 1e3,
                 math.inf, -math.inf, math.nan]


def _values_for(value_ty):
    if isinstance(value_ty, ty.IntType):
        return _int_values(value_ty)
    return _FLOAT_VALUES


def _in_range(value_ty):
    """The grid an identity cast is swept over: its contract is
    value preservation of in-range inputs only."""
    return [v for v in _values_for(value_ty)
            if not isinstance(value_ty, ty.IntType)
            or ty.int_min(value_ty) <= v <= ty.int_max(value_ty)]


def _template(kind, op, value_ty):
    """``(template, pure)`` of a scalar kernel, or ``None``."""
    env = CodegenEnv({})
    if kind == "binop":
        return inline_binop(op, value_ty, env)
    if kind == "unop":
        return inline_unop(op, value_ty, env)
    if kind == "cast":
        return inline_cast(op, value_ty, env)
    template = inline_cmp(op, value_ty)
    return None if template is None else (template, True)


def _outcome(fn, *args):
    try:
        return ("ok", repr(fn(*args)))
    except TrapError as exc:
        return ("trap", str(exc))
    except OverflowError as exc:        # f32 pack of huge values —
        return ("overflow", str(exc))   # raised by both implementations


class TestBinopParity:
    @pytest.mark.parametrize("value_ty", SCALAR_TYPES, ids=str)
    @pytest.mark.parametrize("op", BIN_OPS)
    def test_kernel_matches_reference(self, op, value_ty):
        if isinstance(value_ty, ty.FloatType) and \
                op not in ("add", "sub", "mul", "div", "min", "max"):
            return                      # undefined either way; below
        kernel = binop_kernel(op, value_ty)
        for a in _values_for(value_ty):
            for b in _values_for(value_ty):
                assert _outcome(kernel, a, b) == \
                    _outcome(eval_binop, op, value_ty, a, b), \
                    (op, value_ty, a, b)

    def test_undefined_op_falls_back_to_reference_trap(self):
        kernel = binop_kernel("frobnicate", ty.I32)
        with pytest.raises(TrapError, match="frobnicate"):
            kernel(1, 2)
        kernel = binop_kernel("rem", ty.F32)    # no float rem
        with pytest.raises(TrapError):
            kernel(1.0, 2.0)

    def test_division_trap_messages(self):
        for value_ty in (ty.I8, ty.U32, ty.I64):
            with pytest.raises(TrapError,
                               match="integer division by zero"):
                binop_kernel("div", value_ty)(5, 0)
            with pytest.raises(TrapError,
                               match="integer remainder by zero"):
                binop_kernel("rem", value_ty)(5, 0)


class TestCmpParity:
    @pytest.mark.parametrize("value_ty", SCALAR_TYPES, ids=str)
    @pytest.mark.parametrize("pred", CMP_PREDS)
    def test_kernel_matches_reference(self, pred, value_ty):
        kernel = cmp_kernel(pred, value_ty)
        for a in _values_for(value_ty):
            for b in _values_for(value_ty):
                assert kernel(a, b) == eval_cmp(pred, value_ty, a, b), \
                    (pred, value_ty, a, b)

    def test_nan_unordered_semantics(self):
        assert cmp_kernel("ne", ty.F32)(math.nan, 1.0) == 1
        assert cmp_kernel("eq", ty.F64)(math.nan, math.nan) == 0
        assert cmp_kernel("le", ty.F32)(math.nan, math.nan) == 0

    def test_unsigned_compares_on_bit_patterns(self):
        # -1 as u32 is 0xFFFFFFFF, the largest value
        assert cmp_kernel("gt", ty.U32)(-1, 1) == 1
        assert eval_cmp("gt", ty.U32, -1, 1) == 1


class TestUnopParity:
    @pytest.mark.parametrize("value_ty", SCALAR_TYPES, ids=str)
    @pytest.mark.parametrize("op", UN_OPS)
    def test_kernel_matches_reference(self, op, value_ty):
        if op == "not" and isinstance(value_ty, ty.FloatType):
            return                       # reference asserts IntType
        kernel = unop_kernel(op, value_ty)
        for a in _values_for(value_ty):
            assert _outcome(kernel, a) == \
                _outcome(eval_unop, op, value_ty, a), (op, value_ty, a)


class TestCastParity:
    @pytest.mark.parametrize("to_ty", SCALAR_TYPES, ids=str)
    @pytest.mark.parametrize("from_ty", SCALAR_TYPES, ids=str)
    def test_kernel_matches_reference(self, from_ty, to_ty):
        kernel = cast_kernel(from_ty, to_ty)
        grid = _in_range(from_ty) if kernel is identity_kernel \
            else _values_for(from_ty)
        for value in grid:
            assert _outcome(kernel, value) == \
                _outcome(eval_cast, value, from_ty, to_ty), \
                (from_ty, to_ty, value)

    def test_widening_casts_are_the_shared_identity(self):
        # the engines elide these at decode time, so the contract that
        # they are value-preserving is identity *by object*
        assert cast_kernel(ty.I32, ty.I64) is identity_kernel
        assert cast_kernel(ty.U8, ty.I32) is identity_kernel
        assert cast_kernel(ty.U16, ty.U64) is identity_kernel
        # narrowing / signedness flips must not be elided
        assert cast_kernel(ty.I64, ty.I32) is not identity_kernel
        assert cast_kernel(ty.I32, ty.U32) is not identity_kernel
        assert cast_kernel(ty.I8, ty.U64) is not identity_kernel

    def test_float_special_values_to_int(self):
        kernel = cast_kernel(ty.F64, ty.I32)
        assert kernel(math.nan) == 0
        assert kernel(math.inf) == 0
        assert kernel(-math.inf) == 0
        assert kernel(-2.75) == -2


def _lane_cases():
    """``(element type, a, b)``: hand-picked lanes, then every int
    type over its whole grid (out-of-range values included) against a
    rotation of it — once with a zero lane, which ``div`` / ``rem``
    trap on, once without — and f32 / f64 IEEE specials, four lanes
    (the f32 quad batch) and eight (per lane)."""
    cases = [
        (ty.U8, [250, 1, 17, 255], [10, 2, 300 % 256, 1]),
        (ty.I16, [32767, -32768, -5, 9], [1, -1, 5, 9]),
        (ty.I32, [2**31 - 1, -2**31, 0, 42], [1, -1, 7, -42]),
        (ty.F32, [1.5, -2.25, 1e30, 0.1], [2.5, 0.5, 1e30, 0.2]),
        (ty.F64, [1.5, -2.25], [2.5, 0.5]),
    ]
    for int_ty in ty.INT_TYPES:
        a = _int_values(int_ty)
        rotated = a[5:] + a[:5]
        cases.append((int_ty, a, rotated))
        cases.append((int_ty, a, [v or 3 for v in rotated]))
    specials = [math.nan, math.inf, -math.inf, -0.0]
    others = [1.5, -0.0, math.inf, math.nan]
    for float_ty in ty.FLOAT_TYPES:
        cases.append((float_ty, specials, others))
        cases.append((float_ty, others, specials))
        cases.append((float_ty, specials + others, others + specials))
    return cases


class TestVectorKernelParity:
    LANE_CASES = _lane_cases()

    @pytest.mark.parametrize("op", BIN_OPS)
    def test_lane_kernels_match_reference(self, op):
        for elem_ty, a, b in self.LANE_CASES:
            if isinstance(elem_ty, ty.FloatType) and \
                    op not in ("add", "sub", "mul", "div", "min", "max"):
                continue
            kernel = vec_binop_kernel(op, elem_ty)
            assert _outcome(kernel, a, b) == \
                _outcome(vec_binop, op, elem_ty, a, b), (op, elem_ty)

    def test_lane_count_mismatch_traps(self):
        for elem_ty in (ty.U8, ty.F32):
            kernel = vec_binop_kernel("add", elem_ty)
            with pytest.raises(TrapError, match="lane count mismatch"):
                kernel([1, 2, 3], [1, 2])

    def test_f32_quad_rounding_matches_scalar(self):
        # the 4-lane f32 fast path rounds through one <4f> round trip;
        # results must equal the per-lane scalar kernel bit for bit
        kernel = vec_binop_kernel("mul", ty.F32)
        scalar = binop_kernel("mul", ty.F32)
        a = [1.1, -2.2, 3.3, 1e18]
        b = [7.7, 0.3, -9.9, 1e18]
        assert kernel(a, b) == [scalar(x, y) for x, y in zip(a, b)]


_SCALAR_KERNELS = (
    [("binop", op, t, binop_kernel(op, t)) for op in BIN_OPS
     for t in SCALAR_TYPES]
    + [("cmp", pred, t, cmp_kernel(pred, t)) for pred in CMP_PREDS
       for t in SCALAR_TYPES]
    + [("unop", op, t, unop_kernel(op, t)) for op in UN_OPS
       for t in SCALAR_TYPES]
    + [("cast", f, t, cast_kernel(f, t)) for f in SCALAR_TYPES
       for t in SCALAR_TYPES])

#: the kernels written by hand, each where no template exists
_HAND_WRITTEN = {
    "_int_division.<locals>.div", "_int_division.<locals>.rem",
    "_float_div.<locals>.div", "_float_div.<locals>.div32",
    "_float_to_int.<locals>.to_int", "identity_kernel",
}

#: the reference fallbacks, for combinations outside the tables
_REFERENCE = {"binop_kernel.<locals>.kernel", "cmp_kernel.<locals>.kernel",
              "unop_kernel.<locals>.kernel", "cast_kernel.<locals>.kernel"}


def _ids(case):
    return f"{case[0]}-{case[1]}-{case[2]}"


class TestKernelsAreTheirTemplates:
    """The fast path states an op once: a kernel that has a template
    was compiled from it, and only the ops no template covers have a
    hand-written kernel."""

    @pytest.mark.parametrize("case", _SCALAR_KERNELS, ids=_ids)
    def test_templated_kernel_is_compiled_from_its_template(self, case):
        kind, op, value_ty, kernel = case
        template = _template(kind, op, value_ty)
        if kind == "cast" and kernel is identity_kernel:
            return                      # elided, never templated
        if template is not None:
            assert kernel.__code__.co_filename == KERNEL_FILENAME, case
        else:
            assert kernel.__code__.co_filename != KERNEL_FILENAME, case
            assert kernel.__qualname__ in _HAND_WRITTEN | _REFERENCE, \
                (case, kernel.__qualname__)

    @pytest.mark.parametrize("case", _SCALAR_KERNELS, ids=_ids)
    def test_pure_template_raises_on_no_grid_value(self, case):
        # tier-2 defers and reorders pure values: a pure template that
        # raised would move a trap
        kind, op, value_ty, kernel = case
        template = _template(kind, op, value_ty)
        if template is None or not template[1]:
            return
        grid = _values_for(op if kind == "cast" else value_ty)
        if kind in ("unop", "cast"):
            for a in grid:
                kernel(a)
        else:
            for a in grid:
                for b in grid:
                    kernel(a, b)

    @pytest.mark.parametrize("elem_ty", SCALAR_TYPES, ids=str)
    @pytest.mark.parametrize("op", BIN_OPS)
    def test_lane_kernel_comes_from_the_same_text(self, op, elem_ty):
        kernel = vec_binop_kernel(op, elem_ty)
        template = _template("binop", op, elem_ty)
        if (template is not None and template[1]) \
                or is_f32_quad(op, elem_ty):
            assert kernel.__code__.co_filename == KERNEL_FILENAME
        else:
            assert kernel.__qualname__ == \
                "_generic_vec_kernel.<locals>.vec_kernel"


def _any_outcome(call, *args):
    """``_outcome``, with whatever the reference raises."""
    try:
        return ("ok", call(*args))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


class TestUnknownCombinationsRunTheReference:
    """An op or type with no kernel entry (nor template) gets a kernel
    that runs the reference ladder itself, so a hostile or malformed
    instruction traps, or answers, exactly as the reference does."""

    @pytest.mark.parametrize("kernel, reference, key, operands", [
        (binop_kernel, eval_binop, ("bogus", ty.I32), (1, 2)),
        (binop_kernel, eval_binop, ("add", ty.VOID), (1, 2)),
        (cmp_kernel, eval_cmp, ("bogus", ty.F64), (1.0, 2.0)),
        (cmp_kernel, eval_cmp, ("lt", ty.VOID), (1, 2)),
        (unop_kernel, eval_unop, ("bogus", ty.I32), (1,)),
        (unop_kernel, eval_unop, ("neg", ty.VOID), (1,)),
        (unop_kernel, eval_unop, ("not", ty.F32), (1.0,)),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_scalar(self, kernel, reference, key, operands):
        assert _any_outcome(kernel(*key), *operands) == \
            _any_outcome(reference, *key, *operands)

    def test_cast(self):
        assert _any_outcome(cast_kernel(ty.I32, ty.VOID), 1) == \
            _any_outcome(eval_cast, 1, ty.I32, ty.VOID) == \
            ("TrapError", "cast i32 -> void undefined")

    def test_lanes(self):
        assert _any_outcome(vec_binop_kernel("bogus", ty.I32), [1], [2]) == \
            ("TrapError", "integer op 'bogus' undefined")
        assert _any_outcome(vec_binop_kernel("add", ty.VOID), [1], [2]) == \
            _any_outcome(eval_binop, "add", ty.VOID, 1, 2)

    def test_no_template(self):
        env = CodegenEnv({})
        assert inline_binop("add", ty.VOID, env) is None
        assert inline_cast(ty.I32, ty.VOID, env) is None
        assert inline_unop("bogus", ty.I32, env) is None
        assert inline_unop("neg", ty.VOID, env) is None
