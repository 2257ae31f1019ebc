"""Unit and property tests for the shared execution semantics."""

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.values import VecType
from repro.lang import types as ty
from repro.semantics import (
    Memory, TrapError, eval_binop, eval_cast, eval_cmp, eval_unop,
    round_float, vec_binop, vec_reduce, vec_splat,
)

INTS = list(ty.INT_TYPES)


def int_values(int_ty):
    return st.integers(ty.int_min(int_ty), ty.int_max(int_ty))


class TestIntegerOps:
    def test_add_wraps(self):
        assert eval_binop("add", ty.I8, 127, 1) == -128
        assert eval_binop("add", ty.U8, 255, 1) == 0

    def test_div_truncates_toward_zero(self):
        assert eval_binop("div", ty.I32, 7, 2) == 3
        assert eval_binop("div", ty.I32, -7, 2) == -3
        assert eval_binop("div", ty.I32, 7, -2) == -3

    def test_rem_sign_follows_dividend(self):
        assert eval_binop("rem", ty.I32, 7, 3) == 1
        assert eval_binop("rem", ty.I32, -7, 3) == -1
        assert eval_binop("rem", ty.I32, 7, -3) == 1

    def test_div_by_zero_traps(self):
        with pytest.raises(TrapError):
            eval_binop("div", ty.I32, 1, 0)
        with pytest.raises(TrapError):
            eval_binop("rem", ty.U16, 1, 0)

    def test_arithmetic_vs_logical_shift(self):
        assert eval_binop("shr", ty.I32, -8, 1) == -4
        assert eval_binop("shr", ty.U32, ty.wrap_int(-8, ty.U32), 1) == \
            (2**32 - 8) >> 1

    def test_shift_amount_masked(self):
        assert eval_binop("shl", ty.I32, 1, 33) == 2     # 33 & 31 == 1

    def test_bitwise_on_negative_values(self):
        assert eval_binop("and", ty.I8, -1, 0x0F) == 15
        assert eval_binop("or", ty.I8, -128, 1) == -127
        assert eval_binop("xor", ty.I8, -1, -1) == 0

    def test_min_max(self):
        assert eval_binop("max", ty.I32, -5, 3) == 3
        assert eval_binop("min", ty.U8, 200, 100) == 100

    @given(st.sampled_from(INTS), st.data())
    def test_add_matches_modular_arithmetic(self, int_ty, data):
        a = data.draw(int_values(int_ty))
        b = data.draw(int_values(int_ty))
        got = eval_binop("add", int_ty, a, b)
        assert (got - (a + b)) % (1 << int_ty.bits) == 0

    @given(st.sampled_from(INTS), st.data())
    def test_sub_then_add_roundtrips(self, int_ty, data):
        a = data.draw(int_values(int_ty))
        b = data.draw(int_values(int_ty))
        diff = eval_binop("sub", int_ty, a, b)
        assert eval_binop("add", int_ty, diff, b) == a

    @given(st.sampled_from(INTS), st.data())
    def test_div_rem_reconstruct(self, int_ty, data):
        a = data.draw(int_values(int_ty))
        b = data.draw(int_values(int_ty).filter(lambda v: v != 0))
        q = eval_binop("div", int_ty, a, b)
        r = eval_binop("rem", int_ty, a, b)
        # q*b + r == a unless q overflowed (INT_MIN / -1).
        if not (int_ty.signed and a == ty.int_min(int_ty) and b == -1):
            assert q * b + r == a

    @given(st.sampled_from(INTS), st.data())
    def test_results_always_in_range(self, int_ty, data):
        a = data.draw(int_values(int_ty))
        b = data.draw(int_values(int_ty))
        for op in ("add", "sub", "mul", "and", "or", "xor", "min", "max"):
            result = eval_binop(op, int_ty, a, b)
            assert ty.int_min(int_ty) <= result <= ty.int_max(int_ty)


class TestFloatOps:
    def test_f32_rounding_applied(self):
        # 0.1 + 0.2 differs between f32 and f64 precision.
        f32 = eval_binop("add", ty.F32, round_float(0.1, ty.F32),
                         round_float(0.2, ty.F32))
        f64 = eval_binop("add", ty.F64, 0.1, 0.2)
        assert f32 != f64
        assert f32 == struct.unpack("<f", struct.pack("<f", f32))[0]

    def test_float_div_by_zero_gives_inf(self):
        assert math.isinf(eval_binop("div", ty.F64, 1.0, 0.0))
        assert math.isnan(eval_binop("div", ty.F64, 0.0, 0.0))

    def test_unary_neg(self):
        assert eval_unop("neg", ty.F64, 2.5) == -2.5
        assert eval_unop("neg", ty.I8, -128) == -128    # wraps

    def test_nan_comparisons_unordered(self):
        assert eval_cmp("lt", ty.F64, math.nan, 1.0) == 0
        assert eval_cmp("eq", ty.F64, math.nan, math.nan) == 0
        assert eval_cmp("ne", ty.F64, math.nan, math.nan) == 1


class TestComparisons:
    def test_unsigned_comparison_uses_bit_pattern(self):
        # -1 as u32 is 4294967295, which is > 1.
        assert eval_cmp("gt", ty.U32, -1, 1) == 1
        assert eval_cmp("gt", ty.I32, -1, 1) == 0

    @given(st.sampled_from(INTS), st.data())
    def test_trichotomy(self, int_ty, data):
        a = data.draw(int_values(int_ty))
        b = data.draw(int_values(int_ty))
        results = [eval_cmp("lt", int_ty, a, b),
                   eval_cmp("eq", int_ty, a, b),
                   eval_cmp("gt", int_ty, a, b)]
        assert sum(results) == 1

    @given(st.sampled_from(INTS), st.data())
    def test_le_is_lt_or_eq(self, int_ty, data):
        a = data.draw(int_values(int_ty))
        b = data.draw(int_values(int_ty))
        le = eval_cmp("le", int_ty, a, b)
        lt = eval_cmp("lt", int_ty, a, b)
        eq = eval_cmp("eq", int_ty, a, b)
        assert le == (1 if lt or eq else 0)


class TestCasts:
    def test_narrowing_wraps(self):
        assert eval_cast(300, ty.I32, ty.U8) == 44
        assert eval_cast(200, ty.I32, ty.I8) == -56

    def test_float_to_int_truncates(self):
        assert eval_cast(2.9, ty.F64, ty.I32) == 2
        assert eval_cast(-2.9, ty.F64, ty.I32) == -2

    def test_inf_nan_to_int_is_zero(self):
        assert eval_cast(math.inf, ty.F64, ty.I32) == 0
        assert eval_cast(math.nan, ty.F64, ty.I64) == 0

    def test_f64_to_f32_rounds(self):
        precise = 1.0000000001
        assert eval_cast(precise, ty.F64, ty.F32) == \
            struct.unpack("<f", struct.pack("<f", precise))[0]

    @given(st.sampled_from(INTS), st.sampled_from(INTS), st.data())
    def test_int_casts_stay_in_range(self, src_ty, dst_ty, data):
        value = data.draw(int_values(src_ty))
        result = eval_cast(value, src_ty, dst_ty)
        assert ty.int_min(dst_ty) <= result <= ty.int_max(dst_ty)


class TestMemory:
    def test_roundtrip_every_scalar_type(self):
        mem = Memory(4096)
        cases = [(ty.I8, -5), (ty.U8, 200), (ty.I16, -30000),
                 (ty.U16, 60000), (ty.I32, -2**31), (ty.U32, 2**32 - 1),
                 (ty.I64, -2**63), (ty.U64, 2**64 - 1),
                 (ty.F32, 1.5), (ty.F64, math.pi)]
        addr = 128
        for value_ty, value in cases:
            mem.store(value_ty, addr, value)
            assert mem.load(value_ty, addr) == value

    def test_little_endian_layout(self):
        mem = Memory(4096)
        mem.store(ty.U32, 128, 0x01020304)
        assert mem.load(ty.U8, 128) == 0x04
        assert mem.load(ty.U8, 131) == 0x01

    def test_null_access_traps(self):
        mem = Memory(4096)
        with pytest.raises(TrapError):
            mem.load(ty.I32, 0)
        with pytest.raises(TrapError):
            mem.store(ty.I8, 10, 1)

    def test_out_of_bounds_traps(self):
        mem = Memory(4096)
        with pytest.raises(TrapError):
            mem.load(ty.I64, 4090)

    def test_alloc_respects_alignment(self):
        mem = Memory(4096)
        mem.alloc(3)
        addr = mem.alloc(16, align=16)
        assert addr % 16 == 0

    def test_heap_stack_collision_traps(self):
        mem = Memory(1024)
        mem.push_frame(512)
        with pytest.raises(TrapError):
            mem.alloc(1024)

    def test_frame_push_pop(self):
        mem = Memory(4096)
        sp0 = mem.stack_ptr
        base = mem.push_frame(64)
        assert base < sp0
        mem.pop_frame(base, 64)
        assert mem.stack_ptr >= base + 64

    def test_too_small_is_refused(self):
        with pytest.raises(ValueError, match="memory too small"):
            Memory(64)

    def test_stack_overflow_traps(self):
        mem = Memory(1024)
        with pytest.raises(TrapError, match="stack overflow"):
            mem.push_frame(1024)

    def test_unpaired_pop_restores_from_the_frame(self):
        mem = Memory(4096)
        mem.pop_frame(1000, 24)
        assert mem.stack_ptr == 1024
        mem.pop_frame(4000, 200)
        assert mem.stack_ptr == 4096

    def test_only_scalar_types_load_and_store(self):
        mem = Memory(4096)
        vec = VecType(ty.I32, 4)
        with pytest.raises(TrapError, match="cannot load type <4 x i32>"):
            mem.load(vec, 128)
        with pytest.raises(TrapError, match="cannot store type <4 x i32>"):
            mem.store(vec, 128, [1, 2, 3, 4])

    def test_store_converts_a_value_its_type_cannot_pack(self):
        """A value outside the stored type wraps, a float stored as an
        integer truncates, scalar and lane by lane."""
        mem = Memory(4096)
        mem.store(ty.U8, 128, 300)
        mem.store(ty.I32, 132, -2.7)
        assert (mem.load(ty.U8, 128), mem.load(ty.I32, 132)) == (44, -2)
        mem.store_vec(ty.I16, 144, [2**15, 1.9, -1])
        assert mem.load_vec(ty.I16, 3, 144) == [-2**15, 1, -1]
        mem.store_vec(ty.F32, 160, [1, "2.5"])
        assert mem.load_vec(ty.F32, 2, 160) == [1.0, 2.5]

    @given(st.integers(64, 4000), st.integers(-2**31, 2**31 - 1))
    def test_store_load_property(self, addr, value):
        mem = Memory(8192)
        mem.store(ty.I32, addr, value)
        assert mem.load(ty.I32, addr) == value


class TestVectors:
    def test_lanewise_add(self):
        assert vec_binop("add", ty.U8, [250, 1], [10, 2]) == [4, 3]

    def test_splat(self):
        assert vec_splat(7, 4) == [7, 7, 7, 7]

    def test_reduce_add_wraps_in_elem_type(self):
        assert vec_reduce("add", ty.U8, [200, 100]) == 44

    def test_reduce_max(self):
        assert vec_reduce("max", ty.I32, [3, -7, 11, 2]) == 11

    def test_lane_mismatch_traps(self):
        with pytest.raises(TrapError):
            vec_binop("add", ty.I32, [1, 2], [1])

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=16))
    def test_reduce_add_matches_modular_sum(self, lanes):
        assert vec_reduce("add", ty.U8, lanes) == sum(lanes) % 256

    @given(st.lists(st.integers(-128, 127), min_size=1, max_size=16))
    def test_reduce_max_matches_python_max(self, lanes):
        assert vec_reduce("max", ty.I8, lanes) == max(lanes)
