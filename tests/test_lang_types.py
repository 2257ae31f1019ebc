"""Type system unit and property tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lang import types as ty

ALL_INTS = list(ty.INT_TYPES)
ALL_ARITH = ALL_INTS + list(ty.FLOAT_TYPES)


class TestSizeofAndLayout:
    def test_scalar_sizes(self):
        assert ty.sizeof(ty.I8) == 1
        assert ty.sizeof(ty.U16) == 2
        assert ty.sizeof(ty.I32) == 4
        assert ty.sizeof(ty.U64) == 8
        assert ty.sizeof(ty.F32) == 4
        assert ty.sizeof(ty.F64) == 8

    def test_pointer_size(self):
        assert ty.sizeof(ty.PointerType(ty.I8)) == 8

    def test_array_size(self):
        assert ty.sizeof(ty.ArrayType(ty.I32, 10)) == 40
        assert ty.sizeof(ty.ArrayType(ty.ArrayType(ty.F64, 2), 3)) == 48

    def test_array_align_is_elem_align(self):
        assert ty.alignof(ty.ArrayType(ty.I16, 9)) == 2


class TestPromotionRules:
    def test_narrow_ints_promote_to_i32(self):
        for t in (ty.I8, ty.U8, ty.I16, ty.U16):
            assert ty.promote(t) == ty.I32

    def test_wide_types_unchanged(self):
        for t in (ty.I32, ty.U32, ty.I64, ty.U64, ty.F32, ty.F64):
            assert ty.promote(t) == t

    def test_common_type_float_dominates(self):
        assert ty.common_type(ty.I64, ty.F32) == ty.F32
        assert ty.common_type(ty.F32, ty.F64) == ty.F64

    def test_common_type_width_dominates(self):
        assert ty.common_type(ty.I32, ty.I64) == ty.I64

    def test_common_type_unsigned_wins_ties(self):
        assert ty.common_type(ty.I32, ty.U32) == ty.U32
        assert ty.common_type(ty.I64, ty.U64) == ty.U64

    def test_common_type_of_narrow_ints_is_i32(self):
        assert ty.common_type(ty.U8, ty.I16) == ty.I32

    @given(st.sampled_from(ALL_ARITH), st.sampled_from(ALL_ARITH))
    def test_common_type_commutative(self, a, b):
        assert ty.common_type(a, b) == ty.common_type(b, a)

    @given(st.sampled_from(ALL_ARITH))
    def test_common_type_idempotent_after_promotion(self, a):
        assert ty.common_type(a, a) == ty.promote(a)


class TestWrapping:
    def test_wrap_signed_overflow(self):
        assert ty.wrap_int(128, ty.I8) == -128
        assert ty.wrap_int(2**31, ty.I32) == -(2**31)

    def test_wrap_unsigned_overflow(self):
        assert ty.wrap_int(256, ty.U8) == 0
        assert ty.wrap_int(-1, ty.U8) == 255

    def test_int_bounds(self):
        assert ty.int_min(ty.I8) == -128
        assert ty.int_max(ty.I8) == 127
        assert ty.int_min(ty.U16) == 0
        assert ty.int_max(ty.U16) == 65535

    @given(st.sampled_from(ALL_INTS), st.integers(-2**70, 2**70))
    def test_wrap_is_idempotent(self, int_ty, value):
        once = ty.wrap_int(value, int_ty)
        assert ty.wrap_int(once, int_ty) == once

    @given(st.sampled_from(ALL_INTS), st.integers(-2**70, 2**70))
    def test_wrap_stays_in_range(self, int_ty, value):
        wrapped = ty.wrap_int(value, int_ty)
        assert ty.int_min(int_ty) <= wrapped <= ty.int_max(int_ty)

    @given(st.sampled_from(ALL_INTS), st.integers(-2**70, 2**70))
    def test_wrap_preserves_residue_mod_2n(self, int_ty, value):
        wrapped = ty.wrap_int(value, int_ty)
        assert (wrapped - value) % (1 << int_ty.bits) == 0


class TestDecay:
    def test_array_decays_to_pointer(self):
        arr = ty.ArrayType(ty.F32, 8)
        assert ty.decay(arr) == ty.PointerType(ty.F32)

    def test_scalar_decay_is_identity(self):
        assert ty.decay(ty.I32) == ty.I32

    def test_can_convert_between_arithmetic(self):
        assert ty.can_convert(ty.I8, ty.F64)
        assert ty.can_convert(ty.F32, ty.U16)

    def test_cannot_convert_pointer_pointee_mismatch(self):
        assert not ty.can_convert(ty.PointerType(ty.I32),
                                  ty.PointerType(ty.F32))

    def test_str_forms(self):
        assert str(ty.PointerType(ty.U8)) == "u8*"
        assert str(ty.ArrayType(ty.I32, 4)) == "i32[4]"
        assert str(ty.F64) == "f64"


class TestUndefined:
    def test_no_common_type_with_a_pointer(self):
        with pytest.raises(ValueError, match="no common arithmetic type "
                                             "for i32\\* and i32"):
            ty.common_type(ty.PointerType(ty.I32), ty.I32)

    def test_void_has_no_size(self):
        with pytest.raises(ValueError, match="sizeof undefined for void"):
            ty.sizeof(ty.VOID)

    def test_pointers_convert_only_to_themselves(self):
        p, q = ty.PointerType(ty.I32), ty.PointerType(ty.I64)
        assert ty.can_convert(ty.ArrayType(ty.I32, 4), p)
        assert not ty.can_convert(p, q)
        assert not ty.can_convert(ty.I64, p)
