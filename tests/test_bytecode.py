"""Bytecode emission, encoding, verification, disassembly tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import (
    BCInstr, decode_module, disassemble, emit_module, encode_module,
    verify_module, BytecodeVerifyError,
)
from repro.bytecode.annotations import (
    HotnessAnnotation, HWRequirementAnnotation, RegAllocAnnotation,
    LaneFactsAnnotation, decode_annotation, encode_annotation,
)
from repro.bytecode.module import BytecodeFunction, BytecodeModule
from repro.bytecode.varint import (
    read_sint, read_str, read_uint, write_sint, write_str, write_uint,
)
from repro.frontend import lower_source
from repro.opt import PassManager, standard_passes
from tests.support import lower_checked

GCD = """
int gcd(int a, int b) {
    while (b != 0) { int t = a % b; a = b; b = t; }
    return a;
}
"""


def emit(source):
    module = lower_checked(source)
    bc, labels = emit_module(module)
    verify_module(bc)
    return bc, labels


class TestVarint:
    @given(st.integers(0, 2**64 - 1))
    def test_uint_roundtrip(self, value):
        out = bytearray()
        write_uint(out, value)
        got, pos = read_uint(bytes(out), 0)
        assert got == value and pos == len(out)

    @given(st.integers(-2**63, 2**63 - 1))
    def test_sint_roundtrip(self, value):
        out = bytearray()
        write_sint(out, value)
        got, pos = read_sint(bytes(out), 0)
        assert got == value and pos == len(out)

    @given(st.text(max_size=60))
    def test_str_roundtrip(self, text):
        out = bytearray()
        write_str(out, text)
        got, pos = read_str(bytes(out), 0)
        assert got == text and pos == len(out)

    def test_small_values_one_byte(self):
        out = bytearray()
        write_uint(out, 100)
        assert len(out) == 1


class TestEmission:
    def test_branch_targets_resolve(self):
        bc, _ = emit(GCD)
        func = bc["gcd"]
        for instr in func.code:
            if instr.op in ("br", "brif"):
                assert 0 <= instr.arg < len(func.code)

    def test_label_map_covers_blocks(self):
        module = lower_checked(GCD)
        bc, labels = emit_module(module)
        func = module["gcd"]
        assert set(labels["gcd"]) == {b.label for b in func.blocks}

    def test_mutated_param_gets_prologue_copy(self):
        bc, _ = emit(GCD)            # gcd reassigns both params
        func = bc["gcd"]
        assert func.code[0].op == "ldarg"
        assert func.code[1].op == "stloc"

    def test_unmutated_param_stays_ldarg(self):
        bc, _ = emit("int f(int a, int b) { return a + b; }")
        ops = [i.op for i in bc["f"].code]
        assert ops.count("ldarg") == 2

    def test_frame_slots_emitted(self):
        bc, _ = emit("""
            int f(void) {
                int buf[10];
                buf[3] = 7;
                return buf[3];
            }""")
        func = bc["f"]
        assert len(func.frame_slots) == 1
        assert func.frame_slots[0].size == 40
        assert any(i.op == "frame" for i in func.code)

    def test_vector_ops_emitted(self):
        module = lower_checked("""
            void scale(float *x, int n) {
                for (int i = 0; i < n; i++) x[i] = 2.0f * x[i];
            }""")
        func = module["scale"]
        PassManager(standard_passes(), verify=True).run(func)
        from repro.opt.vectorize import vectorize
        assert vectorize(func).changed
        bc, _ = emit_module(module)
        verify_module(bc)
        ops = {i.op for i in bc["scale"].code}
        assert "vec.load" in ops and "vec.store" in ops
        assert "vec.splat" in ops and "vec.mul" in ops


class TestEncoding:
    def roundtrip(self, source, optimize=False, vectorize_it=False):
        module = lower_checked(source)
        if optimize:
            for func in module:
                PassManager(standard_passes(), verify=True).run(func)
        if vectorize_it:
            from repro.opt.vectorize import vectorize
            for func in module:
                vectorize(func)
        bc, _ = emit_module(module)
        raw = encode_module(bc)
        decoded = decode_module(raw)
        verify_module(decoded)
        return bc, decoded, raw

    def assert_equal_modules(self, bc, decoded):
        assert set(bc.functions) == set(decoded.functions)
        for name in bc.functions:
            a, b = bc[name], decoded[name]
            assert a.param_types == b.param_types
            assert a.ret_type == b.ret_type
            assert a.local_types == b.local_types
            assert len(a.code) == len(b.code)
            for x, y in zip(a.code, b.code):
                assert (x.op, x.ty, x.arg) == (y.op, y.ty, y.arg)

    def test_roundtrip_scalar(self):
        bc, decoded, _ = self.roundtrip(GCD)
        self.assert_equal_modules(bc, decoded)

    def test_roundtrip_vectorized(self):
        source = """
            int sum_u8(unsigned char *a, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a[i];
                return s;
            }"""
        bc, decoded, _ = self.roundtrip(source, optimize=True,
                                        vectorize_it=True)
        self.assert_equal_modules(bc, decoded)

    def test_roundtrip_floats_and_doubles(self):
        source = "double f(double x, float y) { return x * y + 0.5; }"
        bc, decoded, _ = self.roundtrip(source)
        self.assert_equal_modules(bc, decoded)

    def test_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_module(b"NOPE" + b"\x00" * 10)

    def test_annotations_roundtrip(self):
        bc, _, _ = self.roundtrip(GCD)
        bc.annotations.append(LaneFactsAnnotation(
            function="gcd", tuple_locals=frozenset({3, 200}),
            lane_locals={3: 16, 1: 4}, access_widths=frozenset({16, 1})))
        bc.annotations.append(RegAllocAnnotation(
            function="gcd", priorities=[5, 1, 900, 3]))
        bc.annotations.append(HotnessAnnotation(function="gcd",
                                                weight=12345))
        bc.annotations.append(HWRequirementAnnotation(
            function="gcd", wants_simd=True, wants_fp64=True))
        decoded = decode_module(encode_module(bc))
        kinds = [type(a).__name__ for a in decoded.annotations]
        assert kinds == ["LaneFactsAnnotation", "RegAllocAnnotation",
                         "HotnessAnnotation", "HWRequirementAnnotation"]
        lanes = decoded.annotations[0]
        assert lanes == bc.annotations[0]
        assert lanes.lane_locals == {1: 4, 3: 16}
        assert decoded.annotations[1].priorities == [5, 1, 900, 3]
        assert decoded.annotations[2].weight == 12345
        assert decoded.annotations[3].wants_simd
        assert decoded.annotations[3].wants_fp64
        assert not decoded.annotations[3].wants_fp

    @settings(max_examples=30, deadline=None)
    @given(priorities=st.lists(st.integers(0, 10**6), max_size=40),
           weight=st.integers(0, 10**9),
           tuples=st.frozensets(st.integers(0, 10**6), max_size=8),
           lanes=st.dictionaries(st.integers(0, 10**6),
                                 st.integers(0, 2**70), max_size=8),
           widths=st.frozensets(st.integers(0, 2**70), max_size=8))
    def test_annotation_payload_roundtrip_property(
            self, priorities, weight, tuples, lanes, widths):
        for annotation in (
                RegAllocAnnotation(function="f", priorities=priorities),
                HotnessAnnotation(function="f", weight=weight),
                LaneFactsAnnotation(function="f", tuple_locals=tuples,
                                    lane_locals=lanes,
                                    access_widths=widths)):
            out = bytearray()
            encode_annotation(out, annotation)
            decoded, pos = decode_annotation(bytes(out), 0)
            assert pos == len(out)
            assert decoded == annotation


class TestVerifier:
    def make_func(self, code, ret="i32", params=(), locals_=()):
        return BytecodeFunction("f", list(params), ret, list(locals_),
                                [], code)

    def verify(self, func):
        module = BytecodeModule("m")
        module.add(func)
        verify_module(module)

    def test_accepts_trivial(self):
        self.verify(self.make_func([
            BCInstr("const", "i32", 42), BCInstr("ret")]))

    def test_rejects_underflow(self):
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func([
                BCInstr("add", "i32"), BCInstr("ret")]))

    def test_rejects_type_mismatch(self):
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func([
                BCInstr("const", "i32", 1),
                BCInstr("const", "f32", 1.0),
                BCInstr("add", "i32"), BCInstr("ret")]))

    def test_rejects_missing_ret(self):
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func([
                BCInstr("const", "i32", 1), BCInstr("stloc", None, 0)],
                locals_=["i32"]))

    def test_rejects_bad_local_index(self):
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func([
                BCInstr("ldloc", None, 5), BCInstr("ret")],
                locals_=["i32"]))

    def test_rejects_branch_out_of_range(self):
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func([
                BCInstr("br", None, 99),
                BCInstr("const", "i32", 0), BCInstr("ret")]))

    def test_rejects_inconsistent_merge(self):
        # Two paths reach pc 5 with different stack depths.
        code = [
            BCInstr("const", "i32", 1),        # 0
            BCInstr("brif", None, 4),          # 1: jump with empty stack
            BCInstr("const", "i32", 7),        # 2: push
            BCInstr("br", None, 4),            # 3: jump with 1 on stack
            BCInstr("const", "i32", 0),        # 4
            BCInstr("ret"),                    # 5
        ]
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func(code))

    def test_accepts_diamond_with_joinable_tags(self):
        # One arm produces i64, the other u64; the merged value feeds
        # an address pop, which both tags satisfy.  The old
        # identical-states merge rule spuriously rejected this.
        code = [
            BCInstr("ldarg", None, 0),         # 0: condition
            BCInstr("brif", None, 4),          # 1
            BCInstr("const", "i64", 8),        # 2
            BCInstr("br", None, 5),            # 3
            BCInstr("const", "u64", 8),        # 4
            BCInstr("load", "i32"),            # 5: {i64,u64} as address
            BCInstr("ret"),                    # 6
        ]
        self.verify(self.make_func(code, params=["i32"]))

    def test_rejects_diamond_with_incompatible_use(self):
        # The join itself is fine ({i32,f32}), but the merged value
        # cannot satisfy an i32-typed add.
        code = [
            BCInstr("ldarg", None, 0),         # 0
            BCInstr("brif", None, 4),          # 1
            BCInstr("const", "i32", 1),        # 2
            BCInstr("br", None, 5),            # 3
            BCInstr("const", "f32", 1.0),      # 4
            BCInstr("const", "i32", 2),        # 5
            BCInstr("add", "i32"),             # 6: lhs may be f32
            BCInstr("ret"),                    # 7
        ]
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func(code, params=["i32"]))

    def test_loop_merge_requeues_to_fixpoint(self):
        # A loop whose back edge widens the header's slot from {i64}
        # to {i64,u64}: the verifier must re-queue the header and
        # still accept (the slot only ever feeds an address pop).
        code = [
            BCInstr("const", "i64", 16),       # 0
            BCInstr("load", "i32"),            # 1: header; addr pop
            BCInstr("brif", None, 5),          # 2: exit loop
            BCInstr("const", "u64", 16),       # 3: widen the slot
            BCInstr("br", None, 1),            # 4: back edge
            BCInstr("const", "i32", 0),        # 5
            BCInstr("ret"),                    # 6
        ]
        self.verify(self.make_func(code))

    def test_rejects_stack_left_at_ret(self):
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func([
                BCInstr("const", "i32", 1),
                BCInstr("const", "i32", 2),
                BCInstr("ret")]))

    def test_rejects_wrong_return_type(self):
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func([
                BCInstr("const", "f64", 1.0), BCInstr("ret")]))

    def test_rejects_call_to_unknown(self):
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func([
                BCInstr("call", None, "ghost"),
                BCInstr("ret")]))

    def test_rejects_float_bitwise(self):
        with pytest.raises(BytecodeVerifyError):
            self.verify(self.make_func([
                BCInstr("const", "f32", 1.0),
                BCInstr("const", "f32", 2.0),
                BCInstr("and", "f32"), BCInstr("ret")], ret="f32"))

    def test_all_compiler_output_verifies(self):
        for source in (GCD, "double f(double x) { return -x; }"):
            emit(source)


class TestDisassembler:
    def test_contains_function_header(self):
        bc, _ = emit(GCD)
        text = disassemble(bc)
        assert ".func gcd(i32, i32) -> i32" in text

    def test_branch_targets_marked(self):
        bc, _ = emit(GCD)
        text = disassemble(bc)
        assert "->" in text

    def test_annotations_listed(self):
        bc, _ = emit(GCD)
        bc.annotations.append(HotnessAnnotation(function="gcd",
                                                weight=5))
        assert "HotnessAnnotation" in disassemble(bc)


class TestCompactness:
    def test_bytecode_smaller_than_textual_ir(self):
        module = lower_checked(GCD)
        from repro.ir import format_module
        text_size = len(format_module(module).encode())
        bc, _ = emit_module(module)
        assert len(encode_module(bc)) < text_size
