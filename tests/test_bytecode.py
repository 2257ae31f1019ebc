"""Bytecode emission, encoding, verification, disassembly tests."""

import re

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
from repro.bytecode.module import (
    BytecodeFunction, BytecodeModule, FrameSlotInfo,
)
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

    @pytest.mark.parametrize("code,error", [
        # the engines read local 0's zero here, every native target
        # read the argument: f(41) was 0 on one and 41 on the other
        ([BCInstr("ldloc", None, 0), BCInstr("stloc", None, 1),
          BCInstr("ldarg", None, 0), BCInstr("stloc", None, 0),
          BCInstr("ldloc", None, 1), BCInstr("ret")],
         "f@0: local 0 read before assignment"),
        # stored on one arm of a diamond only
        ([BCInstr("ldarg", None, 0), BCInstr("brif", None, 4),
          BCInstr("ldarg", None, 0), BCInstr("stloc", None, 0),
          BCInstr("ldloc", None, 0), BCInstr("ret")],
         "f@4: local 0 read before assignment"),
        # stored on both arms
        ([BCInstr("ldarg", None, 0), BCInstr("brif", None, 5),
          BCInstr("ldarg", None, 0), BCInstr("stloc", None, 0),
          BCInstr("br", None, 7), BCInstr("const", "i32", 7),
          BCInstr("stloc", None, 0), BCInstr("ldloc", None, 0),
          BCInstr("ret")], None),
        # stored before a loop, read at its header
        ([BCInstr("ldarg", None, 0), BCInstr("stloc", None, 0),
          BCInstr("ldloc", None, 0), BCInstr("brif", None, 5),
          BCInstr("br", None, 2), BCInstr("ldloc", None, 0),
          BCInstr("ret")], None),
    ])
    def test_definite_assignment(self, code, error):
        func = self.make_func(code, params=["i32"],
                              locals_=["i32", "i32"])
        if error is None:
            self.verify(func)
            return
        with pytest.raises(BytecodeVerifyError) as info:
            self.verify(func)
        assert str(info.value) == error

    def test_all_compiler_output_verifies(self):
        for source in (GCD, "double f(double x) { return -x; }"):
            emit(source)


def _code(*instrs):
    return [BCInstr(*instr) for instr in instrs]


#: one hostile function per rejection site of the verifier
#: (``_verify_function`` and the ``_join`` / ``_step`` it drives), built
#: in memory: ``(site, code, params, locals, message)``.  ``f`` returns
#: ``i32`` and has one 8-byte frame slot.
REJECTIONS = [
    ("empty body", [], [], [], "f: empty body"),
    ("falls off the end", _code(("const", "i32", 1)), [], [],
     "f@1: control falls off the end of the function"),
    ("branch target", _code(("br", None, 9), ("ret",)), [], [],
     "f@0: branch target 9 out of range"),
    ("no reachable ret", _code(("br", None, 0), ("ret",)), [], [],
     "f: no reachable ret"),
    ("inconsistent merge",
     _code(("ldarg", None, 0), ("brif", None, 3), ("const", "i32", 1),
           ("const", "i32", 2), ("ret",)), ["i32"], [],
     "f@3: inconsistent stack at merge (depth 0 vs 1)"),
    ("stack underflow", _code(("pop",), ("ret",)), [], [],
     "f@0: stack underflow popping pop"),
    ("operand type", _code(("const", "f32", 1.0), ("neg", "i32"),
                           ("ret",)), [], [],
     "f@1: operand has type ['f32'], expected one of ['i32']"),
    ("bad const type", _code(("const", "bogus", 1), ("ret",)), [], [],
     "f@0: bad const type bogus"),
    ("ldarg index", _code(("ldarg", None, 2), ("ret",)), ["i32"], [],
     "f@0: ldarg index 2 out of range"),
    ("ldloc index", _code(("ldloc", None, 1), ("ret",)), [], ["i32"],
     "f@0: ldloc index 1 out of range"),
    ("read before assignment", _code(("ldloc", None, 0), ("ret",)), [],
     ["i32"], "f@0: local 0 read before assignment"),
    ("stloc index", _code(("const", "i32", 1), ("stloc", None, 3),
                          ("const", "i32", 1), ("ret",)), [], ["i32"],
     "f@1: stloc index 3 out of range"),
    ("frame slot", _code(("frame", None, 1), ("load", "i32"), ("ret",)),
     [], [], "f@0: frame slot 1 out of range"),
    ("binop type", _code(("const", "i32", 1), ("const", "i32", 1),
                         ("add", "bogus"), ("ret",)), [], [],
     "f@2: bad operand type bogus"),
    ("bitwise on float", _code(("const", "f64", 1.0), ("const", "f64", 1.0),
                               ("xor", "f64"), ("ret",)), [], [],
     "f@2: xor on float type f64"),
    ("not on float", _code(("const", "f32", 1.0), ("not", "f32"),
                           ("ret",)), [], [],
     "f@1: bitwise not on float"),
    ("bad predicate", _code(("const", "i32", 1), ("const", "i32", 1),
                            ("cmp", "i32", "lt?"), ("ret",)), [], [],
     "f@2: bad predicate lt?"),
    ("bad cast", _code(("const", "i32", 1), ("cast", "i32", "i33"),
                       ("ret",)), [], [],
     "f@1: bad cast i33 -> i32"),
    ("unknown callee", _code(("call", None, "ghost"), ("ret",)), [], [],
     "f@0: call to unknown function 'ghost'"),
    ("stack at ret", _code(("const", "i32", 1), ("const", "i32", 2),
                           ("ret",)), [], [],
     "f@2: stack not empty at ret: [frozenset({'i32'})]"),
    ("float lanes", _code(("frame", None, 0), ("vec.load", "f32"),
                          ("frame", None, 0), ("vec.load", "f32"),
                          ("vec.shl", "f32"), ("pop",),
                          ("const", "i32", 0), ("ret",)), [], [],
     "f@4: vec.shl on float lanes"),
    ("bad reduce op", _code(("frame", None, 0), ("vec.load", "i32"),
                            ("vec.reduce", "i32", ("mul", "i32")),
                            ("ret",)), [], [],
     "f@2: bad reduce op mul"),
    ("bad accumulator tag", _code(("frame", None, 0), ("vec.load", "i32"),
                                  ("vec.reduce", "i32", ("add", "i31")),
                                  ("ret",)), [], [],
     "f@2: bad accumulator tag i31"),
    ("accumulator class", _code(("frame", None, 0), ("vec.load", "i32"),
                                ("vec.reduce", "i32", ("add", "f32")),
                                ("ret",)), [], [],
     "f@2: reduce accumulator class mismatch"),
    ("unknown opcode", _code(("jmp", None, 0), ("ret",)), [], [],
     "f@0: unknown opcode 'jmp'"),
]


class TestVerifierRejects:
    """The verifier is tier-2's trust boundary: a guard may lean on
    verified code.  Each rejection site is reached by a module built in
    memory, and says what it rejected."""

    @pytest.mark.parametrize("site, code, params, locals_, message",
                             REJECTIONS, ids=[row[0] for row in REJECTIONS])
    def test_rejects(self, site, code, params, locals_, message):
        module = BytecodeModule("m")
        module.add(BytecodeFunction(
            "f", list(params), "i32", list(locals_),
            [FrameSlotInfo("s", 8, 8)], code))
        with pytest.raises(BytecodeVerifyError) as info:
            verify_module(module)
        assert str(info.value) == message

    def test_every_site_has_a_row(self):
        """A new rejection site in the verifier needs a row above."""
        import inspect
        from repro.bytecode import verifier
        text = inspect.getsource(verifier)
        sites = len(re.findall(r"\bfail\(pc, |raise BytecodeVerifyError\(",
                               text)) - 1       # ``fail`` itself raises
        assert sites == len(REJECTIONS)


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


class TestLessCommonForms:
    def test_calls_whose_result_goes_unused(self):
        """A call of an ``int`` function whose IR keeps no result pops
        it; a ``void`` call has none: the VM and x86 run both."""
        from repro.ir import Call
        from repro.jit import compile_for_target
        from repro.lang import types as ty
        from repro.semantics import Memory
        from repro.targets import Simulator
        from repro.vm import VM
        module = lower_checked("""
            int g(int *p) { p[0] = p[0] + 1; return p[0]; }
            void h(int *p) { p[1] = p[0] * 2; }
            int f(int *p) { g(p); h(p); return p[0] + p[1]; }""")
        calls = [i for i in module["f"].instructions()
                 if isinstance(i, Call)]
        assert calls[1].dst is None
        calls[0].dst = None
        bc, _ = emit_module(module)
        verify_module(bc)
        assert [i.op for i in bc.functions["f"].code].count("pop") == 1
        for image in (bc, compile_for_target(bc, "x86", "split")):
            memory = Memory()
            p = memory.alloc_array(ty.I32, [5, 0])
            if image is bc:
                assert VM(image, memory).call("f", [p]) == 18
            else:
                assert Simulator(image, memory).run("f", [p]).value == 18

    def test_unknown_annotation_kind_is_refused(self):
        from repro.bytecode.annotations import decode_annotation
        from repro.bytecode.varint import write_bytes, write_str, write_uint
        raw = bytearray()
        write_uint(raw, 99)
        write_str(raw, "f")
        write_bytes(raw, b"")
        with pytest.raises(ValueError, match="unknown annotation kind 99"):
            decode_annotation(bytes(raw), 0)

    def test_disassembly_lists_frame_slots(self):
        bc, _ = emit("int f(void) { int a[4]; a[1] = 3; return a[1]; }")
        assert "  .frame a: 16 align 4" in disassemble(bc)

    def test_duplicate_function_is_refused(self):
        module = BytecodeModule("m")
        module.add(BytecodeFunction("f", [], "i32", []))
        with pytest.raises(ValueError, match="duplicate function 'f'"):
            module.add(BytecodeFunction("f", [], "i32", []))


def test_emitter_refuses_an_instruction_it_cannot_encode():
    from repro.ir import Module
    from repro.ir.instructions import Instr

    class Bogus(Instr):
        pass

    module = lower_checked("int f(void) { return 1; }")
    module["f"].blocks[0].instrs.insert(0, Bogus(None, []))
    with pytest.raises(ValueError, match="cannot emit Bogus to bytecode"):
        emit_module(module)
    assert isinstance(module, Module)
