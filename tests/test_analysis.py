"""The dataflow-analysis plane: solver, facts tables, caching, the
tier-2/OSR consumers and the deploy-time admission gate.

These tests pin the plane's contracts rather than re-proving engine
semantics (the three-way differential suite owns that): the worklist
solvers converge to the expected fixpoints on hand-built graphs, facts
tables are content-addressed and picklable, both tier-2 builders
record facts provenance, OSR guard elision actually fires (and the
``PVI_OSR_GUARDS=1`` escape hatch preserves observations exactly), and
the service refuses unverifiable artifacts while surfacing warnings.
"""

from __future__ import annotations

import hashlib
import pathlib
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AdmissionError, BlockCFG, FactsTable, bytecode_facts, check_admission,
    lint_bytecode_module, machine_facts, module_facts, solve_backward,
    solve_forward,
)
from repro.analysis.intervals import (
    INF, TRANSFERS, Affine, Interval, binop, exact_binop,
)
from repro.analysis.passes import (
    int_value_ranges, lane_fixpoint, range_findings,
)
from repro.bytecode.annotations import LaneFactsAnnotation
from repro.bytecode.opcodes import BCInstr
from repro.core import deploy, offline_compile
from repro.engine import OSR_GUARDS_ENV
from repro.lang import types as ty
from repro.semantics import Memory
from repro.service import CompilationService
from repro.targets import Simulator, X86
from repro.targets import dispatch
from repro.vm import VM
from repro.vm import threaded
from repro.workloads import ALL_KERNELS

N = 64
SAXPY = ALL_KERNELS["saxpy_fp"]

#: ``(lines, sha256)`` of the range lint's output over the corpus
#: (``TestRangeEdges.test_ranges_and_findings_of_the_corpus_are_pinned``)
PINNED_RANGES = (
    228, "ec19553bf31dfc421988ca2e41c55d8cf5ca57b46843d30521361e9a62e1a867")


def _fresh_artifact(kernel=SAXPY, name="mod"):
    """A private artifact per test: facts/predecode caches live on the
    function objects, so sharing one artifact would leak tier-2 builds
    (and env-dependent guard decisions) across tests."""
    return offline_compile(kernel.source, name)


def _vm_observation(bytecode, kernel, engine="tier2"):
    memory = Memory(1 << 21)
    run = kernel.prepare(memory, N)
    vm = VM(bytecode, memory=memory, engine=engine)
    value = vm.call(kernel.entry, run.args)
    outputs = [memory.read_array(elem_ty, addr, count)
               for elem_ty, addr, count in run.outputs]
    return repr(value), tuple(repr(o) for o in outputs), \
        vm.instructions_executed


# ---------------------------------------------------------------------------
# worklist solvers
# ---------------------------------------------------------------------------

class TestSolvers:
    def _diamond(self):
        # 0: brif -> 4 | fall 2 ; 2: br 6 ; 4: fall 6 ; 6: ret
        code = [
            BCInstr("const", "i32", 1), BCInstr("brif", None, 4),
            BCInstr("const", "i32", 0), BCInstr("br", None, 6),
            BCInstr("const", "i32", 0), BCInstr("stloc", None, 0),
            BCInstr("ret", None, None),
        ]
        return code, BlockCFG(code)

    def test_cfg_shape(self):
        code, cfg = self._diamond()
        assert set(cfg.blocks) == {0, 2, 4, 6}
        assert sorted(cfg.successors[0]) == [2, 4]
        assert cfg.successors[6] == []
        assert sorted(cfg.predecessors[6]) == [2, 4]
        assert cfg.reachable() == frozenset({0, 2, 4, 6})

    def test_forward_must_meet_is_path_intersection(self):
        code, cfg = self._diamond()

        def transfer(leader, fact):
            # each arm "defines" its own leader id; entry defines 0
            return fact | {leader}

        def join(old, new):
            merged = old & new
            return merged, merged != old

        out = solve_forward(cfg, frozenset(), transfer, join)
        # both arms reach 6, so only facts common to both paths survive
        assert out[6] == frozenset({0})
        assert out[2] == frozenset({0})
        assert out[4] == frozenset({0})

    def test_backward_may_join_is_path_union(self):
        code, cfg = self._diamond()

        def transfer(leader, fact):
            return fact | {leader}

        def join(old, new):
            merged = old | new
            return merged, merged != old

        out = solve_backward(cfg, frozenset(), transfer, join)
        # entry sees everything live-out anywhere downstream
        assert out[0] >= frozenset({2, 4, 6})


# ---------------------------------------------------------------------------
# facts tables: content addressing, pickling
# ---------------------------------------------------------------------------

class TestFactsTable:
    def test_cache_hits_until_code_changes(self):
        func = _fresh_artifact().bytecode.functions[SAXPY.entry]
        facts1, fresh1 = bytecode_facts(func)
        facts2, fresh2 = bytecode_facts(func)
        assert fresh1 and not fresh2
        assert facts2 is facts1
        # in-place mutation changes the content token: cache misses
        func.code.append(BCInstr("ret", None, None))
        facts3, fresh3 = bytecode_facts(func)
        assert fresh3
        assert facts3 is not facts1

    def test_saxpy_facts_prove_what_tier2_needs(self):
        module = _fresh_artifact().bytecode
        func = module.functions[SAXPY.entry]
        # what tier-2 needs ships with the code, and is what the lane
        # walk computes: the vectorized loop carries lane-typed locals
        # and accesses
        shipped, = module.annotations_for(SAXPY.entry, LaneFactsAnnotation)
        assert shipped == lane_fixpoint(func)
        assert shipped.lane_locals, "vectorized saxpy must prove lanes"
        assert shipped.access_widths
        # the lint plane's table is about something else
        facts, _ = bytecode_facts(func)
        assert facts is not None and facts.kind == "bytecode"
        assert facts.reachable <= frozenset(facts.blocks)

    def test_module_facts_pickle_roundtrip(self):
        module = _fresh_artifact().bytecode
        table = module_facts(module)
        clone = pickle.loads(pickle.dumps(table))
        assert isinstance(clone, FactsTable)
        assert set(clone.functions) == set(table.functions)
        for name, facts in table.functions.items():
            assert clone.get(name) == facts     # every lint field
            assert facts.blocks and facts.ranges
        # the lane tables pickle with the module that carries them
        shipped = module.annotations_for(SAXPY.entry, LaneFactsAnnotation)
        assert pickle.loads(pickle.dumps(module)).annotations_for(
            SAXPY.entry, LaneFactsAnnotation) == shipped != []

    def test_function_with_facts_cache_survives_pickling(self):
        # the ProcessExecutor pickles artifacts whole; a populated
        # facts cache must not break that (facts are pure data)
        func = _fresh_artifact().bytecode.functions[SAXPY.entry]
        bytecode_facts(func)
        clone = pickle.loads(pickle.dumps(func))
        facts, fresh = bytecode_facts(clone)
        assert facts is not None

    def test_machine_facts_written_at_entry(self):
        compiled = deploy(_fresh_artifact(), X86, flow="split")
        func = compiled.functions[SAXPY.entry]
        facts, fresh = machine_facts(func)
        assert fresh and facts is not None and facts.kind == "machine"
        assert facts.param_regs
        for leader, written in facts.written_at_entry.items():
            assert facts.param_regs <= written


# ---------------------------------------------------------------------------
# tier-2 consumers: provenance counters and guard elision
# ---------------------------------------------------------------------------

class TestTier2Consumers:
    def test_vm_warm_hook_prepays_facts(self, monkeypatch):
        monkeypatch.delenv(OSR_GUARDS_ENV, raising=False)
        artifact = _fresh_artifact()
        # the scalar flavour ships no table: every warm build computes
        # its own, and that is what ``facts_warm`` counts
        threaded.reset_tier2_build_stats()
        threaded.warm_bytecode_module(artifact.scalar_bytecode)
        stats = threaded.tier2_build_stats()
        assert stats["warm"] > 0 and stats["facts_warm"] == stats["warm"]
        # the annotated flavour's tables were computed offline
        threaded.reset_tier2_build_stats()
        threaded.warm_bytecode_module(artifact.bytecode)
        stats = threaded.tier2_build_stats()
        assert stats["warm"] > 0 and stats["facts_warm"] == 0
        assert stats["request"] == 0 and stats["facts_request"] == 0
        # warmed builds elide OSR lane guards by default
        assert stats["guards_elided"] > 0
        assert stats["guards_kept"] == 0
        # a serving call after warming costs no request-path build,
        # and re-running facts is a cache hit (no new provenance)
        _vm_observation(artifact.bytecode, SAXPY)
        after = threaded.tier2_build_stats()
        assert after["request"] == 0 and after["facts_request"] == 0

    def test_sim_warm_hook_prepays_facts_and_elides_guards(
            self, monkeypatch):
        monkeypatch.delenv(OSR_GUARDS_ENV, raising=False)
        compiled = deploy(_fresh_artifact(), X86, flow="split")
        dispatch.reset_tier2_build_stats()
        dispatch.warm_module(compiled)
        stats = dispatch.tier2_build_stats()
        assert stats["warm"] > 0 and stats["facts_warm"] > 0
        assert stats["facts_request"] == 0
        assert stats["guards_elided"] > 0
        assert stats["guards_kept"] == 0

    def test_osr_guard_env_keeps_guards_with_identical_observation(
            self, monkeypatch):
        monkeypatch.delenv(OSR_GUARDS_ENV, raising=False)
        baseline = _vm_observation(_fresh_artifact().bytecode, SAXPY)
        monkeypatch.setenv(OSR_GUARDS_ENV, "1")
        artifact = _fresh_artifact()
        threaded.reset_tier2_build_stats()
        guarded = _vm_observation(artifact.bytecode, SAXPY)
        stats = threaded.tier2_build_stats()
        assert stats["guards_kept"] > 0
        assert stats["guards_elided"] == 0
        assert guarded == baseline

    def test_sim_osr_guard_env_parity(self, monkeypatch):
        def observe():
            compiled = deploy(_fresh_artifact(), X86, flow="split")
            memory = Memory(1 << 21)
            run = SAXPY.prepare(memory, N)
            result = Simulator(compiled, memory, engine="tier2").run(
                SAXPY.entry, run.args)
            return repr(result.value), result.instructions, result.cycles

        monkeypatch.delenv(OSR_GUARDS_ENV, raising=False)
        baseline = observe()
        monkeypatch.setenv(OSR_GUARDS_ENV, "1")
        dispatch.reset_tier2_build_stats()
        guarded = observe()
        stats = dispatch.tier2_build_stats()
        assert stats["guards_kept"] > 0 and stats["guards_elided"] == 0
        assert guarded == baseline


# ---------------------------------------------------------------------------
# the admission gate
# ---------------------------------------------------------------------------

def _dead_block_artifact():
    """A verifiable artifact with an unreachable tail block (warn)."""
    artifact = _fresh_artifact(name="dead_tail")
    func = artifact.bytecode.functions[SAXPY.entry]
    func.code.append(BCInstr("const", "i32", 0))
    func.code.append(BCInstr("ret", None, None))
    return artifact


def _unverifiable_artifact():
    """Stack underflow at pc 0: the verifier rejects the module."""
    artifact = _fresh_artifact(name="broken")
    artifact.bytecode.functions[SAXPY.entry].code.insert(
        0, BCInstr("pop", None, None))
    return artifact


class TestAdmissionGate:
    def test_clean_artifact_passes_with_no_findings(self):
        service = CompilationService(executor="inline")
        try:
            service.deploy(_fresh_artifact(), "x86")
            stats = service.stats()
            assert stats["lint"]["rejections"] == 0
            assert stats["lint"]["findings"] == []
        finally:
            service.shutdown()

    def test_warn_findings_surface_once_per_artifact(self):
        service = CompilationService(executor="inline")
        try:
            artifact = _dead_block_artifact()
            service.deploy(artifact, "x86")
            service.deploy(artifact, "sparc")
            stats = service.stats()
            assert stats["lint"]["rejections"] == 0
            codes = [f["code"] for f in stats["lint"]["findings"]]
            assert codes.count("dead-block") == 1
        finally:
            service.shutdown()

    def test_error_findings_reject_deployment(self):
        service = CompilationService(executor="inline")
        try:
            artifact = _unverifiable_artifact()
            with pytest.raises(AdmissionError) as info:
                service.deploy(artifact, "x86")
            assert any(f.severity == "error" for f in info.value.findings)
            assert service.stats()["lint"]["rejections"] == 1
        finally:
            service.shutdown()

    def test_check_admission_direct(self):
        findings = check_admission(_dead_block_artifact())
        assert any(f.code == "dead-block" and f.severity == "warn"
                   for f in findings)
        with pytest.raises(AdmissionError):
            check_admission(_unverifiable_artifact())


# ---------------------------------------------------------------------------
# the lint surface itself
# ---------------------------------------------------------------------------

class TestLintFindings:
    def test_unverifiable_module_gets_single_verify_error(self):
        findings = lint_bytecode_module(
            _unverifiable_artifact().bytecode)
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert findings[0].code == "verify"

    def test_workload_kernels_lint_clean_of_errors(self):
        for name in sorted(ALL_KERNELS):
            artifact = offline_compile(ALL_KERNELS[name].source, name)
            findings = lint_bytecode_module(artifact.bytecode)
            errors = [f for f in findings if f.severity == "error"]
            assert not errors, f"{name}: {errors}"

    def test_cli_clean_source_exits_zero(self, tmp_path, capsys):
        from repro.analysis.cli import main
        path = tmp_path / "ok.pvi"
        path.write_text(SAXPY.source)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "pvi-lint:" in out

    def test_cli_compile_failure_exits_two(self, tmp_path, capsys):
        from repro.analysis.cli import main
        path = tmp_path / "bad.pvi"
        path.write_text("void f( {")
        assert main([str(path)]) == 2
        assert "compile" in capsys.readouterr().out

    def test_cli_renders_each_finding_at_its_instruction(self, tmp_path,
                                                          capsys):
        """A warning and a note, each with the disassembly around its
        pc and the pc's line marked; ``--strict`` fails on the
        warning."""
        from repro.analysis.cli import main
        path = tmp_path / "null.pvi"
        path.write_text("int f(int a) { int *p = (int *) 16; int x = 3; "
                        "x = 4; if (a > 0) return *p; return x; }")
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert f"== {path} ==\nwarn[null-access] f:10: load address" in out
        assert "    >>    10: load.i32\n" in out
        assert "info[dead-store] f:1: store to local 0 is never read" in out
        assert "    >>     1: stloc            0\n" in out
        assert out.endswith("pvi-lint: 1 module(s), 0 error(s), "
                            "1 warning(s), 1 note(s)\n")
        assert main(["--strict", str(path)]) == 1

    def test_cli_pc_outside_the_code_has_no_context(self):
        from repro.analysis.cli import _pc_context
        func = offline_compile(SAXPY.source).bytecode.functions["saxpy"]
        assert _pc_context(func, len(func.code)) == []
        assert _pc_context(func, 0)[0].startswith("    >>")

    def test_cli_workloads_as_json(self, capsys):
        """Every bundled kernel, as one JSON array: no errors."""
        import json
        from repro.analysis.cli import main
        assert main(["--workloads", "--json"]) == 0
        findings = json.loads(capsys.readouterr().out)
        assert all(f["severity"] != "error" for f in findings)

    def test_cli_without_sources_is_a_usage_error(self, capsys):
        from repro.analysis.cli import main
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        assert "no sources given" in capsys.readouterr().err


class TestRangeEdges:
    """The range lint's less common inputs: no code, a sum that may
    wrap, calls and discarded results, and branches whose condition
    it can decide."""

    def test_no_code_has_no_reachable_block(self):
        cfg = BlockCFG([])
        assert cfg.reachable() == frozenset()
        assert solve_forward(cfg, None, lambda *a: None,
                             lambda *a: None) == {}

    def test_ranges_and_findings_of_the_corpus_are_pinned(self):
        """``int_value_ranges`` and ``range_findings`` of every bytecode
        function (both flavours) of the workload kernels and
        ``examples/*.pvi``, byte for byte: intervals as ``repr`` of
        their two bounds, so the digest holds whatever type carries
        them."""
        sources = {name: kernel.source
                   for name, kernel in sorted(ALL_KERNELS.items())}
        examples = pathlib.Path(__file__).parent.parent / "examples"
        for path in sorted(examples.glob("*.pvi")):
            sources[path.stem] = path.read_text()
        lines = []
        for name, source in sources.items():
            artifact = offline_compile(source, name)
            for module in (artifact.scalar_bytecode, artifact.bytecode):
                for func in module.functions.values():
                    cfg = BlockCFG(func.code)
                    ranges = int_value_ranges(func, cfg)
                    lines.append(f"{name} {func.name}")
                    for leader in sorted(ranges):
                        lines.append(f"  {leader}: " + ", ".join(
                            f"{index}=[{rng[0]!r}, {rng[1]!r}]"
                            for index, rng in sorted(ranges[leader].items())))
                    lines += [f"  {finding!r}" for finding
                              in range_findings(func, cfg, ranges)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == PINNED_RANGES

    def test_calls_and_discarded_results(self):
        """The range walk stops at a call (its effects are unknown) and
        pops a result nobody reads; the module lints clean."""
        from repro.bytecode.module import BytecodeFunction, BytecodeModule
        module = BytecodeModule("m")
        module.add(BytecodeFunction("g", [], "i32", [], code=[
            BCInstr("const", "i32", 1), BCInstr("ret")]))
        module.add(BytecodeFunction("f", [], "i32", ["i32"], code=[
            BCInstr("call", None, "g"), BCInstr("pop"),
            BCInstr("const", "i32", 2), BCInstr("stloc", None, 0),
            BCInstr("ldloc", None, 0), BCInstr("ret")]))
        assert [f for f in lint_bytecode_module(module)
                if f.severity != "info"] == []

    def test_decided_branches_are_noted(self):
        from repro.bytecode.module import BytecodeFunction, BytecodeModule
        module = BytecodeModule("m")
        module.add(BytecodeFunction("f", [], "i32", [], code=[
            BCInstr("const", "i32", 0), BCInstr("brif", None, 4),
            BCInstr("const", "i32", 7), BCInstr("brif", None, 4),
            BCInstr("const", "i32", 1), BCInstr("ret")]))
        kinds = {f.code: f.pc for f in lint_bytecode_module(module)}
        assert kinds.get("branch-never") == 1
        assert kinds.get("branch-always") == 3


# ---------------------------------------------------------------------------
# the interval algebra both planes share
# ---------------------------------------------------------------------------

def _unwrapped(op, x, y, int_ty):
    """``x op y`` as the kernel computes it before its wrap; a bound
    may be ``±inf`` (a shift is then a product)."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "shl":
        return x * (1 << (y & (int_ty.bits - 1)))
    return min(x, y) if op == "min" else max(x, y)


def _bound(int_ty):
    """A bound near zero, near either end of ``int_ty``, or infinite."""
    lo, hi = ty.int_min(int_ty), ty.int_max(int_ty)
    return st.one_of(st.integers(-300, 300), st.integers(lo - 3, lo + 3),
                     st.integers(hi - 3, hi + 3),
                     st.integers(-(1 << 70), 1 << 70),
                     st.sampled_from((-INF, INF)))


def _member(bounds, permille):
    """An int of ``bounds``, ``permille`` / 1000 of the way up (an
    infinite side: within 2**80 of the other, or of 0)."""
    lo, hi = bounds
    if lo == -INF:
        lo = (0 if hi == INF else hi) - (1 << 80)
    if hi == INF:
        hi = lo + (1 << 80)
    return lo + (hi - lo) * permille // 1000


@st.composite
def _transfer_case(draw):
    int_ty = draw(st.sampled_from(ty.INT_TYPES))
    op = draw(st.sampled_from(sorted(TRANSFERS)))
    a = sorted(draw(st.lists(_bound(int_ty), min_size=2, max_size=2)))
    if op == "shl":             # a constant count, now and then not
        count = draw(st.integers(-70, 70))
        b = [count, count + draw(st.sampled_from((0, 0, 0, 1)))]
    else:
        b = sorted(draw(st.lists(_bound(int_ty), min_size=2, max_size=2)))
    picks = draw(st.lists(st.tuples(st.integers(0, 1000),
                                    st.integers(0, 1000)), max_size=6))
    return op, int_ty, tuple(a), tuple(b), picks


class TestIntervals:
    """:mod:`repro.analysis.intervals`, which the range lint and
    tier-2's counted loops both call."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_transfer_case())
    # the lint's wrap, an op and a varying count it does not follow,
    # and NaN corners
    @example(("add", ty.I32, (2**31 - 5, 2**31 - 1), (2**31 - 5, 2**31 - 1),
              [(0, 1000)]))
    @example(("div", ty.I32, (1, 4), (1, 2), [(500, 500)]))
    @example(("add", ty.I32, (-INF, 0), (INF, INF), []))
    @example(("shl", ty.I32, (1, 4), (2, 3), []))
    def test_transfer_is_sound_and_tight(self, case):
        """Every concrete unwrapped ``x op y`` of members lies inside
        the result, which is exactly the corners' hull; the result is
        ``None`` exactly when a corner leaves the type (or is NaN), or
        when the algebra does not follow the op: one it lacks, or a
        shift by a count that varies."""
        op, int_ty, a, b, picks = case
        got = exact_binop(op, int_ty, Interval(*a), Interval(*b))
        if op not in TRANSFERS or op == "shl" and b[0] != b[1]:
            assert got is None
            return
        corners = [_unwrapped(op, x, y, int_ty) for x in a for y in b]
        leaves = not all(ty.int_min(int_ty) <= c <= ty.int_max(int_ty)
                         for c in corners)
        assert (got is None) == leaves, (corners, got)
        if got is None:
            return
        assert (got.lo, got.hi) == (min(corners), max(corners))
        for fa, fb in picks:
            x, y = _member(a, fa), _member(b, fb)
            assert got.lo <= _unwrapped(op, x, y, int_ty) <= got.hi

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(sorted(TRANSFERS)),
           st.tuples(st.integers(-9, 9), st.integers(-99, 99),
                     st.integers(-3, 3), st.integers(-3, 3)),
           st.tuples(st.integers(-9, 9), st.integers(-99, 99),
                     st.integers(-3, 3), st.integers(-3, 3)),
           st.tuples(st.integers(-50, 50), st.integers(-50, 50),
                     st.integers(-50, 50)))
    def test_affine_form_evaluates_to_the_value(self, op, x, y, values):
        """Where the result has an affine form, its text evaluated on
        a trip is ``x op y`` of the operands' values on that trip (a
        shift's count and a product's factor are constants)."""
        forms, operands = [], []
        for scale, offset, p, q in (x, y):
            if op == "shl" and forms or op == "mul" and forms \
                    and (forms[0].scale or forms[0].terms):
                forms.append(Affine(0, offset))     # a constant operand
                operands.append(Interval(offset, offset))
                continue
            forms.append(Affine(scale, offset, tuple(
                (name, k) for name, k in (("p", p), ("q", q)) if k)))
            operands.append(Interval(-(1 << 40), 1 << 40, aff=forms[-1]))
        env = dict(zip(("iv", "p", "q"), values))
        a, b = (eval(form.at("iv"), env) for form in forms)
        got = binop(op, ty.I64, *operands)
        assert got is not None
        if got.aff is not None:
            assert eval(got.aff.at("(iv)"), env) == \
                _unwrapped(op, a, b, ty.I64)
