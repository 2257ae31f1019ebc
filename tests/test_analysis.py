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

import pickle

import pytest

from repro.analysis import (
    AdmissionError, BlockCFG, FactsTable, bytecode_facts, check_admission,
    lint_bytecode_module, machine_facts, module_facts, solve_backward,
    solve_forward,
)
from repro.analysis.passes import lane_fixpoint
from repro.bytecode.annotations import LaneFactsAnnotation
from repro.bytecode.opcodes import BCInstr
from repro.core import deploy, offline_compile
from repro.engine import OSR_GUARDS_ENV
from repro.semantics import Memory
from repro.service import CompilationService
from repro.targets import Simulator, X86
from repro.targets import dispatch
from repro.vm import VM
from repro.vm import threaded
from repro.workloads import ALL_KERNELS

N = 64
SAXPY = ALL_KERNELS["saxpy_fp"]


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

    def test_a_sum_that_may_wrap_or_a_quotient_is_the_whole_type(self):
        from repro.analysis.passes import _interval_binop
        big = (2**31 - 5, 2**31 - 1)
        inf = float("inf")
        assert _interval_binop("add", "i32", big, big) == \
            _interval_binop("div", "i32", (1, 4), (1, 2)) == \
            _interval_binop("add", "i32", (-inf, 0), (inf, inf)) == \
            (-2**31, 2**31 - 1)

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
