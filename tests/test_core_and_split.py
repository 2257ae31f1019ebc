"""Tests for the core (offline/online/budget) and split packages."""

import pytest

from repro.bytecode.annotations import (
    HotnessAnnotation, HWRequirementAnnotation, LaneFactsAnnotation,
    RegAllocAnnotation,
)
from repro.core import (
    PipelineSpec, compare_flows, deploy, offline_compile, select_bytecode,
)
from repro.lang import types as ty
from repro.semantics import Memory
from repro.split import compute_spill_priorities
from repro.split.regalloc_offline import optimal_spill_set
from repro.targets import SPARC, X86
from repro.workloads import TABLE1
from tests.support import lower_checked

SUM_U8 = TABLE1["sum_u8"].source


class TestOfflineCompile:
    def test_produces_both_bytecode_flavours(self):
        artifact = offline_compile(SUM_U8)
        assert artifact.bytecode.functions
        assert artifact.scalar_bytecode.functions
        scalar_ops = {i.op for f in artifact.scalar_bytecode
                      for i in f.code}
        vector_ops = {i.op for f in artifact.bytecode for i in f.code}
        assert not any(op.startswith("vec.") for op in scalar_ops)
        assert any(op.startswith("vec.") for op in vector_ops)

    def test_annotations_attached(self):
        artifact = offline_compile(SUM_U8)
        kinds = {type(a) for a in artifact.bytecode.annotations}
        assert LaneFactsAnnotation in kinds
        assert RegAllocAnnotation in kinds
        assert HWRequirementAnnotation in kinds

    def test_hw_annotation_reflects_code(self):
        artifact = offline_compile("""
            double heavy(double *x, int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) s += x[i];
                return s;
            }""")
        ann = artifact.bytecode.annotations_for(
            "heavy", HWRequirementAnnotation)[0]
        assert ann.wants_fp and ann.wants_fp64

    def test_hotness_passthrough(self):
        artifact = offline_compile(SUM_U8, hotness={"sum_u8": 777})
        ann = artifact.bytecode.annotations_for("sum_u8",
                                                HotnessAnnotation)[0]
        assert ann.weight == 777

    def test_offline_work_accounted(self):
        artifact = offline_compile(SUM_U8)
        assert artifact.offline_work > 0
        assert artifact.offline_time > 0

    def test_scalar_flavour_carries_no_annotations(self):
        artifact = offline_compile(SUM_U8)
        assert artifact.scalar_bytecode.annotations == []

    def test_vectorization_can_be_disabled(self):
        artifact = offline_compile(SUM_U8,
                                   pipeline=PipelineSpec(vectorize=False))
        assert artifact.vectorized_functions == []

    def test_select_bytecode_per_flow(self):
        artifact = offline_compile(SUM_U8)
        assert select_bytecode(artifact, "split") is artifact.bytecode
        assert select_bytecode(artifact, "offline-only") is \
            artifact.scalar_bytecode
        assert select_bytecode(artifact, "online-only") is \
            artifact.scalar_bytecode
        with pytest.raises(ValueError):
            select_bytecode(artifact, "quantum")


class TestCompareFlows:
    def test_reports_all_flows(self):
        kernel = TABLE1["sum_u8"]
        artifact = offline_compile(kernel.source)

        def make_args(memory):
            return kernel.prepare(memory, 64, seed=2).args

        reports = compare_flows(artifact, X86, kernel.entry, make_args)
        # default = every registered flow, paper trio first
        names = [r.flow for r in reports]
        assert names[:3] == ["offline-only", "online-only", "split"]
        assert "split-O3" in names and "adaptive" in names
        assert len({repr(r.value) for r in reports}) == 1
        by_flow = {r.flow: r for r in reports}
        split = by_flow["split"]
        assert split.offline_work > 0
        assert split.online_analysis_work == 0
        assert sum(split.offline_pass_work.values()) == \
            split.offline_work

    def test_explicit_subset_respected(self):
        kernel = TABLE1["sum_u8"]
        artifact = offline_compile(kernel.source)

        def make_args(memory):
            return kernel.prepare(memory, 64, seed=2).args

        reports = compare_flows(artifact, X86, kernel.entry, make_args,
                                flows=("split", "offline-only"))
        assert [r.flow for r in reports] == ["split", "offline-only"]


class TestSpillPriorities:
    def test_loop_values_outrank_cold_values(self):
        module = lower_checked("""
            int f(int *a, int n) {
                int cold = a[0] + 7;
                int hot = 0;
                for (int i = 0; i < n; i++) hot += a[i];
                return hot + cold;
            }""")
        func = module["f"]
        weights = compute_spill_priorities(func)
        named = {}
        for block in func.blocks:
            for instr in block.instrs:
                for reg in instr.defs():
                    if reg.name in ("hot", "cold"):
                        named[reg.name] = weights[reg.id]
        assert named["hot"] > named["cold"]

    def test_nesting_increases_weight(self):
        module = lower_checked("""
            int f(int n) {
                int once = n * 3;
                int inner = 0;
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++)
                        inner += i ^ j;
                return inner + once;
            }""")
        func = module["f"]
        weights = compute_spill_priorities(func)
        named = {}
        for block in func.blocks:
            for instr in block.instrs:
                for reg in instr.defs():
                    if reg.name in ("inner", "once"):
                        named.setdefault(reg.name, weights[reg.id])
        assert named["inner"] > 50 * named["once"] / 10

    def test_milp_reference_solves_small_instance(self):
        module = lower_checked("""
            int f(int a, int b, int c, int d) {
                int x = a + b;
                int y = c + d;
                int z = x * y;
                return z + x + y;
            }""")
        func = module["f"]
        spilled = optimal_spill_set(func, k=2)
        assert spilled is not None
        # With K=2 some values must go to memory, but not everything.
        from repro.ir.liveness import live_ranges
        assert 0 < len(spilled) < len(live_ranges(func))

    def test_milp_no_spills_with_enough_registers(self):
        module = lower_checked("int f(int a, int b) { return a + b; }")
        spilled = optimal_spill_set(module["f"], k=16)
        assert spilled == []


class TestAnnotationRobustness:
    """Annotations are advisory: corrupt ones must not break anything."""

    def test_stale_regalloc_annotation_ignored(self):
        artifact = offline_compile(SUM_U8)
        for ann in artifact.bytecode.annotations:
            if isinstance(ann, RegAllocAnnotation):
                ann.priorities = [1, 2, 3]        # wrong length
        compiled = deploy(artifact, X86, "split")
        memory = Memory()
        kernel = TABLE1["sum_u8"]
        run = kernel.prepare(memory, 50, seed=1)
        from repro.targets import Simulator
        result = Simulator(compiled, memory).run(kernel.entry, run.args)
        vm_memory = Memory()
        from repro.vm import VM
        run2 = kernel.prepare(vm_memory, 50, seed=1)
        assert result.value == VM(artifact.bytecode,
                                  memory=vm_memory).call(kernel.entry,
                                                         run2.args)

    def test_hostile_priorities_cannot_change_results(self):
        artifact = offline_compile(SUM_U8)
        for ann in artifact.bytecode.annotations:
            if isinstance(ann, RegAllocAnnotation):
                # Exactly wrong: invert every rank.
                top = max(ann.priorities) + 1
                ann.priorities = [top - p for p in ann.priorities]
        compiled = deploy(artifact, SPARC, "split")
        memory = Memory()
        kernel = TABLE1["sum_u8"]
        run = kernel.prepare(memory, 64, seed=9)
        from repro.targets import Simulator
        result = Simulator(compiled, memory).run(kernel.entry, run.args)
        expected = sum(memory.read_array(ty.U8, run.args[0], 64))
        assert result.value == expected


class TestMilpEdges:
    def test_nothing_live_nothing_to_spill(self):
        module = lower_checked("void f(void) { }")
        assert optimal_spill_set(module["f"], k=1) == []

    def test_a_failed_solve_answers_none(self, monkeypatch):
        import scipy.optimize

        class Failed:
            success = False

        monkeypatch.setattr(scipy.optimize, "milp",
                            lambda **kwargs: Failed())
        module = lower_checked("""
            int f(int a, int b, int c) {
                int x = a + b; int y = b + c; return x * y + a;
            }""")
        assert optimal_spill_set(module["f"], k=1) is None
