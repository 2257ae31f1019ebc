"""Workload corpus sanity and experiment-harness tests."""

import pytest

from repro.bench import format_table
from repro.bench.experiments import run_table1
from repro.bench.paperdata import PAPER_TABLE1_RELATIVE
from repro.core import PipelineSpec, offline_compile
from repro.semantics import Memory
from repro.vm import VM
from repro.workloads import (
    ALL_KERNELS, EXTRA_KERNELS, REGALLOC_CORPUS, TABLE1, kernel_by_name,
)


class TestCorpus:
    def test_table1_has_the_papers_six_kernels(self):
        assert set(TABLE1) == {"vecadd_fp", "saxpy_fp", "dscal_fp",
                               "max_u8", "sum_u8", "sum_u16"}

    def test_paper_data_covers_all_cells(self):
        for kernel in TABLE1:
            for target in ("x86", "sparc", "ppc"):
                assert (kernel, target) in PAPER_TABLE1_RELATIVE

    def test_lookup_helper(self):
        assert kernel_by_name("sdot").entry == "sdot"
        with pytest.raises(KeyError):
            kernel_by_name("nope")

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_every_kernel_compiles_and_runs(self, name):
        kernel = ALL_KERNELS[name]
        artifact = offline_compile(kernel.source)
        memory = Memory()
        run = kernel.prepare(memory, 24, seed=1)
        VM(artifact.bytecode, memory=memory).call(kernel.entry, run.args)

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_vectorizable_flag_accurate(self, name):
        kernel = ALL_KERNELS[name]
        artifact = offline_compile(kernel.source)
        vectorized = kernel.entry in artifact.vectorized_functions
        assert vectorized == kernel.vectorizable, \
            f"{name}: flag says {kernel.vectorizable}, got {vectorized}"

    def test_inputs_deterministic_per_seed(self):
        kernel = TABLE1["sum_u8"]
        m1, m2 = Memory(), Memory()
        r1 = kernel.prepare(m1, 32, seed=9)
        r2 = kernel.prepare(m2, 32, seed=9)
        from repro.lang import types as ty
        assert m1.read_array(ty.U8, r1.args[0], 32) == \
            m2.read_array(ty.U8, r2.args[0], 32)

    @pytest.mark.parametrize("name", sorted(REGALLOC_CORPUS))
    def test_regalloc_corpus_compiles(self, name):
        artifact = offline_compile(REGALLOC_CORPUS[name],
                                   pipeline=PipelineSpec(vectorize=False))
        assert name in artifact.bytecode.functions


class TestHarness:
    def test_format_table_alignment(self):
        text = format_table(["a", "long header"],
                            [(1, 2.5), ("xyz", 3)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_run_table1_subset(self):
        from repro.targets import X86
        rows = run_table1(n=64, targets=(X86,), kernels=["sum_u8"])
        assert len(rows) == 1
        assert rows[0].relative > 1.0
        assert rows[0].paper_relative == 5.3


class TestExperimentDrivers:
    """Each experiment driver the ``benchmarks/`` suite runs at full
    size, run here at the smallest size that still exercises all of
    it, with the paper's claim it reports held where it holds at that
    size."""

    def test_split_flow_runs_every_flow_to_one_value(self):
        from repro.bench.experiments import run_split_flow
        from repro.flows import flow_names
        reports = run_split_flow("sum_u8", "x86", n=16)
        assert [r.flow for r in reports] == list(flow_names())
        assert len({r.value for r in reports}) == 1
        assert all(r.cycles > 0 and r.code_bytes > 0 for r in reports)

    def test_jit_budget_split_is_cheaper_online_than_online_only(self):
        from repro.bench.experiments import run_jit_budget
        rows = {row[0]: row for row in run_jit_budget(n=16)}
        assert set(rows) == {"split", "offline-only", "online-only"}
        assert rows["split"][1] < rows["online-only"][1]
        assert rows["split"][2] == 0 < rows["online-only"][2]
        assert rows["split"][3] < rows["offline-only"][3]

    def test_split_regalloc_rows_per_function_and_k(self):
        from repro.bench.experiments import run_split_regalloc
        rows = run_split_regalloc(k_values=(6, 16), n=8)
        assert [(r.function, r.k) for r in rows] == [
            (name, k) for name in REGALLOC_CORPUS for k in (6, 16)]
        for row in rows:
            assert row.saving_vs_local <= 1 and row.saving_vs_linear <= 1
            assert row.annotated_static >= 0

    def test_code_size_covers_every_kernel(self):
        from repro.bench.experiments import run_code_size
        rows = run_code_size(targets=("x86",))
        assert [r.kernel for r in rows] == list(ALL_KERNELS)
        assert all(r.pvi_bytes > 0 and r.native["x86"] > 0 for r in rows)

    def test_iterative_never_loses_to_the_default(self):
        from repro.bench.experiments import run_iterative
        [row] = run_iterative(["sum_u8"], budget=2, n=16)
        assert row.best_cycles <= row.default_cycles
        assert row.speedup >= 1.0 and row.evaluations >= 1

    def test_kpn_mapping_never_loses_to_host_only(self):
        from repro.bench.experiments import default_kpn_platforms, run_kpn
        rows = run_kpn(blocks=4)
        assert [r.platform for r in rows] == \
            [p.name for p in default_kpn_platforms()]
        assert all(r.speedup >= 1.0 for r in rows)
        assert "dsp" in rows[1].assignment.values()
