"""The flow registry: custom flows end-to-end, instrumentation, errors.

Covers the acceptance criteria of the flow-registry refactor: a flow
added with one ``register_flow(...)`` call — no edits to ``core/``,
``jit/`` or ``service/`` — immediately appears in ``compare_flows``,
the iterative search space and the service cache stats; per-pass
instrumentation sums to the artifact's ``offline_work``; flows pickle
(groundwork for a process-pool deployment backend); and every entry
point raises the one ``UnknownFlowError`` listing what is registered.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import compare_flows, deploy, offline_compile
from repro.core.online import select_bytecode
from repro.flows import (
    Flow, PipelineSpec, UnknownFlowError, as_flow, flow_names,
    get_flow, register_flow, registered_flows, unregister_flow,
)
from repro.iterative.search import label_of, search_space
from repro.jit import JITOptions
from repro.service import (
    CompilationService, CompileRequest, artifact_key,
    deserialize_artifact, serialize_artifact,
)
from repro.service.cache import SCHEMA_VERSION
from repro.targets import X86
from repro.targets.catalog import TARGETS
from repro.workloads import TABLE1

SUM_U8 = TABLE1["sum_u8"].source

#: a user-defined flow: lean offline pipeline, unrolled, vector flavour
CUSTOM_PIPELINE = PipelineSpec(
    passes=("constfold", "copyprop", "cse", "dce", "simplify-cfg"),
    unroll=2, vectorize=True)


@pytest.fixture
def custom_flow():
    flow = register_flow(Flow(
        "test-custom", pipeline=CUSTOM_PIPELINE,
        jit=JITOptions(use_annotations=True),
        bytecode="vector",
        description="registered by the test suite"))
    yield flow
    unregister_flow("test-custom")


@pytest.fixture
def service():
    svc = CompilationService(cache_capacity=8)
    yield svc
    svc.shutdown()


# ---------------------------------------------------------------------------
# registry mechanics
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_paper_flows_registered(self):
        names = flow_names()
        assert names[:3] == ("offline-only", "online-only", "split")
        assert "split-O3" in names and "adaptive" in names

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_flow(Flow("split"))

    def test_replace_allows_redefinition(self, custom_flow):
        redefined = register_flow(
            Flow("test-custom", bytecode="scalar"), replace=True)
        assert get_flow("test-custom") is redefined
        assert redefined.cache_key() != custom_flow.cache_key()

    def test_bad_flavour_rejected(self):
        with pytest.raises(ValueError, match="flavour"):
            register_flow(Flow("bad", bytecode="quantum"))

    def test_bad_pass_name_rejected(self):
        with pytest.raises(KeyError, match="unknown pass"):
            register_flow(Flow(
                "bad", pipeline=PipelineSpec(passes=("frobnicate",))))

    def test_as_flow_accepts_objects_and_names(self, custom_flow):
        assert as_flow(custom_flow) is custom_flow
        assert as_flow("test-custom") is custom_flow


# ---------------------------------------------------------------------------
# one error type from every entry point
# ---------------------------------------------------------------------------

class TestUnknownFlow:
    def test_jit_options_entry_point(self):
        with pytest.raises(UnknownFlowError) as err:
            JITOptions.flow("warp-speed")
        assert "registered flows" in str(err.value)
        assert "split" in str(err.value)

    def test_select_bytecode_entry_point(self):
        artifact = offline_compile(SUM_U8)
        with pytest.raises(UnknownFlowError):
            select_bytecode(artifact, "warp-speed")

    def test_deploy_entry_point(self):
        artifact = offline_compile(SUM_U8)
        with pytest.raises(UnknownFlowError):
            deploy(artifact, X86, "warp-speed")

    def test_service_entry_points(self, service):
        artifact = service.artifact(SUM_U8)
        with pytest.raises(UnknownFlowError):
            service.deploy_many(artifact, [X86], "warp-speed")
        with pytest.raises(UnknownFlowError):
            service.submit(CompileRequest(
                source=SUM_U8, targets=[X86], flow="warp-speed"))

    def test_is_a_value_error(self):
        # legacy callers catch ValueError; the unified type must fit
        assert issubclass(UnknownFlowError, ValueError)


# ---------------------------------------------------------------------------
# a custom flow, end to end
# ---------------------------------------------------------------------------

class TestCustomFlowEndToEnd:
    def test_appears_in_compare_flows(self, custom_flow):
        kernel = TABLE1["sum_u8"]
        artifact = offline_compile(kernel.source)

        def make_args(memory):
            return kernel.prepare(memory, 48, seed=3).args

        reports = compare_flows(artifact, X86, kernel.entry, make_args)
        by_flow = {r.flow: r for r in reports}
        assert "test-custom" in by_flow
        custom = by_flow["test-custom"]
        # correct result, same as every other flow
        assert len({repr(r.value) for r in reports}) == 1
        # the flow's own pipeline ran (and was charged offline)
        assert custom.offline_work > 0
        assert "unroll" in custom.offline_pass_work
        assert "licm" not in custom.offline_pass_work

    def test_appears_in_search_space(self, custom_flow):
        labels = {label_of(c) for c in search_space()}
        assert "flow:test-custom" in labels

    def test_builtin_flows_do_not_duplicate_cube_points(self):
        # every built-in flow compiles identically to a knob-cube
        # point, so the space must stay exactly the 128-point cube
        from repro.iterative.search import all_configurations
        assert len(search_space()) == len(all_configurations())

    def test_service_caches_per_flow(self, custom_flow, service):
        request_split = CompileRequest(source=SUM_U8, name="k",
                                       targets=[X86], flow="split")
        request_custom = CompileRequest(source=SUM_U8, name="k",
                                        targets=[X86],
                                        flow="test-custom")
        split_result = service.submit(request_split)
        custom_result = service.submit(request_custom)
        # distinct pipeline => distinct artifact cache entries
        assert split_result.artifact_key != custom_result.artifact_key
        assert not custom_result.artifact_cache_hit
        # repeated custom request is fully served from the caches
        again = service.submit(request_custom)
        assert again.artifact_cache_hit and again.fully_cached
        # and the flow shows up in the service stats by name
        by_flow = service.stats().deploy_by_flow
        assert by_flow["test-custom"]["compiles"] == 1
        assert by_flow["test-custom"]["memo_hits"] == 1

    def test_dict_pipeline_keeps_default_passes(self):
        # a partial dict must default like PipelineSpec, not to ()
        artifact = offline_compile(SUM_U8, pipeline={"unroll": 2})
        assert artifact.pipeline.passes == PipelineSpec().passes
        assert artifact.pipeline.unroll == 2

    def test_dict_pipeline_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            offline_compile(SUM_U8, pipeline={"vectorise": False})

    def test_per_flow_recompile_keeps_hotness(self):
        kernel = TABLE1["sum_u8"]
        artifact = offline_compile(kernel.source,
                                   hotness={kernel.entry: 7})

        def make_args(memory):
            return kernel.prepare(memory, 48, seed=3).args

        reports = compare_flows(artifact, X86, kernel.entry, make_args,
                                flows=("split-O3",))
        assert reports[0].flow == "split-O3"
        # the recompiled split-O3 artifact kept the profile
        from repro.core.budget import artifact_for_flow
        recompiled = artifact_for_flow(artifact, get_flow("split-O3"))
        assert recompiled is not artifact
        assert recompiled.hotness == {kernel.entry: 7}

    def test_artifact_key_covers_pipeline(self):
        assert artifact_key(SUM_U8) != artifact_key(
            SUM_U8, options={"pipeline": CUSTOM_PIPELINE})
        # dict and spec forms of the same pipeline hash identically
        assert artifact_key(
            SUM_U8, options={"pipeline": CUSTOM_PIPELINE}) == \
            artifact_key(
                SUM_U8, options={"pipeline": CUSTOM_PIPELINE.to_dict()})


# ---------------------------------------------------------------------------
# per-pass instrumentation
# ---------------------------------------------------------------------------

class TestPassInstrumentation:
    def test_stats_sum_to_offline_work(self):
        artifact = offline_compile(SUM_U8)
        stats = artifact.pass_stats
        assert stats.total_work == artifact.offline_work \
            == sum(record.work for record in stats.records)
        # every pass is held once (the pipeline runs once; the two
        # flavours fork at the vectorizer), the vectorize stage too
        assert "vectorize" in stats.work_by_pass
        assert not any(name.startswith("scalar:")
                       for name in stats.work_by_pass)

    def test_records_carry_ir_deltas(self):
        artifact = offline_compile(SUM_U8)
        records = artifact.pass_stats.records
        assert records, "instrumentation must record invocations"
        # dce/simplify-cfg shrink the IR somewhere in the pipeline
        assert any(r.ir_delta < 0 for r in records)
        assert any(r.changed for r in records)
        report = artifact.pass_report()
        assert "vectorize" in report

    def test_stats_survive_persistence(self):
        entry = TABLE1["sum_u8"].entry
        artifact = offline_compile(SUM_U8, "k", hotness={entry: 5})
        revived = deserialize_artifact(serialize_artifact(artifact))
        assert revived.offline_work == artifact.offline_work
        assert revived.pass_stats.total_work == revived.offline_work
        assert revived.pass_stats.summary_dict() == \
            artifact.pass_stats.summary_dict()
        assert revived.source == artifact.source
        assert revived.pipeline == artifact.pipeline
        assert revived.hotness == artifact.hotness

    def test_summary_of_an_older_writer_revives_unchanged(self):
        """An artifact persisted before ISSUE 23 holds ``scalar:`` rows
        and an ``offline_work`` that counts them: no reader names a
        row, so both come back as written."""
        from repro.opt import PassStats
        row = {"work": 25, "time": 0.001, "runs": 1, "changed": 0,
               "ir_delta": 0}
        written = {"scalar:constfold": dict(row),
                   "scalar:dce": dict(row, work=32, changed=1, ir_delta=-7),
                   "constfold": dict(row),
                   "dce": dict(row, work=32, changed=1, ir_delta=-7),
                   "vectorize": dict(row, work=24, changed=1, ir_delta=14)}
        artifact = offline_compile(SUM_U8, "k")
        artifact.pass_stats = PassStats.from_summary(written)
        artifact.offline_work = 138
        revived = deserialize_artifact(serialize_artifact(artifact))
        assert revived.pass_stats.summary_dict() == written
        assert revived.offline_work == 138 \
            == revived.pass_stats.total_work

    def test_merge_preserves_restored_summaries(self):
        from repro.opt import PassStats
        artifact = offline_compile(SUM_U8, "k")
        revived = deserialize_artifact(serialize_artifact(artifact))
        merged = PassStats().merge(revived.pass_stats)
        assert merged.summary_dict() == \
            artifact.pass_stats.summary_dict()
        # summaries() must not mutate the restored aggregates
        assert merged.summary_dict() == merged.summary_dict()

    def test_flow_reports_pass_work(self, service):
        kernel = TABLE1["sum_u8"]
        artifact = service.artifact(kernel.source)

        def make_args(memory):
            return kernel.prepare(memory, 48, seed=3).args

        reports = compare_flows(artifact, X86, kernel.entry, make_args,
                                service=service)
        for report in reports:
            if report.offline_work:
                assert sum(report.offline_pass_work.values()) == \
                    report.offline_work
        by_flow = {r.flow: r for r in reports}
        # online-only re-derives: its online pass work is non-empty
        assert sum(by_flow["online-only"].online_pass_work.values()) == \
            by_flow["online-only"].online_analysis_work
        assert by_flow["split"].online_pass_work == {}

    def test_deploy_result_reports_pass_work(self, service):
        result = service.submit(CompileRequest(
            source=SUM_U8, name="k", targets=[X86], flow="split"))
        assert result.flow == "split"
        assert sum(result.offline_pass_work.values()) > 0


# ---------------------------------------------------------------------------
# the adaptive flow's hotness gate
# ---------------------------------------------------------------------------

class TestAdaptiveFlow:
    def deploy_with_hotness(self, weight):
        entry = TABLE1["sum_u8"].entry
        artifact = offline_compile(SUM_U8, hotness={entry: weight})
        return deploy(artifact, X86, "adaptive")

    def test_cold_function_skips_online_analysis(self):
        compiled = self.deploy_with_hotness(0)
        assert compiled.total_jit_analysis_work == 0

    def test_hot_function_gets_online_vectorization(self):
        compiled = self.deploy_with_hotness(10)
        assert compiled.total_jit_analysis_work > 0
        assert "vectorize" in compiled.total_jit_pass_work

    def test_unprofiled_counts_as_hot(self):
        artifact = offline_compile(SUM_U8)
        compiled = deploy(artifact, X86, "adaptive")
        assert compiled.total_jit_analysis_work > 0


# ---------------------------------------------------------------------------
# pickling (process-pool groundwork)
# ---------------------------------------------------------------------------

class TestPickling:
    def test_every_registered_flow_pickles(self):
        for flow in registered_flows():
            revived = pickle.loads(pickle.dumps(flow))
            assert revived == flow
            assert revived.cache_key() == flow.cache_key()

    def test_custom_flow_pickles(self, custom_flow):
        revived = pickle.loads(pickle.dumps(custom_flow))
        assert revived == custom_flow
        assert revived.pipeline.passes == CUSTOM_PIPELINE.passes


# ---------------------------------------------------------------------------
# schema versioning of persisted artifacts
# ---------------------------------------------------------------------------

class TestSchemaVersion:
    def test_key_embeds_schema_version(self):
        # indirect but robust: the key payload hashes SCHEMA_VERSION,
        # so the constant participates in every address
        assert SCHEMA_VERSION.startswith("pva")

    def test_stale_schema_rejected_on_decode(self):
        artifact = offline_compile(SUM_U8, "k")
        raw = serialize_artifact(artifact)
        stale = raw.replace(SCHEMA_VERSION.encode("utf-8"),
                            b"x" * len(SCHEMA_VERSION), 1)
        assert stale != raw
        with pytest.raises(ValueError, match="schema"):
            deserialize_artifact(stale)

    def test_stale_disk_entry_self_invalidates(self, tmp_path):
        svc = CompilationService(cache_capacity=2, persist_dir=tmp_path)
        try:
            svc.compile(SUM_U8, "k")
            entry = next(tmp_path.rglob("*.pvia"))
            raw = entry.read_bytes()
            entry.write_bytes(raw.replace(
                SCHEMA_VERSION.encode("utf-8"),
                b"x" * len(SCHEMA_VERSION), 1))
            svc.cache.clear()
            outcome = svc.compile(SUM_U8, "k")    # must recompile
            assert not outcome.cache_hit
            assert svc.cache.stats.corrupt_entries == 1
        finally:
            svc.shutdown()
