#!/usr/bin/env python
"""Registering your own deployment flow — one call, zero plumbing.

A flow is *data*: which passes run offline (and in what order), what
the JIT does online, and which bytecode flavour ships to the device.
``register_flow(...)`` is the only integration point — the new flow
immediately works in ``compare_flows``, deploys through the
compilation service under its own cache key, joins the iterative
search space, and reports per-pass instrumentation like the built-in
flows.

Run:  python examples/custom_flow.py
"""

from repro.bench import format_table
from repro.core import compare_flows, offline_compile
from repro.flows import (
    Flow, PipelineSpec, flow_names, register_flow, unregister_flow,
)
from repro.jit import JITOptions
from repro.service import CompilationService, CompileRequest
from repro.targets import X86
from repro.targets.catalog import TARGETS
from repro.workloads import TABLE1


def register_lean_flow():
    """A deliberately lean flow: cleanup passes only (no LICM, no
    if-conversion), a 2x unroll, vectorization on — the sort of point
    an embedded vendor might pick to trade offline compile time for
    code quality."""
    return register_flow(Flow(
        "lean-unroll",
        pipeline=PipelineSpec(
            passes=("constfold", "copyprop", "cse", "dce",
                    "simplify-cfg"),
            unroll=2, vectorize=True),
        jit=JITOptions(use_annotations=True),
        bytecode="vector",
        description="cleanup-only offline pipeline with 2x unrolling"))


def comparison_demo():
    kernel = TABLE1["sum_u8"]
    artifact = offline_compile(kernel.source)

    def make_args(memory):
        return kernel.prepare(memory, 256, seed=11).args

    print(f"registered flows: {', '.join(flow_names())}\n")
    reports = compare_flows(artifact, X86, kernel.entry, make_args)
    print(format_table(
        ["flow", "offline work", "online work", "online analysis",
         "cycles"],
        [(r.flow, r.offline_work, r.online_work,
          r.online_analysis_work, r.cycles) for r in reports],
        title="sum_u8 on x86 — every registered flow, custom included"))
    print("\nThe custom 'lean-unroll' row came from ONE register_flow "
          "call: no edits to core/, jit/ or service/.\n")


def per_pass_report_demo():
    kernel = TABLE1["saxpy_fp"]
    lean = register_flow(Flow(
        "lean-report", pipeline=PipelineSpec(unroll=2)),
        replace=True)
    artifact = offline_compile(kernel.source, pipeline=lean.pipeline)
    print("per-pass offline budget of 'lean-report' on saxpy_fp")
    print("(work units, wall ms, runs, runs that changed the IR, net "
          "IR size delta; both bytecode flavours come out of this "
          "one run):\n")
    print(artifact.pass_report())
    unregister_flow("lean-report")
    print()


def service_demo():
    service = CompilationService()
    targets = list(TARGETS.values())
    request = CompileRequest(source=TABLE1["sum_u8"].source,
                             name="sum_u8", targets=targets,
                             flow="lean-unroll")
    first = service.submit(request)
    second = service.submit(request)
    stats = service.stats()
    print(f"service request under 'lean-unroll' across "
          f"{len(targets)} targets:")
    print(f"  first:  artifact cache hit = {first.artifact_cache_hit}, "
          f"offline pass work = {sum(first.offline_pass_work.values())}")
    print(f"  second: fully cached = {second.fully_cached}")
    print(f"  per-flow deploy stats: {stats['deploy']['by_flow']}")
    service.shutdown()


if __name__ == "__main__":
    register_lean_flow()
    try:
        comparison_demo()
        per_pass_report_demo()
        service_demo()
    finally:
        unregister_flow("lean-unroll")
