"""Compile-budget accounting (experiments F1 and S3a).

The paper's core quantitative argument: a JIT is CPU- and memory-bound,
so the analysis work of aggressive optimization must move offline.
:func:`compare_flows` runs one workload through every registered
deployment flow (or an explicit subset) and reports, per flow, where
the work happened — down to the individual offline pass — and what the
generated code achieves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.offline import OfflineArtifact, offline_compile
from repro.core.online import deploy
from repro.flows import Flow, as_flow, flow_names
from repro.semantics import Memory
from repro.targets.registry import Targetish, as_target, backend_for


@dataclass
class FlowReport:
    flow: str
    target: str
    offline_work: int           # analysis units spent offline
    online_work: int            # total units spent in the JIT
    online_analysis_work: int   # analysis portion of the JIT's work
    online_time: float          # wall-clock JIT seconds
    code_bytes: int
    cycles: Optional[int] = None
    value: object = None
    #: offline analysis work by pass (empty when the flow ships the
    #: scalar baseline and charges nothing offline)
    offline_pass_work: Dict[str, int] = field(default_factory=dict)
    #: online analysis work by pass (non-empty for flows that re-derive
    #: optimizations in the JIT)
    online_pass_work: Dict[str, int] = field(default_factory=dict)


def artifact_for_flow(artifact: OfflineArtifact, flow: Flow,
                      service=None) -> OfflineArtifact:
    """The artifact a flow actually deploys.

    A flow whose pipeline spec matches the artifact's (or an artifact
    that no longer knows its source) deploys the artifact as-is; a flow
    with a different offline pipeline (e.g. ``split-O3``) recompiles
    from source — through the service's content-addressed cache when
    one is supplied, so the recompilation happens once per
    (source, pipeline)."""
    if artifact.source is None or artifact.pipeline == flow.pipeline:
        return artifact
    if service is not None:
        return service.artifact(artifact.source, artifact.name,
                                pipeline=flow.pipeline,
                                hotness=artifact.hotness)
    return offline_compile(artifact.source, artifact.name,
                           pipeline=flow.pipeline,
                           hotness=artifact.hotness)


def compare_flows(artifact: OfflineArtifact, target: Targetish,
                  entry: str, make_args: Callable[[Memory], List],
                  flows: Optional[Sequence[Union[str, Flow]]] = None,
                  service=None) -> List[FlowReport]:
    """Deploy + run ``entry`` under each flow on ``target``.

    ``target`` is a descriptor or a registered name; compilation and
    execution go through its registered backend, so a runtime-
    registered custom target (or the ``wasm32`` stack machine)
    compares exactly like the built-in native ones.  ``flows``
    defaults to *every registered flow*, in registration order — a
    freshly registered custom flow shows up here with no further
    plumbing.  ``make_args`` receives a fresh :class:`Memory` per flow
    and returns the argument list (allocating any arrays it needs);
    per-flow memories keep the runs independent.  A compilation
    ``service`` makes repeated comparisons reuse their compiled images
    (the work counters come from the first, identical compilation).
    """
    target = as_target(target)
    backend = backend_for(target)
    if flows is None:
        flows = flow_names()
    reports: List[FlowReport] = []
    for flow in flows:
        flow = as_flow(flow)
        flow_artifact = artifact_for_flow(artifact, flow, service)
        compiled = deploy(flow_artifact, target, flow, service=service)
        memory = Memory()
        args = make_args(memory)
        result = backend.executor(compiled, memory).run(entry, args)
        charged = flow.charges_offline
        reports.append(FlowReport(
            flow=flow.name,
            target=target.name,
            offline_work=flow_artifact.offline_work if charged else 0,
            online_work=compiled.total_jit_work,
            online_analysis_work=compiled.total_jit_analysis_work,
            online_time=sum(f.jit_time
                            for f in compiled.functions.values()),
            code_bytes=compiled.total_code_bytes,
            cycles=result.cycles,
            value=result.value,
            offline_pass_work=dict(
                flow_artifact.pass_stats.work_by_pass) if charged
            else {},
            online_pass_work=compiled.total_jit_pass_work,
        ))
    return reports
