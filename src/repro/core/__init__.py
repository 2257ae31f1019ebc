"""The paper's primary contribution: processor virtualization combined
with split compilation.

* :mod:`repro.core.offline` — the offline (µproc-independent) compiler:
  aggressive analyses, auto-vectorization, spill-priority ranking,
  hardware-requirement summaries — all distilled into annotated PVI
  bytecode (Figure 1, left box).
* :mod:`repro.core.online` — deployment: pick the bytecode flavour for
  a flow, run the µproc-specific JIT (Figure 1, right box).
* :mod:`repro.core.budget` — compile-budget accounting comparing the
  three flows (offline-only / online-only / split).
* :mod:`repro.core.platform` — the deployment manager for
  heterogeneous multicore platforms (one JIT per core kind, same
  bytecode for all).
"""

from repro.core.offline import OfflineArtifact, offline_compile
from repro.core.online import deploy, deploy_async, select_bytecode
from repro.core.budget import FlowReport, compare_flows
from repro.core.platform import Core, DeploymentManager, Platform
from repro.flows import (
    Flow, PipelineSpec, UnknownFlowError, as_flow, flow_names,
    register_flow,
)
from repro.registry import Registry, UnknownNameError
from repro.targets.registry import (
    Backend, UnknownTargetError, as_target, register_target,
    target_names,
)

__all__ = [
    "OfflineArtifact", "offline_compile",
    "deploy", "deploy_async", "select_bytecode",
    "FlowReport", "compare_flows",
    "Core", "Platform", "DeploymentManager",
    "Registry", "UnknownNameError",
    "Flow", "PipelineSpec", "UnknownFlowError",
    "register_flow", "as_flow", "flow_names",
    "Backend", "UnknownTargetError",
    "register_target", "as_target", "target_names",
]
