"""Deployment: the µproc-specific online step of Figure 1.

Flows are resolved through :mod:`repro.flows` and targets through
:mod:`repro.targets.registry` — every function here accepts either
registered names or the objects themselves, so a flow or target
registered by user code deploys exactly like the built-in ones.
"""

from __future__ import annotations

from typing import Union

from repro.bytecode.module import BytecodeModule
from repro.core.offline import OfflineArtifact
from repro.flows import Flow, as_flow
from repro.jit import compile_for_target
from repro.targets.registry import Targetish, as_target

#: the three deployment flows of the paper (the registry may hold
#: more; see ``repro.flows.flow_names()`` for the authoritative list)
FLOWS = ("split", "offline-only", "online-only")


def select_bytecode(artifact: OfflineArtifact,
                    flow: Union[str, Flow]) -> BytecodeModule:
    """Which bytecode flavour does this flow ship to the device?

    Vector-flavour flows (split and friends) ship the annotated vector
    bytecode; scalar-flavour flows ship the plain scalar bytecode
    (offline-only runs it as-is, online-only and adaptive re-optimize
    it at run time).
    """
    flow = as_flow(flow)
    if flow.bytecode == "vector":
        return artifact.bytecode
    return artifact.scalar_bytecode


def deploy(source: Union[OfflineArtifact, BytecodeModule],
           target: Targetish, flow: Union[str, Flow] = "split",
           service=None):
    """Compile the right bytecode flavour for ``target`` under ``flow``.

    ``target`` is a descriptor or a registered name; the compilation
    runs on the target's registered backend (the native JIT by
    default).  With a :class:`~repro.service.CompilationService`
    passed as ``service``, artifact deployments are memoized per
    ``(artifact, target, flow)`` — repeated flows hit the service's
    image cache instead of re-running the JIT, and the compile runs
    on the service's deploy executor (threads, worker processes or
    inline — see :mod:`repro.service.executors`).
    """
    flow = as_flow(flow)
    target = as_target(target)
    if isinstance(source, OfflineArtifact):
        if service is not None:
            return service.deploy(source, target, flow)
        bytecode = select_bytecode(source, flow)
    else:
        bytecode = source
    return compile_for_target(bytecode, target, flow)


async def deploy_async(source: Union[OfflineArtifact, BytecodeModule],
                       target: Targetish,
                       flow: Union[str, Flow] = "split",
                       service=None):
    """Awaitable :func:`deploy` for event-loop callers.

    Artifact deployments route through the compilation service's
    async facade (``service`` may be a ``CompilationService``, an
    ``AsyncCompilationService`` or ``None`` for the process-wide
    default), which serves them off the loop; plain bytecode modules
    compile in the loop's default thread pool.
    """
    import asyncio

    flow = as_flow(flow)
    target = as_target(target)
    if isinstance(source, OfflineArtifact):
        from repro.service import default_service
        from repro.service.asyncio import AsyncCompilationService
        core = service if service is not None else default_service()
        if not isinstance(core, AsyncCompilationService):
            core = AsyncCompilationService(core)
        return await core.deploy_one(source, target, flow)
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        None, compile_for_target, source, target, flow)
