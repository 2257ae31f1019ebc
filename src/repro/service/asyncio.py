"""The asynchronous front end of the compilation service.

A serving layer absorbing deployment traffic for many heterogeneous
cores wants an *async* front door: requests arrive concurrently, most
of them are cache hits, and none of them may stall the event loop.
:class:`AsyncCompilationService` is that front door and nothing more.
``submit`` runs :meth:`CompilationService.serve_resident` — lookups
only — on the loop, so a request whose artifact and images are all in
memory never leaves it; only the rest of the request
(:meth:`CompilationService.serve_blocking`) and the other methods are
handed to a thread (:func:`asyncio.to_thread`) and awaited.  There is
one request path — the synchronous one, split where it could first
block — so both facades serve the same results with the same
accounting, and everything that makes a herd cheap (the artifact
cache, the image memo, the single-flight in front of each) is the
core's and is shared by threads and coroutines alike.
Batch fan-out is one ``asyncio.gather`` away::

    async with AsyncCompilationService() as service:
        results = await service.submit_batch(requests)

Construct the async service around an existing
:class:`CompilationService` to share its caches, or let it own a
private one.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.offline import OfflineArtifact
from repro.service import CompilationService
from repro.service.requests import (
    CompileOutcome, CompileRequest, DeployResult,
)
from repro.targets.registry import Targetish

__all__ = ["AsyncCompilationService"]


class AsyncCompilationService:
    """``await``-able facade over a :class:`CompilationService` core.

    All methods must be called from a running event loop; the
    instance itself holds no loop-bound state.
    """

    def __init__(self, service: Optional[CompilationService] = None,
                 **service_kwargs):
        """Wrap an existing service (shared caches) or construct a
        private core from ``service_kwargs`` (same keywords as
        :class:`CompilationService`: ``cache_capacity``,
        ``persist_dir``, ``executor``, ...)."""
        self._owns_core = service is None
        self.service = service if service is not None \
            else CompilationService(**service_kwargs)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Release the core's workers (only if this facade owns it)."""
        if self._owns_core:
            self.service.shutdown()

    async def __aenter__(self) -> "AsyncCompilationService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.shutdown()

    # -- pass-throughs ------------------------------------------------------

    @property
    def cache(self):
        return self.service.cache

    @property
    def pool(self):
        return self.service.pool

    def stats(self):
        return self.service.stats()

    # -- offline half -------------------------------------------------------

    async def compile(self, source: str, name: str = "module",
                      **options) -> CompileOutcome:
        """Offline-compile through the cache, off the event loop."""
        return await asyncio.to_thread(self.service.compile, source,
                                       name, **options)

    async def artifact(self, source: str, name: str = "module",
                       **options) -> OfflineArtifact:
        return (await self.compile(source, name, **options)).artifact

    # -- online half --------------------------------------------------------

    async def deploy_one(self, artifact: OfflineArtifact,
                         target: Targetish, flow="split"):
        """Compile (or reuse) one image, off the event loop."""
        return await asyncio.to_thread(self.service.deploy, artifact,
                                       target, flow)

    async def deploy_many(self, artifact: OfflineArtifact,
                          targets: Sequence[Targetish],
                          flow="split") -> Dict[str, object]:
        """Fan one artifact out over a catalog, off the event loop."""
        return await asyncio.to_thread(self.service.deploy_many,
                                       artifact, targets, flow)

    # -- batch API ----------------------------------------------------------

    async def submit(self, request: CompileRequest) -> DeployResult:
        """Serve one request (:meth:`CompilationService.submit`): from
        memory on the event loop, otherwise off it.  Concurrent
        identical requests that miss each take a thread, and the core
        makes the herd cheap: one of them compiles and JITs, the rest
        join it or hit the caches."""
        result = self.service.serve_resident(request)
        if result is None:
            result = await asyncio.to_thread(self.service.serve_blocking,
                                             request)
        return result

    async def submit_batch(self, requests: Iterable[CompileRequest]) \
            -> List[DeployResult]:
        """The batch front door: gather over :meth:`submit`, so the
        whole batch shares the core's caches and dedup."""
        return await asyncio.gather(
            *(self.submit(request) for request in requests))
