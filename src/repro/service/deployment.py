"""Concurrent multi-target deployment with per-target memoization.

Deployment is the µproc-*specific* half of Figure 1: one JIT
invocation per ``(artifact, target, flow)`` triple.  The pool fans a
whole target catalog out across its executor and memoizes every
compiled image, so a triple is JIT-compiled at most once per process
no matter how many platforms, experiments or requests ask for it.

In-flight deduplication: if two threads request the same triple
concurrently, the second joins the first's future instead of
compiling twice (:mod:`repro.service.singleflight`) — the
once-compile/many-deploy economics the paper argues for, enforced
under concurrency.

*Where* a compile runs is a pluggable axis: the pool drives a
:class:`~repro.service.executors.DeployExecutor` (thread pool by
default; worker processes for cold fan-out past the GIL; inline for
deterministic tests).  The memo, the in-flight dedup and the stats
all sit above that seam, so every executor serves identical images.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.offline import OfflineArtifact
from repro.core.online import select_bytecode
from repro.flows import Flow, as_flow
from repro.jit import compile_for_target
from repro.service.cache import SCHEMA_VERSION, artifact_fingerprint
from repro.service.executors import (
    DeployExecutor, Executorish, as_executor,
)
from repro.service.singleflight import SingleFlight
from repro.targets.machine import TargetDesc
from repro.targets.registry import Targetish, as_target

#: memoization key of one compiled image: (artifact hash, schema +
#: target cache key, flow cache key).  The target component is
#: ``TargetDesc.cache_key()`` (name + config digest) with the service
#: schema version alongside — two targets sharing a name but differing
#: in registers, cost model or backend must not alias to one image,
#: and a schema bump invalidates every image identity at once.  The
#: flow component is ``Flow.cache_key()`` (name + config digest), so a
#: custom flow — or a re-registered name with different knobs — is
#: cached under its own identity.
DeployKey = Tuple[str, str, str]

Flowish = Union[str, Flow]


@dataclass
class FlowDeployStats:
    """Per-flow share of the pool's traffic."""
    compiles: int = 0
    memo_hits: int = 0


@dataclass
class DeployStats:
    compiles: int = 0          # actual JIT invocations
    memo_hits: int = 0         # served from the image memo
    evictions: int = 0         # finished images dropped at capacity
    #: traffic broken down by flow name (custom flows included)
    by_flow: Dict[str, FlowDeployStats] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return self.compiles + self.memo_hits

    def _count(self, flow_name: str, hit: bool) -> None:
        entry = self.by_flow.setdefault(flow_name, FlowDeployStats())
        if hit:
            self.memo_hits += 1
            entry.memo_hits += 1
        else:
            self.compiles += 1
            entry.compiles += 1


class DeploymentPool:
    """Memoizing, concurrency-safe JIT front door.

    ``deploy_one`` compiles (or reuses) a single image; ``deploy_many``
    fans one artifact out over N targets through the pool's
    :class:`~repro.service.executors.DeployExecutor`;
    ``submit_many`` schedules the same fan-out without blocking and
    hands back the futures.  The memo is bounded (LRU over finished
    images, ``max_images``) and only ever holds finished images — a
    raising deploy re-runs on the next request instead of poisoning
    the triple.
    """

    def __init__(self, max_images: int = 512,
                 executor: Executorish = None):
        """``executor`` selects the execution substrate: an executor
        name (``"thread"`` / ``"process"`` / ``"inline"``), a
        :class:`~repro.service.executors.DeployExecutor` instance, or
        ``None`` for the default thread pool."""
        if max_images < 1:
            raise ValueError("max_images must be >= 1")
        self._images: "OrderedDict[DeployKey, object]" = OrderedDict()
        self._building = SingleFlight()
        #: guards the memo and the stats, never held across a compile
        self._lock = threading.Lock()
        self.executor: DeployExecutor = as_executor(executor)
        self.max_images = max_images
        self.stats = DeployStats()

    def shutdown(self) -> None:
        self.executor.shutdown(wait=True)

    # -- public API ---------------------------------------------------------

    def deploy_one(self, artifact: OfflineArtifact, target: Targetish,
                   flow: Flowish = "split"):
        return self._image_future(artifact, as_target(target),
                                  as_flow(flow))[0].result()

    def deploy_many(self, artifact: OfflineArtifact,
                    targets: Sequence[Targetish],
                    flow: Flowish = "split") -> Dict[str, object]:
        """Compile ``artifact`` for every target; returns name -> image.

        Targets are descriptors or registered names.  Duplicate
        targets in the catalog collapse onto one compilation.
        """
        futures = self.submit_many(artifact, targets, flow)
        return {name: future.result()
                for name, (future, _reused) in futures.items()}

    def submit_many(self, artifact: OfflineArtifact,
                    targets: Sequence[Targetish],
                    flow: Flowish = "split") \
            -> Dict[str, Tuple[Future, bool]]:
        """Schedule the fan-out without blocking: name -> (future,
        reused).  ``reused`` is True when this call did not trigger
        the compilation — the image was memoized or already in flight
        on another caller's behalf; however many concurrent callers
        ask for a triple, it compiles once."""
        flow = as_flow(flow)      # raises UnknownFlowError on a typo
        # ... and UnknownTargetError on a target typo, before any JIT
        targets = [as_target(target) for target in targets]
        futures: Dict[str, Tuple[Future, bool]] = {}
        for target in targets:
            future, reused = self._image_future(artifact, target, flow)
            if target.name in futures:
                # a duplicate target joins this call's own build
                reused = reused and futures[target.name][1]
            futures[target.name] = (future, reused)
        return futures

    def cached_image(self, artifact: OfflineArtifact, target: Targetish,
                     flow: Flowish = "split") -> Optional[object]:
        """The memoized image if it is already built, else ``None``
        (never triggers a compilation, never raises)."""
        return self._memoized(
            self._key(artifact, as_target(target), as_flow(flow)))

    def known_keys(self) -> List[DeployKey]:
        with self._lock:
            return list(self._images)

    def flow_stats(self) -> Dict[str, FlowDeployStats]:
        """Snapshot of the per-flow counters (copied under the lock —
        ``stats.by_flow`` itself is mutated by concurrent deploys)."""
        with self._lock:
            return {name: FlowDeployStats(entry.compiles,
                                          entry.memo_hits)
                    for name, entry in self.stats.by_flow.items()}

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _key(artifact: OfflineArtifact, target: TargetDesc,
             flow: Flow) -> DeployKey:
        return (artifact_fingerprint(artifact),
                f"{SCHEMA_VERSION}:{target.cache_key()}",
                flow.cache_key())

    def _image_future(self, artifact: OfflineArtifact, target: TargetDesc,
                      flow: Flow) -> Tuple[Future, bool]:
        """(future, reused): ``reused`` is True when this call did not
        submit the compilation — the memo had the image, or it joined
        a build already in flight.

        The executor is invoked with no pool lock held — an inline
        executor compiles synchronously right here, and a compile
        must never run (or re-enter the pool) under the non-reentrant
        lock."""
        key = self._key(artifact, target, flow)
        future, reused = self._building.fly(
            key,
            peek=lambda: self._memoized(key),
            start=lambda: self.executor.submit(self._compile, artifact,
                                               target, flow),
            store=lambda image: self._remember(key, image))
        with self._lock:
            self.stats._count(flow.name, hit=reused)
        return future, reused

    def _memoized(self, key: DeployKey) -> Optional[object]:
        """The finished image for ``key`` (touching its recency)."""
        with self._lock:
            image = self._images.get(key)
            if image is not None:
                self._images.move_to_end(key)
            return image

    def _remember(self, key: DeployKey, image) -> None:
        """Memoize a finished image; bound the memo."""
        with self._lock:
            self._images[key] = image
            while len(self._images) > self.max_images:
                self._images.popitem(last=False)
                self.stats.evictions += 1

    @staticmethod
    def _compile(artifact: OfflineArtifact, target: TargetDesc,
                 flow: Flow):
        # Dispatches through the target's registered backend.  No
        # eager predecode here or in any executor: the fast engine
        # predecodes lazily and caches on the function object, so
        # the first simulation of a memoized image pays decode
        # exactly once — warming eagerly would tax the
        # latency-sensitive cold-deploy path instead (a caller that
        # wants decode-free first dispatch calls `warm_module`).
        return compile_for_target(select_bytecode(artifact, flow),
                                  target, flow)
