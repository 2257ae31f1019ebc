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
deterministic tests).  The memo, the in-flight dedup and the counts
all sit above that seam, so every executor serves identical images.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.telemetry import Counters

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


class DeploymentPool:
    """Memoizing, concurrency-safe JIT front door.

    ``deploy_one`` compiles (or reuses) a single image; ``deploy_many``
    fans one artifact out over N targets through the pool's
    :class:`~repro.service.executors.DeployExecutor`;
    ``submit_many`` schedules the same fan-out without blocking and
    hands back the futures; ``resident`` serves it from the memo
    alone, or not at all.  The memo is bounded (LRU over finished
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
        #: guards the memo, never held across a compile
        self._lock = threading.Lock()
        self.executor: DeployExecutor = as_executor(executor)
        self.max_images = max_images
        #: actual JIT ``compiles`` and image ``memo_hits``, both by
        #: ``flow`` name; finished images ``evictions`` at capacity
        self.counts = Counters("compiles", "memo_hits", "evictions")

    def shutdown(self) -> None:
        self.executor.shutdown(wait=True)

    # -- public API ---------------------------------------------------------

    def deploy_one(self, artifact: OfflineArtifact, target: Targetish,
                   flow: Flowish = "split"):
        return self._image_future(artifact, as_target(target),
                                  as_flow(flow),
                                  self.executor.submit)[0].result()

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
        submit = self.executor.fan_out(artifact)
        futures: Dict[str, Tuple[Future, bool]] = {}
        for target in targets:
            future, reused = self._image_future(artifact, target, flow,
                                                submit)
            if target.name in futures:
                # a duplicate target joins this call's own build
                reused = reused and futures[target.name][1]
            futures[target.name] = (future, reused)
        return futures

    def resident(self, artifact: OfflineArtifact,
                 targets: Sequence[Targetish],
                 flow: Flowish = "split") -> Optional[Dict[str, object]]:
        """name -> image when the memo already holds every target's
        image, counting one memo hit per target as
        :meth:`submit_many` would; else ``None``, counting nothing.
        Never compiles, never waits: safe on an event loop."""
        flow = as_flow(flow)
        keys = [(target.name, self._key(artifact, target, flow))
                for target in map(as_target, targets)]
        images = {}
        with self._lock:
            for name, key in keys:
                image = self._images.get(key)
                if image is None:
                    return None
                self._images.move_to_end(key)
                images[name] = image
        if keys:
            self.counts.add("memo_hits", len(keys), flow=flow.name)
        return images

    def known_keys(self) -> List[DeployKey]:
        with self._lock:
            return list(self._images)

    def stats(self) -> Dict[str, object]:
        """The counts with the memo hit rate, the per-flow split and
        the executor's own counts."""
        view: Dict[str, object] = self.counts.snapshot()
        served = view["compiles"] + view["memo_hits"]
        view["hit_rate"] = view["memo_hits"] / served if served else 0.0
        view["by_flow"] = {
            flow: {"compiles": row["compiles"],
                   "memo_hits": row["memo_hits"]}
            for flow, row in self.counts.split("flow").items()}
        view["executors"] = {self.executor.name: self.executor.stats()}
        return view

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _key(artifact: OfflineArtifact, target: TargetDesc,
             flow: Flow) -> DeployKey:
        return (artifact_fingerprint(artifact),
                f"{SCHEMA_VERSION}:{target.cache_key()}",
                flow.cache_key())

    def _image_future(self, artifact: OfflineArtifact, target: TargetDesc,
                      flow: Flow, submit: Callable[..., Future]) \
            -> Tuple[Future, bool]:
        """(future, reused): ``reused`` is True when this call did not
        submit the compilation — the memo had the image, or it joined
        a build already in flight.  ``submit`` is the executor's entry
        for this call's fan-out.

        The executor is invoked with no pool lock held — an inline
        executor compiles synchronously right here, and a compile
        must never run (or re-enter the pool) under the non-reentrant
        lock."""
        key = self._key(artifact, target, flow)
        image = self._memoized(key)
        if image is not None:
            # a memo hit needs no flight; the flight's own peek only
            # covers a build that lands between this look and the fly
            future, reused = Future(), True
            future.set_result(image)
        else:
            future, reused = self._building.fly(
                key,
                peek=lambda: self._memoized(key),
                start=lambda: submit(self._compile, artifact, target,
                                     flow),
                store=lambda image: self._remember(key, image))
        self.counts.add("memo_hits" if reused else "compiles",
                        flow=flow.name)
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
        evicted = 0
        with self._lock:
            self._images[key] = image
            while len(self._images) > self.max_images:
                self._images.popitem(last=False)
                evicted += 1
        if evicted:
            self.counts.add("evictions", evicted)

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
