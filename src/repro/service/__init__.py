"""The compilation service: split compilation as a serving layer.

The paper's economics — expensive µproc-independent analysis offline,
cheap µproc-specific JIT online — only pay off if the offline work is
actually *reused*.  :class:`CompilationService` is the facade that
enforces the reuse:

* :mod:`repro.service.cache` — content-addressed artifact cache keyed
  by ``sha256(source, offline options)``, now N independently locked
  shards (key-hash routing, per-shard LRU + disk directories);
* :mod:`repro.service.executors` — the pluggable
  :class:`DeployExecutor` substrates a deployment compiles on
  (threads, worker processes, inline);
* :mod:`repro.service.deployment` — concurrent multi-target deployment
  with a per-``(artifact, target, flow)`` image memo;
* :mod:`repro.service.singleflight` — the one in-flight dedup both
  once-only jobs (offline compile, image build) share;
* :mod:`repro.service.requests` — the batch request/response API with
  hit/miss/latency accounting;
* :mod:`repro.service.asyncio` — the :class:`AsyncCompilationService`
  front end: ``await service.deploy(request)`` and ``asyncio.gather``
  batch fan-out, each call one off-loop hop onto this facade.

Every higher layer (``core.online.deploy``, the platform
``DeploymentManager``, the KPN mapper, the experiment harness) can
route through one service instance so repeated flows hit the cache.

There is one request path: :meth:`CompilationService.submit` below.
The async front end hands it to a thread and awaits it; the serving
edge (:mod:`repro.service.edge`) queues in front of that.  The pool's
execution substrate is chosen by handing it an executor
(``executor="thread" | "process" | "inline"`` or a configured
:class:`~repro.service.executors.DeployExecutor` instance).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.lint import AdmissionError, check_admission
from repro.core.offline import OfflineArtifact, offline_compile
from repro.flows import DEFAULT_PIPELINE, Flow, as_flow
from repro.service.cache import (
    ArtifactCache, CacheStats, SCHEMA_VERSION, artifact_fingerprint,
    artifact_key, canonical_options, deserialize_artifact,
    serialize_artifact,
)
from repro.service.deployment import DeploymentPool, DeployStats
from repro.service.executors import (
    DeployExecutor, Executorish, ExecutorStats, InlineExecutor,
    ProcessExecutor, ThreadExecutor, UnknownExecutorError, as_executor,
    executor_names,
)
from repro.service.requests import (
    CompileOutcome, CompileRequest, DeployResult, ServiceStats,
    TargetDeployment,
)
from repro.service.singleflight import SingleFlight, run_settled
from repro.targets.registry import Targetish, as_target

__all__ = [
    "ArtifactCache", "CacheStats", "SCHEMA_VERSION",
    "artifact_key", "artifact_fingerprint",
    "canonical_options", "serialize_artifact", "deserialize_artifact",
    "DeploymentPool", "DeployStats",
    "DeployExecutor", "ExecutorStats", "ThreadExecutor",
    "ProcessExecutor", "InlineExecutor", "UnknownExecutorError",
    "as_executor", "executor_names",
    "CompileRequest", "CompileOutcome", "DeployResult",
    "TargetDeployment", "ServiceStats",
    "CompilationService", "AsyncCompilationService",
    "AdmissionError",
    "default_service", "reset_default_service",
]


class CompilationService:
    """Facade tying the artifact cache to the deployment pool.

    One instance per process is the intended shape (see
    :func:`default_service`); everything on it is safe to call from
    multiple threads.  Compilation of the *same* key racing on two
    threads is deduplicated in flight: the second caller joins the
    first's result instead of compiling twice (counted as a coalesced
    request).
    """

    def __init__(self, cache: Optional[ArtifactCache] = None,
                 cache_capacity: int = 64,
                 persist_dir: Optional[Path] = None,
                 executor: Executorish = None,
                 cache_shards: Optional[int] = None,
                 lint: bool = True):
        """``executor`` picks the deployment substrate (name or
        :class:`DeployExecutor` instance; default thread pool) and
        ``cache_shards`` the artifact-cache shard count (default
        ``min(8, capacity)``).  ``lint=False`` disables the
        deploy-time admission gate (the dataflow-plane lint every
        artifact passes before any target compiles; see
        :mod:`repro.analysis.lint`)."""
        self.cache = cache if cache is not None else \
            ArtifactCache(cache_capacity, persist_dir,
                          shards=cache_shards)
        self.pool = DeploymentPool(executor=executor)
        self.lint = lint
        self._lint_findings: List[Dict[str, object]] = []
        self._lint_rejections = 0
        self._counter_lock = threading.Lock()
        self._requests = 0
        self._coalesced = 0
        self._offline_latency = 0.0
        self._deploy_latency = 0.0
        #: wall time coalesced requests spent *waiting* on work some
        #: other request triggered — kept out of the latency totals
        #: above so they measure real compilation, not herd size
        self._coalesced_wait = 0.0
        #: in-flight offline compiles, keyed by artifact key — the
        #: offline-side twin of the pool's in-flight image builds
        self._compiling = SingleFlight()

    def shutdown(self) -> None:
        self.pool.shutdown()

    # -- offline half -------------------------------------------------------

    def compile(self, source: str, name: str = "module",
                **options) -> CompileOutcome:
        """Offline-compile through the cache.

        Concurrent calls for the same key coalesce: one thread runs
        the compiler, the rest block on its in-flight future and
        report a cache hit (they triggered no work).
        """
        start = time.perf_counter()
        key = artifact_key(source, name, options or None)
        artifact = self.cache.get(key)
        hit = artifact is not None
        joined = False
        if artifact is None:
            artifact, joined = self._compile_deduped(
                key, source, name, options)
            hit = joined
        latency = time.perf_counter() - start
        # A joiner's wall clock is time spent *waiting* on another
        # request's compile, not work this request performed — charge
        # it to the coalesced-wait bucket so the offline latency total
        # scales with compilations, not with herd size.
        with self._counter_lock:
            if joined:
                self._coalesced_wait += latency
            else:
                self._offline_latency += latency
        return CompileOutcome(artifact=artifact, key=key, cache_hit=hit,
                              latency=latency)

    def _compile_deduped(self, key: str, source: str, name: str,
                         options) -> Tuple[OfflineArtifact, bool]:
        """Run (or join) the offline compile for one cache key.

        Returns ``(artifact, joined)`` — ``joined`` is True when this
        call rode another thread's compilation (it triggered no work
        of its own).
        """
        def build() -> OfflineArtifact:
            artifact = offline_compile(
                source, name, **canonical_options(options or None))
            # Remember the content address so deployment keys line up
            # with the cache key without re-encoding the modules.
            artifact._pvi_fingerprint = key
            return artifact

        future, joined = self._compiling.fly(
            key,
            peek=lambda: self.cache.peek(key),
            start=lambda: run_settled(build),
            store=lambda artifact: self.cache.put(key, artifact))
        if joined:
            with self._counter_lock:
                self._coalesced += 1
        return future.result(), joined

    def artifact(self, source: str, name: str = "module",
                 **options) -> OfflineArtifact:
        """Drop-in replacement for ``offline_compile`` (cached)."""
        return self.compile(source, name, **options).artifact

    # -- online half --------------------------------------------------------

    def _admit(self, artifact: OfflineArtifact) -> None:
        """The deploy-time admission gate: verify + lint the artifact
        before any target compiles.  ``error`` findings raise
        :class:`AdmissionError` (the structured diagnostic carries the
        findings); ``warn`` findings are surfaced once per artifact in
        ``ServiceStats.lint_findings``.  Findings are memoized on the
        artifact, so repeat deployments re-check nothing."""
        if not self.lint:
            return
        try:
            findings = check_admission(artifact)
        except AdmissionError:
            with self._counter_lock:
                self._lint_rejections += 1
            raise
        warns = [f.as_dict() for f in findings if f.severity == "warn"]
        if warns and not getattr(artifact, "_pvi_lint_surfaced", False):
            artifact._pvi_lint_surfaced = True
            with self._counter_lock:
                self._lint_findings.extend(warns)

    def deploy(self, artifact: OfflineArtifact, target: Targetish,
               flow="split"):
        """Compile (or reuse) one image for one target (descriptor or
        registered name); the compile runs on the pool's executor
        through the target's backend."""
        self._admit(artifact)
        start = time.perf_counter()
        image = self.pool.deploy_one(artifact, target, flow)
        self._add_deploy_latency(time.perf_counter() - start)
        return image

    def deploy_many(self, artifact: OfflineArtifact,
                    targets: Sequence[Targetish],
                    flow="split") -> Dict[str, object]:
        """Fan one artifact out over a target catalog (descriptors or
        registered names, mixed freely)."""
        self._admit(artifact)
        start = time.perf_counter()
        images = self.pool.deploy_many(artifact, targets, flow)
        self._add_deploy_latency(time.perf_counter() - start)
        return images

    # -- batch API ----------------------------------------------------------

    def submit(self, request: CompileRequest) -> DeployResult:
        """Serve one request end to end: cache, then fan-out.

        This is the only implementation of "serve one request" — the
        async facade and the serving edge both arrive here.  The flow
        is resolved through the registry up front (raising
        ``UnknownFlowError`` before any work happens), and its offline
        pipeline spec joins the artifact cache key, so flows with
        distinct pipelines get distinct cached artifacts.  With
        ``request.tolerate_failures`` a raising target is recorded on
        its :class:`TargetDeployment` instead of failing the request.
        """
        start = time.perf_counter()
        flow = as_flow(request.flow)
        with self._counter_lock:
            self._requests += 1
        outcome = self.compile(request.source, request.name,
                               **self.request_options(request, flow))
        self._admit(outcome.artifact)
        deploy_start = time.perf_counter()
        futures = self.pool.submit_many(outcome.artifact,
                                        request.targets, flow)
        info = {}
        for name, (future, reused) in futures.items():
            try:
                info[name] = (future.result(), reused, None)
            except Exception as exc:
                if not request.tolerate_failures:
                    raise
                info[name] = (None, reused, exc)
        # A request whose every target rode the memo or an in-flight
        # compile triggered no JIT work — its wait belongs to
        # ``coalesced_wait``, not the deploy latency total.
        waited = time.perf_counter() - deploy_start
        with self._counter_lock:
            if info and all(reused for _c, reused, _e in info.values()):
                self._coalesced_wait += waited
            else:
                self._deploy_latency += waited
        return self._build_result(request, flow, outcome, info, start)

    def submit_batch(self, requests: Iterable[CompileRequest]) \
            -> List[DeployResult]:
        return [self.submit(request) for request in requests]

    @staticmethod
    def request_options(request: CompileRequest,
                        flow: Flow) -> Dict[str, object]:
        """The offline options a request actually compiles under: the
        request's own options, with the flow's pipeline spec filled in
        when it differs from the default (this is what joins the
        artifact cache key)."""
        options = dict(request.options or {})
        if "pipeline" not in options and \
                flow.pipeline != DEFAULT_PIPELINE:
            options["pipeline"] = flow.pipeline
        return options

    @staticmethod
    def request_key(request: CompileRequest) \
            -> Tuple[str, str, Tuple[str, ...], bool]:
        """The request's identity: artifact cache key x flow identity
        x sorted target set x failure policy — everything that
        determines the served result.  The serving edge coalesces
        concurrent requests onto one queued job iff their keys are
        equal.  The failure policy is part of it because its two
        settings promise different things: a strict request raises on
        the first failing target, a tolerant one is owed a partial
        result, so one served job cannot answer both."""
        flow = as_flow(request.flow)
        options = CompilationService.request_options(request, flow)
        return (
            artifact_key(request.source, request.name, options or None),
            flow.cache_key(),
            tuple(sorted(as_target(target).cache_key()
                         for target in request.targets)),
            request.tolerate_failures,
        )

    def _build_result(self, request: CompileRequest, flow: Flow,
                      outcome: CompileOutcome, info, start: float) \
            -> DeployResult:
        """Assemble the DeployResult from collected fan-out results:
        ``info`` maps target name -> (image or None, reused, error)."""
        deployments = {}
        for name, (compiled, reused, error) in info.items():
            # memo_hit means this request did not trigger the JIT —
            # either the image was memoized or another caller's
            # in-flight compilation was joined; only a triggering
            # request is charged the JIT time.
            deployments[name] = TargetDeployment(
                target=name,
                compiled=compiled,
                memo_hit=reused,
                latency=0.0 if (reused or compiled is None) else sum(
                    f.jit_time for f in compiled.functions.values()),
                error=error)
        return DeployResult(
            name=request.name,
            artifact_key=outcome.key,
            artifact_cache_hit=outcome.cache_hit,
            offline_latency=outcome.latency,
            deployments=deployments,
            total_latency=time.perf_counter() - start,
            flow=flow.name,
            offline_pass_work=dict(
                outcome.artifact.pass_stats.work_by_pass))

    def _add_deploy_latency(self, seconds: float) -> None:
        with self._counter_lock:
            self._deploy_latency += seconds

    # -- observability ------------------------------------------------------

    def stats(self) -> ServiceStats:
        cache = self.cache.stats
        pool = self.pool.stats
        executor = self.pool.executor
        return ServiceStats(
            artifact_hits=cache.hits,
            artifact_disk_hits=cache.disk_hits,
            artifact_misses=cache.misses,
            artifact_stores=cache.stores,
            artifact_evictions=cache.evictions,
            artifact_corrupt_entries=cache.corrupt_entries,
            artifact_io_errors=cache.io_errors,
            deploy_compiles=pool.compiles,
            deploy_memo_hits=pool.memo_hits,
            deploy_evictions=pool.evictions,
            requests=self._requests,
            coalesced_requests=self._coalesced,
            total_offline_latency=self._offline_latency,
            total_deploy_latency=self._deploy_latency,
            total_coalesced_wait=self._coalesced_wait,
            lint_findings=list(self._lint_findings),
            lint_rejections=self._lint_rejections,
            deploy_by_flow={
                name: {"compiles": entry.compiles,
                       "memo_hits": entry.memo_hits}
                for name, entry in self.pool.flow_stats().items()},
            artifact_shards=[shard.as_dict()
                             for shard in self.cache.shard_stats()],
            deploy_executors={
                executor.name: executor.stats.as_dict()})


def __getattr__(name: str):
    # AsyncCompilationService lives in repro.service.asyncio;
    # importing it lazily here keeps `repro.service` the one-stop
    # namespace without dragging event-loop plumbing into every
    # synchronous consumer's import.
    if name == "AsyncCompilationService":
        from repro.service.asyncio import AsyncCompilationService
        return AsyncCompilationService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_DEFAULT: Optional[CompilationService] = None
_DEFAULT_LOCK = threading.Lock()


def default_service() -> CompilationService:
    """The process-wide service instance (created on first use)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = CompilationService()
        return _DEFAULT


def reset_default_service() -> None:
    """Drop the process-wide instance (tests use this for isolation)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is not None:
            _DEFAULT.shutdown()
        _DEFAULT = None
