"""The compilation service: split compilation as a serving layer.

The paper's economics — expensive µproc-independent analysis offline,
cheap µproc-specific JIT online — only pay off if the offline work is
actually *reused*.  :class:`CompilationService` is the facade that
enforces the reuse:

* :mod:`repro.service.cache` — content-addressed artifact cache keyed
  by ``sha256(source, offline options)``: one LRU in memory, an
  optional persistence directory on disk;
* :mod:`repro.service.executors` — the pluggable
  :class:`DeployExecutor` substrates the offline compile and the
  deployment JIT run on (threads, worker processes, inline);
* :mod:`repro.service.deployment` — concurrent multi-target deployment
  with a per-``(artifact, target, flow)`` image memo;
* :mod:`repro.service.singleflight` — the one in-flight dedup both
  once-only jobs (offline compile, image build) share;
* :mod:`repro.service.requests` — the batch request/response API;
* :mod:`repro.service.asyncio` — the :class:`AsyncCompilationService`
  front end: ``await service.submit(request)`` and ``asyncio.gather``
  batch fan-out; a request served from memory is answered on the
  event loop, anything else is one off-loop hop onto this facade.

Every higher layer (``core.online.deploy``, the platform
``DeploymentManager``, the KPN mapper, the experiment harness) can
route through one service instance so repeated flows hit the cache.

There is one request path: :meth:`CompilationService.submit` below,
split where it could first block.  The async front end runs its
lookup half on the loop and hands only the rest to a thread; the
serving edge (:mod:`repro.service.edge`) answers the lookup half on
the connection and queues only the rest in front of that.  The
pool's execution substrate is chosen by handing it an executor
(``executor="thread" | "process" | "inline"`` or a configured
:class:`~repro.service.executors.DeployExecutor` instance).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.lint import AdmissionError, check_admission, linted
from repro.core.offline import OfflineArtifact
from repro.flows import Flow
from repro.service.cache import (
    ArtifactCache, SCHEMA_VERSION, artifact_fingerprint, artifact_key,
    canonical_options, deserialize_artifact, serialize_artifact,
)
from repro.service.deployment import DeploymentPool
from repro.service.executors import (
    DeployExecutor, Executorish, InlineExecutor, ProcessExecutor,
    ThreadExecutor, UnknownExecutorError, as_executor, executor_names,
)
from repro.service.requests import (
    CompileOutcome, CompileRequest, DeployResult, TargetDeployment,
)
from repro.service.singleflight import SingleFlight
from repro.targets.registry import Targetish
from repro.telemetry import Counters

__all__ = [
    "ArtifactCache", "SCHEMA_VERSION",
    "artifact_key", "artifact_fingerprint",
    "canonical_options", "serialize_artifact", "deserialize_artifact",
    "DeploymentPool",
    "DeployExecutor", "ThreadExecutor",
    "ProcessExecutor", "InlineExecutor", "UnknownExecutorError",
    "as_executor", "executor_names",
    "CompileRequest", "CompileOutcome", "DeployResult",
    "TargetDeployment",
    "CompilationService", "AsyncCompilationService",
    "AdmissionError",
    "default_service",
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

    def __init__(self, cache_capacity: int = 64,
                 persist_dir: Optional[Path] = None,
                 executor: Executorish = None):
        """``executor`` picks the deployment substrate (name or
        :class:`DeployExecutor` instance; default thread pool)."""
        self.cache = ArtifactCache(cache_capacity, persist_dir)
        self.pool = DeploymentPool(executor=executor)
        #: ``requests`` served; ``coalesced_requests`` whose offline
        #: half joined a compile another request had in flight;
        #: deployments the admission gate refused (``lint_rejections``);
        #: seconds of real offline (``offline_s``) and JIT
        #: (``deploy_s``) work, and ``coalesced_wait_s`` — the wall
        #: time requests spent waiting on work another request
        #: triggered, kept apart so the two totals before it measure
        #: compilation, not herd size
        self.counts = Counters("requests", "coalesced_requests",
                               "lint_rejections", "offline_s",
                               "deploy_s", "coalesced_wait_s")
        #: artifact key -> its warn-severity lint findings (``as_dict``
        #: form), for the cache's capacity of keys, oldest out first
        self._lint_findings: "OrderedDict[str, list]" = OrderedDict()
        self._lint_lock = threading.Lock()
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
        return self._compile_keyed(artifact_key(source, name, options),
                                   source, name, options)

    def _compile_keyed(self, key: str, source: str, name: str,
                       options) -> CompileOutcome:
        """:meth:`compile` with the artifact key already hashed."""
        start = time.perf_counter()
        artifact = self.cache.get(key)
        hit = artifact is not None
        if artifact is None:
            artifact, hit = self._compile_deduped(
                key, source, name, options)
        latency = time.perf_counter() - start
        # Only a call that ran the compiler did offline work.  A cache
        # hit's or a joiner's wall clock is time spent on work another
        # request triggered: charge it to the coalesced-wait bucket so
        # the offline latency total scales with compilations, not with
        # traffic.
        self.counts.add("coalesced_wait_s" if hit else "offline_s",
                        latency)
        return CompileOutcome(artifact=artifact, key=key, cache_hit=hit,
                              latency=latency)

    def _compile_deduped(self, key: str, source: str, name: str,
                         options) -> Tuple[OfflineArtifact, bool]:
        """Run (or join) the offline compile for one cache key.

        Returns ``(artifact, joined)`` — ``joined`` is True when this
        call rode another thread's compilation (it triggered no work
        of its own).  The compile runs wherever the pool's executor
        runs offline jobs; the single-flight sits above that seam, so
        a herd ships one job.
        """
        future, joined = self._compiling.fly(
            key,
            peek=lambda: self.cache.peek(key),
            start=lambda: self.pool.executor.offline(source, name,
                                                     options, key),
            store=lambda artifact: self.cache.put(key, artifact))
        if joined:
            self.counts.add("coalesced_requests")
        return future.result(), joined

    def artifact(self, source: str, name: str = "module",
                 **options) -> OfflineArtifact:
        """Drop-in replacement for ``offline_compile`` (cached)."""
        return self.compile(source, name, **options).artifact

    # -- online half --------------------------------------------------------

    def _admit(self, artifact: OfflineArtifact, key: str) -> None:
        """The deploy-time admission gate: verify + lint the artifact
        before any target compiles.  ``error`` findings raise
        :class:`AdmissionError` (the structured diagnostic carries the
        findings); ``warn`` findings are surfaced in
        ``stats()["lint"]["findings"]`` once per artifact ``key`` (a
        direct deployment's is its :func:`artifact_fingerprint`).
        Findings are memoized on the artifact: repeat deployments
        re-check nothing."""
        try:
            findings = check_admission(artifact)
        except AdmissionError:
            self.counts.add("lint_rejections")
            raise
        self._surface(key, findings)

    def _surface(self, key: str, findings) -> None:
        """Record an admitted artifact's warn findings, once per key:
        an artifact evicted and compiled again is the same key."""
        if key in self._lint_findings:
            return
        warns = [f.as_dict() for f in findings if f.severity == "warn"]
        with self._lint_lock:
            self._lint_findings[key] = warns
            while len(self._lint_findings) > self.cache.capacity:
                self._lint_findings.popitem(last=False)

    def deploy(self, artifact: OfflineArtifact, target: Targetish,
               flow="split"):
        """Compile (or reuse) one image for one target (descriptor or
        registered name); the compile runs on the pool's executor
        through the target's backend."""
        self._admit(artifact, artifact_fingerprint(artifact))
        start = time.perf_counter()
        image = self.pool.deploy_one(artifact, target, flow)
        self.counts.add("deploy_s", time.perf_counter() - start)
        return image

    def deploy_many(self, artifact: OfflineArtifact,
                    targets: Sequence[Targetish],
                    flow="split") -> Dict[str, object]:
        """Fan one artifact out over a target catalog (descriptors or
        registered names, mixed freely)."""
        self._admit(artifact, artifact_fingerprint(artifact))
        start = time.perf_counter()
        images = self.pool.deploy_many(artifact, targets, flow)
        self.counts.add("deploy_s", time.perf_counter() - start)
        return images

    # -- batch API ----------------------------------------------------------

    def submit(self, request: CompileRequest) -> DeployResult:
        """Serve one request end to end: cache, then fan-out.

        This is the only implementation of "serve one request", in two
        halves: :meth:`serve_resident` answers a request that costs
        only lookups, and :meth:`serve_blocking` everything else.  The
        async facade runs the first on its event loop and hops to a
        thread only for the second; the serving edge runs the first on
        the connection and queues only a miss for that facade.  The
        flow, the targets and the artifact key are resolved up front,
        once per request (an unknown flow, target or offline option
        raises before anything is counted or compiled), and the flow's
        offline pipeline spec joins the artifact cache key, so flows
        with distinct pipelines get distinct cached artifacts.  With
        ``request.tolerate_failures`` a raising target is recorded on
        its :class:`TargetDeployment` instead of failing the request.
        """
        result = self.serve_resident(request)
        return result if result is not None else \
            self.serve_blocking(request)

    def serve_resident(self, request: CompileRequest) \
            -> Optional[DeployResult]:
        """The half of :meth:`submit` that cannot block: the finished
        result when the artifact is in the memory LRU, has passed the
        admission gate before and every target's image is memoized;
        otherwise ``None``, having counted nothing.

        It never compiles, never reads disk, never waits on a future
        and takes no lock that is held across work, so the async
        facade and the serving edge run it on the event loop.  An
        artifact whose memoized findings hold an error, one only the
        disk still has, and a missing image all answer ``None``:
        :meth:`serve_blocking` raises, revives or compiles, with its
        books."""
        start = time.perf_counter()
        flow, targets = request.resolved()
        key = request.artifact_key()
        artifact = self.cache.peek(key)
        if artifact is None:
            return None
        offline = time.perf_counter() - start
        findings = linted(artifact)
        if findings is None or \
                any(f.severity == "error" for f in findings):
            return None
        images = self.pool.resident(artifact, targets, flow)
        if images is None:
            return None
        self.counts.add("requests")
        self.cache.hit(key)
        self._surface(key, findings)
        self.counts.add("coalesced_wait_s", time.perf_counter() - start)
        outcome = CompileOutcome(artifact=artifact, key=key,
                                 cache_hit=True, latency=offline)
        return self._build_result(
            request, flow, outcome,
            {name: (image, True, None) for name, image in images.items()},
            start)

    def serve_blocking(self, request: CompileRequest) -> DeployResult:
        """The half of :meth:`submit` that may compile, read disk or
        wait on another request's work (it also serves what
        :meth:`serve_resident` would have)."""
        start = time.perf_counter()
        flow, targets = request.resolved()
        self.counts.add("requests")
        outcome = self._compile_keyed(request.artifact_key(),
                                      request.source, request.name,
                                      request.offline_options())
        self._admit(outcome.artifact, outcome.key)
        deploy_start = time.perf_counter()
        futures = self.pool.submit_many(outcome.artifact, targets, flow)
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
        memoized = bool(info) and all(
            reused for _c, reused, _e in info.values())
        self.counts.add("coalesced_wait_s" if memoized else "deploy_s",
                        time.perf_counter() - deploy_start)
        return self._build_result(request, flow, outcome, info, start)

    def submit_batch(self, requests: Iterable[CompileRequest]) \
            -> List[DeployResult]:
        return [self.submit(request) for request in requests]

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
        flow, targets = request.resolved()
        return (
            request.artifact_key(),
            flow.cache_key(),
            tuple(sorted(target.cache_key() for target in targets)),
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

    # -- observability ------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The whole service snapshot as plain JSON-able data (the
        ``service`` section of the edge's ``/stats``, bench output):
        the service's own counts, the cache's and the pool's views."""
        counts = self.counts.snapshot()
        with self._lint_lock:
            findings = [dict(entry) for warns in self._lint_findings.values()
                        for entry in warns]
        return {
            "requests": counts["requests"],
            "coalesced_requests": counts["coalesced_requests"],
            "artifact": self.cache.stats(),
            "deploy": self.pool.stats(),
            "lint": {"findings": findings,
                     "rejections": counts["lint_rejections"]},
            "latency": {"offline_s": counts["offline_s"],
                        "deploy_s": counts["deploy_s"],
                        "coalesced_wait_s": counts["coalesced_wait_s"]},
        }


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
