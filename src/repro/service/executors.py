"""Pluggable deployment executors: where the compilers actually run.

The deployment pool used to *be* a thread pool; this module makes the
execution substrate a first-class, swappable axis — the
:class:`DeployExecutor` protocol — mirroring how flows and targets
became data in earlier redesigns.  An executor runs both halves of a
request's compilation: the offline compile of an artifact
(``offline``) and the JIT of each of its images (``submit``).  Three
implementations ship:

* :class:`ThreadExecutor` — the default: JIT jobs on a shared
  :class:`~concurrent.futures.ThreadPoolExecutor`, the offline compile
  in the calling thread.  Wins by memoization and by overlapping the
  non-Python parts; cold compiles of *distinct* work still serialize
  on the GIL.
* :class:`ProcessExecutor` — a :class:`~concurrent.futures.
  ProcessPoolExecutor`.  The offline compile ships ``(source, name,
  options, key)`` and comes back as the artifact's wire encoding; a
  JIT job ships that encoding plus the (frozen, picklable)
  ``TargetDesc`` and ``Flow`` and comes back as the image.  Both
  expensive halves of a cold request run past the serving process's
  GIL, which keeps lookups, the admission gate and the reply.
* :class:`InlineExecutor` — runs everything synchronously in the
  calling thread and returns already-settled futures.  Fully
  deterministic; the differential suite and unit tests use it to take
  scheduling out of the picture.

Every executor exposes the same ``offline(source, name, options, key)
-> Future`` and ``submit(compile_fn, artifact, target, flow) ->
Future`` surface plus its own counts (``stats()``), which the pool
reports under ``deploy.executors``.  The contract holds on all three:
``offline`` resolves to an artifact whose wire encoding is the one
``offline_compile`` would give, and ``submit`` to exactly the image
``compile_for_target`` built; predecode and tier-2 are built lazily by
the engine that first runs the image, never by the service.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import (
    Future, ProcessPoolExecutor, ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Optional, Tuple, Union

from repro.core.offline import OfflineArtifact, offline_compile
from repro.registry import UnknownNameError
from repro.service.cache import (
    artifact_fingerprint, canonical_options, deserialize_artifact,
    serialize_artifact,
)
from repro.service.singleflight import run_settled
from repro.telemetry import Counters


class UnknownExecutorError(UnknownNameError):
    """A deploy executor name that is not known."""
    what = "executor"


def _build_artifact(source: str, name: str, options,
                    key: str) -> OfflineArtifact:
    """The offline compile of one artifact-cache key."""
    artifact = offline_compile(source, name, **canonical_options(options))
    # Remember the content address so deployment keys line up with the
    # cache key without re-encoding the modules.
    artifact._pvi_fingerprint = key
    return artifact


class DeployExecutor:
    """The protocol a deployment execution substrate must satisfy.

    ``submit`` schedules one JIT compilation and returns a
    :class:`concurrent.futures.Future` resolving to the compiled
    image; ``compile_fn(artifact, target, flow)`` is the pool's
    canonical compile entry point.  ``offline`` schedules one offline
    compile the same way.  Implementations may run either anywhere
    (caller thread, worker thread, worker process) — the service's and
    the deployment pool's in-flight dedup and memoization sit *above*
    this seam, so an executor never sees the same job twice while it
    is in flight.
    """

    #: the name ``as_executor`` resolves (and stats report)
    name = "executor"

    def __init__(self):
        #: JIT jobs ``submitted``, and of those ``completed`` or
        #: ``failed``; the same three for offline jobs, prefixed
        self.counts = Counters(
            "submitted", "completed", "failed", "offline_submitted",
            "offline_completed", "offline_failed")

    def submit(self, compile_fn: Callable, artifact, target,
               flow) -> Future:
        raise NotImplementedError

    def fan_out(self, artifact) -> Callable[..., Future]:
        """The ``submit`` every job of one fan-out of ``artifact``
        goes through (an executor that routes decides once here)."""
        return self.submit

    def offline(self, source: str, name: str, options,
                key: str) -> Future:
        """A future of the artifact ``offline_compile`` builds for
        artifact-cache key ``key``; by default compiled in the calling
        thread."""
        return self._track(
            run_settled(_build_artifact, source, name, options, key),
            "offline_")

    def shutdown(self, wait: bool = True) -> None:
        """Release worker resources (default: nothing to release)."""

    def stats(self) -> Dict[str, object]:
        """The counts, plus the jobs of either kind still in flight."""
        view: Dict[str, object] = {"name": self.name,
                                   **self.counts.snapshot()}
        settled = view["completed"] + view["failed"] + \
            view["offline_completed"] + view["offline_failed"]
        view["in_flight"] = \
            view["submitted"] + view["offline_submitted"] - settled
        return view

    def _track(self, future: Future, kind: str = "", **labels) -> Future:
        """Count one submitted future of ``kind`` (``""`` for a JIT
        job, ``"offline_"``), and its outcome when it settles, under
        ``labels``."""
        self.counts.add(kind + "submitted", **labels)

        def _done(settled: Future) -> None:
            failed = settled.cancelled() or \
                settled.exception() is not None
            self.counts.add(kind + ("failed" if failed else "completed"),
                            **labels)

        future.add_done_callback(_done)
        return future


class InlineExecutor(DeployExecutor):
    """Run compiles synchronously in the submitting thread.

    Deterministic by construction (no scheduler, no worker state), so
    tests and the differential suite can rule out concurrency as a
    variable.
    """

    name = "inline"

    def submit(self, compile_fn: Callable, artifact, target,
               flow) -> Future:
        return self._track(
            run_settled(compile_fn, artifact, target, flow))


class ThreadExecutor(DeployExecutor):
    """The default substrate: a shared thread pool.

    Exactly the behaviour the pool always had — concurrent fan-out,
    GIL-bound cold compiles — now expressed through the protocol.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="pvi-deploy")

    def submit(self, compile_fn: Callable, artifact, target,
               flow) -> Future:
        return self._track(
            self._pool.submit(compile_fn, artifact, target, flow))

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


# ---------------------------------------------------------------------------
# the process executor and its worker half
# ---------------------------------------------------------------------------

#: worker-side artifact cache: fingerprint -> decoded artifact, so one
#: artifact fanned out over many targets is deserialized once per
#: worker, not once per target
_WORKER_ARTIFACTS: "OrderedDict[str, object]" = OrderedDict()
_WORKER_ARTIFACT_CAP = 8


def _worker_init(flows, targets) -> None:
    """Worker bootstrap: replicate the parent's registries.

    ``import repro.targets`` registers the built-in backends (native
    and the wasm32 stack backend); the parent's registered flows and
    targets — both plain frozen dataclasses — are re-registered so a
    compile of a runtime-registered flow/target resolves in the worker
    exactly as it did in the parent.  Required on spawn platforms,
    harmless (idempotent) under fork.
    """
    import repro.targets  # noqa: F401  (registers built-in backends)
    from repro.flows import register_flow
    from repro.targets.registry import register_target
    for flow in flows:
        register_flow(flow, replace=True)
    for target in targets:
        register_target(target, replace=True)


def _keep_in_worker(fingerprint: str, artifact) -> None:
    _WORKER_ARTIFACTS[fingerprint] = artifact
    _WORKER_ARTIFACTS.move_to_end(fingerprint)
    while len(_WORKER_ARTIFACTS) > _WORKER_ARTIFACT_CAP:
        _WORKER_ARTIFACTS.popitem(last=False)


def _offline_in_worker(source: str, name: str, options,
                       key: str) -> bytes:
    """The worker-side offline compile: plain data in, the artifact's
    wire encoding out.  The worker keeps the artifact, so a fan-out
    job that lands on the same worker decodes nothing."""
    artifact = _build_artifact(source, name, options, key)
    _keep_in_worker(key, artifact)
    return serialize_artifact(artifact)


def _compile_in_worker(wire: bytes, fingerprint: str, target, flow):
    """The worker-side compile: bytes in, picklable image out."""
    from repro.core.online import select_bytecode
    from repro.jit import compile_for_target

    artifact = _WORKER_ARTIFACTS.get(fingerprint)
    if artifact is None:
        artifact = deserialize_artifact(wire)
        artifact._pvi_fingerprint = fingerprint
    _keep_in_worker(fingerprint, artifact)
    return compile_for_target(select_bytecode(artifact, flow), target,
                              flow)


#: parent-side wire-encoding cache bound (entries are full artifact
#: encodings — keep the working set, not every artifact ever shipped)
_WIRE_CACHE_CAP = 8


class ProcessExecutor(DeployExecutor):
    """Compile in worker *processes*: cold requests past the GIL.

    Jobs go to a lazily created
    :class:`~concurrent.futures.ProcessPoolExecutor`.  An offline job
    ships ``(source, name, options, key)``; the worker compiles, keeps
    the artifact and returns its wire encoding, which the parent
    decodes — the same round trip a disk-revived artifact makes — and
    keeps, so the fan-out that follows ships those bytes without
    encoding again.  A JIT job ships ``(artifact wire bytes,
    fingerprint, TargetDesc, Flow)`` — all picklable by prior design;
    the worker decodes (once per artifact, cached), compiles through
    the target's registered backend and returns the image.  What the
    serving process pays is one decode per artifact and the pickles.

    ``compile_fn`` is ignored: the compile must be the canonical
    module-level path (a monkeypatched or closure-bound compile cannot
    cross the process seam).  Use :class:`InlineExecutor` or
    :class:`ThreadExecutor` when tests need to intercept the compile.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__()
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        #: fingerprint -> serialized artifact, bounded — one encoding
        #: per in-rotation artifact however many targets it fans out
        #: to, without pinning wire bytes onto long-lived artifacts
        self._wires: "OrderedDict[str, bytes]" = OrderedDict()
        self._wire_lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                from repro.flows import registered_flows
                from repro.targets.registry import registered_targets
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_worker_init,
                    initargs=(registered_flows(), registered_targets()))
            return self._pool

    def _discard_broken(self, pool: ProcessPoolExecutor) -> None:
        """One dead worker breaks a ``ProcessPoolExecutor`` for good:
        forget it, so the next job starts a fresh pool and the loss
        stays with the jobs that were in flight.

        Only the reference is dropped.  A broken pool has already
        terminated its workers and joined its queues, and this runs
        inside a done callback that Python >= 3.12 invokes under the
        pool's shutdown lock — ``pool.shutdown()`` here would
        deadlock."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None

    def _wire_for(self, artifact) -> Tuple[bytes, str]:
        fingerprint = artifact_fingerprint(artifact)
        with self._wire_lock:
            wire = self._wires.get(fingerprint)
            if wire is not None:
                self._wires.move_to_end(fingerprint)
                return wire, fingerprint
        wire = serialize_artifact(artifact)
        self._keep_wire(fingerprint, wire)
        return wire, fingerprint

    def _keep_wire(self, fingerprint: str, wire: bytes) -> None:
        with self._wire_lock:
            self._wires[fingerprint] = wire
            self._wires.move_to_end(fingerprint)
            while len(self._wires) > _WIRE_CACHE_CAP:
                self._wires.popitem(last=False)

    def _run(self, fn: Callable, *args) -> Future:
        """``fn(*args)`` in a worker; a pool a dead worker broke is
        dropped as soon as a job reports it."""
        pool = self._ensure_pool()
        try:
            future = pool.submit(fn, *args)
        except BrokenProcessPool:
            self._discard_broken(pool)
            raise

        def _settled(done: Future) -> None:
            if not done.cancelled() and \
                    isinstance(done.exception(), BrokenProcessPool):
                self._discard_broken(pool)

        future.add_done_callback(_settled)
        return future

    def submit(self, compile_fn: Callable, artifact, target,
               flow) -> Future:
        wire, fingerprint = self._wire_for(artifact)
        return self._track(self._run(_compile_in_worker, wire,
                                     fingerprint, target, flow))

    def offline(self, source: str, name: str, options,
                key: str) -> Future:
        shipped = self._run(_offline_in_worker, source, name, options,
                            key)
        future: Future = Future()
        future.set_running_or_notify_cancel()

        def _landed(done: Future) -> None:
            # Runs on the pool's result thread, after ``_settled``.  The
            # caller's future settles whatever happened, a cancelled
            # job (``CancelledError``, a BaseException) included.
            try:
                wire = done.result()
                artifact = deserialize_artifact(wire)
            except BaseException as exc:
                future.set_exception(exc)
                return
            artifact._pvi_fingerprint = key
            self._keep_wire(key, wire)
            future.set_result(artifact)

        shipped.add_done_callback(_landed)
        return self._track(future, "offline_")

    def shutdown(self, wait: bool = True) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        with self._wire_lock:
            self._wires.clear()
        if pool is not None:
            pool.shutdown(wait=wait)


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

#: name -> factory of a default-configured executor
EXECUTOR_FACTORIES: Dict[str, Callable[..., DeployExecutor]] = {
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
    InlineExecutor.name: InlineExecutor,
}

Executorish = Union[None, str, DeployExecutor]


def executor_names() -> Tuple[str, ...]:
    return tuple(EXECUTOR_FACTORIES)


def as_executor(executor: Executorish = None) -> DeployExecutor:
    """Resolve an executor argument: ``None`` (default thread pool),
    a known name, or a :class:`DeployExecutor` instance passed
    through unchanged (the way to hand the pool a sized
    :class:`ThreadExecutor` or :class:`ProcessExecutor`)."""
    if executor is None:
        return ThreadExecutor()
    if isinstance(executor, DeployExecutor):
        return executor
    factory = EXECUTOR_FACTORIES.get(executor) \
        if isinstance(executor, str) else None
    if factory is None:
        raise UnknownExecutorError(executor, executor_names())
    return factory()
