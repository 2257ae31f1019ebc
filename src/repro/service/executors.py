"""Pluggable deployment executors: where a JIT compile actually runs.

The deployment pool used to *be* a thread pool; this module makes the
execution substrate a first-class, swappable axis — the
:class:`DeployExecutor` protocol — mirroring how flows and targets
became data in earlier redesigns.  Three implementations ship:

* :class:`ThreadExecutor` — today's behaviour and the default: a
  shared :class:`~concurrent.futures.ThreadPoolExecutor`.  Wins by
  memoization and by overlapping the non-Python parts; cold compiles
  of *distinct* triples still serialize on the GIL.
* :class:`ProcessExecutor` — a :class:`~concurrent.futures.
  ProcessPoolExecutor` that ships the pickled artifact wire encoding
  plus the (frozen, picklable) ``TargetDesc`` and ``Flow`` across the
  process seam and compiles in the worker.  This is the one that
  parallelizes *cold* JIT fan-out past the GIL — the process-level
  parallelism the roadmap queued once ``Flow``/``PipelineSpec``/
  ``JITOptions`` (PR 2) and ``TargetDesc`` (PR 4) became picklable.
* :class:`InlineExecutor` — runs the compile synchronously in the
  calling thread and returns an already-settled future.  Fully
  deterministic; the differential suite and unit tests use it to take
  scheduling out of the picture.

Every executor exposes the same ``submit(compile_fn, artifact,
target, flow) -> Future`` surface plus its own counts (``stats()``),
which the pool reports under ``deploy.executors``.  The contract
holds on all three: the future resolves to exactly the image
``compile_for_target`` built; predecode and tier-2 are built lazily
by the engine that first runs the image, never by the service.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import (
    Future, ProcessPoolExecutor, ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Optional, Tuple, Union

from repro.service.singleflight import run_settled
from repro.telemetry import Counters


class UnknownExecutorError(KeyError, ValueError):
    """Raised when a deployment executor name is not registered;
    the message lists what *is* (matching ``UnknownFlowError`` /
    ``UnknownTargetError`` ergonomics)."""

    def __init__(self, name: object, known: Tuple[str, ...]):
        self.executor_name = name
        self.known = known
        message = (f"unknown deploy executor {name!r}; available "
                   f"executors: {', '.join(known) if known else '(none)'}")
        ValueError.__init__(self, message)

    def __str__(self) -> str:          # KeyError would repr() the args
        return self.args[0]


class DeployExecutor:
    """The protocol a deployment execution substrate must satisfy.

    ``submit`` schedules one JIT compilation and returns a
    :class:`concurrent.futures.Future` resolving to the compiled
    image; ``compile_fn(artifact, target, flow)`` is the pool's
    canonical compile entry point.  Implementations may run it
    anywhere (caller thread, worker thread, worker process) — the
    deployment pool's in-flight dedup and memoization sit *above*
    this seam, so an executor never sees the same triple twice while
    a compile is in flight.
    """

    #: the name ``as_executor`` resolves (and stats report)
    name = "executor"

    def __init__(self):
        #: jobs ``submitted``, and of those ``completed`` or ``failed``
        self.counts = Counters("submitted", "completed", "failed")

    def submit(self, compile_fn: Callable, artifact, target,
               flow) -> Future:
        raise NotImplementedError

    def shutdown(self, wait: bool = True) -> None:
        """Release worker resources (default: nothing to release)."""

    def stats(self) -> Dict[str, object]:
        """The counts, plus the jobs still in flight."""
        view: Dict[str, object] = {"name": self.name,
                                   **self.counts.snapshot()}
        view["in_flight"] = \
            view["submitted"] - view["completed"] - view["failed"]
        return view

    def _track(self, future: Future, **labels) -> Future:
        """Count one submitted future, and its outcome when it
        settles, under ``labels``."""
        self.counts.add("submitted", **labels)

        def _done(settled: Future) -> None:
            failed = settled.cancelled() or \
                settled.exception() is not None
            self.counts.add("failed" if failed else "completed", **labels)

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


def _compile_in_worker(wire: bytes, fingerprint: str, target, flow):
    """The worker-side compile: bytes in, picklable image out."""
    from repro.core.online import select_bytecode
    from repro.jit import compile_for_target
    from repro.service.cache import deserialize_artifact

    artifact = _WORKER_ARTIFACTS.get(fingerprint)
    if artifact is None:
        artifact = deserialize_artifact(wire)
        artifact._pvi_fingerprint = fingerprint
        _WORKER_ARTIFACTS[fingerprint] = artifact
        while len(_WORKER_ARTIFACTS) > _WORKER_ARTIFACT_CAP:
            _WORKER_ARTIFACTS.popitem(last=False)
    else:
        _WORKER_ARTIFACTS.move_to_end(fingerprint)
    return compile_for_target(select_bytecode(artifact, flow), target,
                              flow)


#: parent-side wire-encoding cache bound (entries are full artifact
#: encodings — keep the working set, not every artifact ever shipped)
_WIRE_CACHE_CAP = 8


class ProcessExecutor(DeployExecutor):
    """Compile in worker *processes*: cold fan-out past the GIL.

    Each job ships ``(artifact wire bytes, fingerprint, TargetDesc,
    Flow)`` — all picklable by prior design — to a lazily created
    :class:`~concurrent.futures.ProcessPoolExecutor`; the worker
    decodes (once per artifact, cached), compiles through the target's
    registered backend and returns the image.  The seam's toll is
    serialize + pickle, nothing else.

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
        forget it, so the next submit starts a fresh pool and the loss
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
        from repro.service.cache import (
            artifact_fingerprint, serialize_artifact,
        )
        fingerprint = artifact_fingerprint(artifact)
        with self._wire_lock:
            wire = self._wires.get(fingerprint)
            if wire is not None:
                self._wires.move_to_end(fingerprint)
                return wire, fingerprint
        wire = serialize_artifact(artifact)
        with self._wire_lock:
            self._wires[fingerprint] = wire
            while len(self._wires) > _WIRE_CACHE_CAP:
                self._wires.popitem(last=False)
        return wire, fingerprint

    def submit(self, compile_fn: Callable, artifact, target,
               flow) -> Future:
        pool = self._ensure_pool()
        wire, fingerprint = self._wire_for(artifact)
        try:
            future = pool.submit(_compile_in_worker, wire, fingerprint,
                                 target, flow)
        except BrokenProcessPool:
            self._discard_broken(pool)
            raise

        def _settled(done: Future) -> None:
            if not done.cancelled() and \
                    isinstance(done.exception(), BrokenProcessPool):
                self._discard_broken(pool)

        future.add_done_callback(_settled)
        return self._track(future)

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
