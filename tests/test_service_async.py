"""The service API v2 surface: executor backends, the async facade,
herd economics and failure accounting.

The redesign's contract is that *where* a compile runs (inline,
thread pool, worker processes) and *how* a caller waits (blocking or
``await``) are orthogonal to what gets compiled: every executor and
both facades must produce byte-for-byte identical images and modeled
numbers.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import copy
import json
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bytecode.varint import read_bytes
from repro.core import deploy, offline_compile
from repro.engine import osr_enabled, osr_threshold
from repro.flows import as_flow
from repro.semantics import Memory
from repro.service import (
    AsyncCompilationService, CompilationService, CompileRequest,
    DeploymentPool, InlineExecutor, ProcessExecutor, ThreadExecutor,
    UnknownExecutorError, as_executor, executor_names, serialize_artifact,
)
from repro.service.cache import ARTIFACT_MAGIC
from repro.service.edge.routing import AdaptiveExecutor
from repro.service.edge.wire import deploy_result_wire
from repro.targets import X86, executor_for
from repro.targets.catalog import TARGETS
from repro.workloads import REGALLOC_CORPUS, TABLE1
from tests.support import timeless

SAXPY = TABLE1["saxpy_fp"].source
SUM_U8 = TABLE1["sum_u8"].source
EXECUTOR_NAMES = ("inline", "thread", "process")


def simulate(kernel_name: str, compiled, n: int = 48, seed: int = 7,
             engine=None):
    kernel = TABLE1[kernel_name]
    memory = Memory(1 << 21)
    run = kernel.prepare(memory, n, seed)
    result = executor_for(compiled, memory, engine=engine).run(
        kernel.entry, run.args)
    outputs = [memory.read_array(t, addr, count)
               for t, addr, count in run.outputs]
    return (repr(result.value), [repr(o) for o in outputs],
            result.cycles, result.instructions)


def code_of(image):
    return [repr(inst) for f in image.functions.values()
            for inst in f.code]


def predecoded(image):
    """Names of the functions carrying an engine predecode (a stack
    image runs its bytecode module's functions)."""
    holder = getattr(image, "module", image)
    return [func.name for func in holder.functions.values()
            if getattr(func, "_predecode_cache", None) is not None]


def run_builds(image):
    """Run ``image`` once at ``n = 4096``; the tier-2 builds that run
    paid in-request, per engine."""
    from repro.targets.dispatch import tier2_build_stats as machine
    from repro.vm.threaded import tier2_build_stats as vm

    before = machine()["request"], vm()["request"]
    simulate("saxpy_fp", image, n=4096, engine="fast")
    return (machine()["request"] - before[0],
            vm()["request"] - before[1])


def promoting_run(image, limit: int = 40):
    """``(k, builds)``: which of the next runs of ``image`` (1-based)
    pays a tier-2 build in-request, and what it built per engine —
    the loop is promoted once its runs have added up to the build's
    payback.  ``(None, (0, 0))`` when ``limit`` runs build nothing."""
    for k in range(1, limit + 1):
        builds = run_builds(image)
        if any(builds):
            return k, builds
    return None, (0, 0)


# ---------------------------------------------------------------------------
# executor resolution
# ---------------------------------------------------------------------------

class TestExecutorResolution:
    def test_names(self):
        assert set(EXECUTOR_NAMES) <= set(executor_names())

    def test_default_is_thread(self):
        executor = as_executor(None)
        try:
            assert isinstance(executor, ThreadExecutor)
        finally:
            executor.shutdown()

    def test_instance_passes_through(self):
        executor = InlineExecutor()
        assert as_executor(executor) is executor

    def test_unknown_name_rejected_with_catalog(self):
        with pytest.raises(UnknownExecutorError) as err:
            as_executor("quantum")
        message = str(err.value)
        assert "quantum" in message
        for name in EXECUTOR_NAMES:
            assert name in message
        # unified ergonomics: both KeyError and ValueError callers work
        assert isinstance(err.value, KeyError)
        assert isinstance(err.value, ValueError)

    def test_pool_accepts_name_and_instance(self):
        pool = DeploymentPool(executor="inline")
        try:
            assert isinstance(pool.executor, InlineExecutor)
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# the three executors serve identical deployments
# ---------------------------------------------------------------------------

class TestExecutorEquivalence:
    @pytest.fixture(scope="class")
    def baseline(self):
        """Fresh serviceless JITs: the oracle every executor must hit."""
        svc = CompilationService(executor="inline")
        try:
            artifact = svc.artifact(SAXPY, "k")
        finally:
            svc.shutdown()
        return {
            target.name: deploy(artifact, target, "split")
            for target in TARGETS.values()}

    @pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
    def test_identical_images_and_modeled_numbers(self, executor_name,
                                                  baseline):
        svc = CompilationService(executor=executor_name)
        try:
            artifact = svc.artifact(SAXPY, "k")
            images = svc.deploy_many(artifact, list(TARGETS.values()),
                                     "split")
            assert sorted(images) == sorted(TARGETS)
            for name, image in images.items():
                reference = baseline[name]
                assert code_of(image) == code_of(reference)
                assert predecoded(image) == []
                assert image.total_code_bytes == \
                    reference.total_code_bytes
                assert image.total_jit_work == reference.total_jit_work
                assert simulate("saxpy_fp", image) == \
                    simulate("saxpy_fp", reference)
            stats = svc.stats()
            assert stats["deploy"]["compiles"] == len(TARGETS)
            executor_stats = stats["deploy"]["executors"][executor_name]
            assert executor_stats["submitted"] == len(TARGETS)
            assert executor_stats["failed"] == 0
        finally:
            svc.shutdown()

    @pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
    def test_memo_and_stats_behave_identically(self, executor_name):
        svc = CompilationService(executor=executor_name)
        try:
            artifact = svc.artifact(SUM_U8, "k")
            first = svc.deploy(artifact, X86, "split")
            assert svc.deploy(artifact, X86, "split") is first
            stats = svc.stats()
            assert stats["deploy"]["compiles"] == 1
            assert stats["deploy"]["memo_hits"] == 1
        finally:
            svc.shutdown()

    @pytest.mark.parametrize("target_name", ["x86", "wasm32"])
    @pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
    def test_engine_not_service_builds_predecode(self, executor_name,
                                                 target_name):
        """The executor contract: the future holds exactly what the
        JIT built, so the first run of the image builds predecode
        in-request and the k-th builds tier-2 (once the loop has
        repaid it) — the same k, by the same amount, on every
        substrate."""
        svc = CompilationService(executor=executor_name)
        try:
            artifact = svc.artifact(SAXPY, "k")
            # the serviceless JIT's oracle gets its own artifact: a
            # stack image runs the artifact's own bytecode functions
            fresh = copy.deepcopy(artifact)
            image = svc.deploy(artifact, target_name, "split")
            assert predecoded(image) == []
            first = run_builds(image)
            assert predecoded(image) != []
            oracle = deploy(fresh, target_name, "split")
            assert first == run_builds(oracle)
            k, later = promoting_run(image)
            assert (k, later) == promoting_run(oracle)
            # one loop, one OSR promotion (none under PVI_OSR=0), on
            # one run: the runs after it enter what it built
            assert sum(first) + sum(later) == int(osr_enabled())
            if osr_enabled() and osr_threshold()[1]:
                assert k is not None and not any(first), \
                    "one n = 4096 run does not repay a build"
            assert run_builds(image) == (0, 0)
        finally:
            svc.shutdown()

    @pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
    def test_compile_error_is_the_futures_exception(self, executor_name):
        """A compile that raises — in the caller, a thread or a worker
        process — arrives through the future and counts as failed."""
        from repro.jit.frontend import FrontendError

        malformed = offline_compile(SUM_U8)
        for module in (malformed.bytecode, malformed.scalar_bytecode):
            for func in module.functions.values():
                func.code.pop()                   # drop the final ret
        executor = as_executor(executor_name)
        try:
            future = executor.submit(DeploymentPool._compile, malformed,
                                     X86, as_flow("split"))
            assert isinstance(future.exception(timeout=60),
                              FrontendError)
            assert executor.stats()["failed"] == 1
            assert executor.stats()["in_flight"] == 0
        finally:
            executor.shutdown()

    @pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
    def test_shutdown_settles_the_job_in_flight(self, executor_name):
        artifact = offline_compile(SAXPY)
        executor = as_executor(executor_name)
        future = executor.submit(DeploymentPool._compile, artifact, X86,
                                 as_flow("split"))
        executor.shutdown(wait=True)
        assert future.done()
        assert code_of(future.result()) == \
            code_of(deploy(artifact, X86, "split"))
        assert executor.stats()["in_flight"] == 0

    def test_process_executor_reuses_decoded_artifact(self):
        """Fan-out through worker processes: one artifact, many
        targets, every image correct (the worker-side artifact
        cache)."""
        svc = CompilationService(executor=ProcessExecutor(max_workers=1))
        try:
            artifact = svc.artifact(SAXPY, "k")
            images = svc.deploy_many(
                artifact, list(TARGETS.values()), "split")
            values = {simulate("saxpy_fp", image)[0]
                      for image in images.values()}
            assert len(values) == 1
        finally:
            svc.shutdown()

    def test_process_executor_survives_a_killed_worker(self):
        """One dead worker breaks a ``ProcessPoolExecutor`` for good;
        the executor must drop it, so only the jobs that were in
        flight are lost and the next deploy gets a fresh pool."""
        executor = ProcessExecutor(max_workers=1)
        svc = CompilationService(executor=executor)
        try:
            before = set(multiprocessing.active_children())
            # the offline compile is the worker's first job
            artifact = svc.artifact(SAXPY, "k")
            (worker,) = set(multiprocessing.active_children()) - before
            svc.deploy(artifact, X86, "split")
            others = [t for t in TARGETS.values() if t is not X86]
            pending = svc.pool.submit_many(artifact, others, "split")
            os.kill(worker.pid, signal.SIGKILL)
            lost = [name for name, (future, _) in pending.items()
                    if isinstance(future.exception(timeout=60),
                                  BrokenProcessPool)]
            assert lost, "no queued job was lost to the kill"
            assert executor.stats()["failed"] == len(lost)
            assert executor.stats()["in_flight"] == 0
            # a failure is never memoized: the same triple re-runs,
            # on a fresh pool
            image = svc.deploy(artifact, lost[0], "split")
            assert code_of(image) == \
                code_of(deploy(artifact, lost[0], "split"))
            assert executor.stats()["in_flight"] == 0
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# the offline compile as an executor job
# ---------------------------------------------------------------------------

OFFLINE_CORPUS = {"saxpy": SAXPY, **REGALLOC_CORPUS}


def _timeless_wire(artifact):
    """The artifact's wire encoding, with the sidecar's wall-clock
    fields (the one thing two compiles of a source differ in) zeroed:
    (sidecar, module bytes)."""
    raw = serialize_artifact(artifact)
    sidecar, pos = read_bytes(raw, len(ARTIFACT_MAGIC))
    meta = json.loads(sidecar)
    meta["offline_time"] = 0.0
    for row in meta["per_pass"].values():
        row["time"] = 0.0
    return meta, raw[pos:]


def _books(stats):
    """``stats()`` without the latency floats and with the one
    executor's counts under a name that does not depend on it."""
    stats = copy.deepcopy(stats)
    del stats["latency"]
    (executor,) = stats["deploy"].pop("executors").values()
    del executor["name"]
    stats["deploy"]["executor"] = executor
    return stats


class TestOfflineSeam:
    def _serve_corpus(self, executor):
        svc = CompilationService(executor=executor)
        try:
            served = {}
            for name, source in OFFLINE_CORPUS.items():
                result = svc.submit(CompileRequest(
                    source=source, name=name,
                    targets=["x86", "arm", "dsp"]))
                artifact = svc.cache.peek(result.artifact_key)
                served[name] = (
                    _timeless_wire(artifact),
                    result.offline_pass_work,
                    {target: code_of(deployment.compiled)
                     for target, deployment in
                     result.deployments.items()})
            return served, _books(svc.stats())
        finally:
            svc.shutdown()

    def test_process_route_serves_what_inline_serves(self):
        """The artifact a worker compiled and the parent decoded is
        the one the calling thread compiles: same wire bytes, same
        per-pass work, same images, same books."""
        inline = self._serve_corpus("inline")
        routed = self._serve_corpus(AdaptiveExecutor("process", "thread"))
        assert routed == inline
        executor = routed[1]["deploy"]["executor"]
        assert executor["offline_submitted"] == len(OFFLINE_CORPUS)
        assert executor["in_flight"] == 0

    def test_a_herd_ships_one_offline_job(self):
        """N identical concurrent cold requests: the single-flight sits
        above the seam, so one offline job crosses it."""
        executor = ProcessExecutor(max_workers=1)
        svc = CompilationService(executor=executor)
        request = CompileRequest(source=SAXPY, name="herd",
                                 targets=[X86])
        herd = 6
        barrier = threading.Barrier(herd)

        def one(_):
            barrier.wait()
            return svc.submit(request)

        try:
            with concurrent.futures.ThreadPoolExecutor(herd) as callers:
                results = list(callers.map(one, range(herd)))
            stats = executor.stats()
            assert stats["offline_submitted"] == 1
            assert stats["offline_completed"] == 1
            assert stats["submitted"] == 1
            assert sum(not r.artifact_cache_hit for r in results) == 1
            assert len({tuple(code_of(r.image_for("x86")))
                        for r in results}) == 1
            assert svc.stats()["artifact"]["stores"] == 1
        finally:
            svc.shutdown()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stalled compile is patched in before "
                               "the worker forks")
    def test_a_worker_killed_mid_offline_fails_only_that_request(
            self, tmp_path, monkeypatch):
        """Kill the worker while it runs an offline compile: that
        request fails with the broken pool, no flight is left behind,
        and the same request then succeeds on a fresh pool."""
        from repro.service import executors

        started = tmp_path / "started"
        real = executors.offline_compile

        def stall(source, name="module", **options):
            started.touch()
            time.sleep(60)

        monkeypatch.setattr(executors, "offline_compile", stall)
        executor = ProcessExecutor(max_workers=1)
        svc = CompilationService(executor=executor)
        request = CompileRequest(source=SAXPY, name="k", targets=[X86])
        try:
            before = set(multiprocessing.active_children())
            with concurrent.futures.ThreadPoolExecutor(1) as caller:
                doomed = caller.submit(svc.submit, request)
                deadline = time.monotonic() + 60
                while not started.exists():
                    assert time.monotonic() < deadline, "never started"
                    time.sleep(0.01)
                (worker,) = set(multiprocessing.active_children()) - before
                os.kill(worker.pid, signal.SIGKILL)
                with pytest.raises(BrokenProcessPool):
                    doomed.result(timeout=60)
            assert svc._compiling._flights == {}
            assert executor.stats()["offline_failed"] == 1
            assert executor.stats()["in_flight"] == 0
            # the fresh pool forks with the real compiler
            monkeypatch.setattr(executors, "offline_compile", real)
            result = svc.submit(request)
            assert not result.artifact_cache_hit
            assert code_of(result.image_for("x86")) == \
                code_of(deploy(offline_compile(SAXPY, "k"), X86, "split"))
            assert executor.stats()["in_flight"] == 0
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# failure accounting (the fully_cached fix)
# ---------------------------------------------------------------------------

class TestFailureAccounting:
    def _flaky_service(self, fail_times: int):
        svc = CompilationService(executor="inline")
        original = svc.pool._compile
        calls = []

        def flaky(artifact, target, flow):
            calls.append(target.name)
            if len(calls) <= fail_times:
                raise MemoryError("transient JIT failure")
            return original(artifact, target, flow)

        svc.pool._compile = flaky
        return svc, calls

    def test_strict_request_still_raises(self):
        svc, _ = self._flaky_service(fail_times=1)
        try:
            with pytest.raises(MemoryError):
                svc.submit(CompileRequest(source=SAXPY, name="m",
                                          targets=[X86]))
        finally:
            svc.shutdown()

    def test_errored_target_is_never_fully_cached(self):
        svc, calls = self._flaky_service(fail_times=1)
        try:
            request = CompileRequest(source=SAXPY, name="m",
                                     targets=[X86],
                                     tolerate_failures=True)
            failed = svc.submit(request)
            assert failed.failed_targets == ["x86"]
            assert isinstance(failed.errors["x86"], MemoryError)
            assert not failed.deployments["x86"].ok
            # the satellite fix: an errored deployment must not
            # report fully cached, whatever the artifact cache said
            assert failed.artifact_cache_hit is False
            assert not failed.fully_cached
            again = svc.submit(request)
            assert again.artifact_cache_hit          # artifact cached
            assert again.deployments["x86"].ok       # retry succeeded
            assert not again.fully_cached            # ...but it JITted
            # only a third submit is a pure memo hit
            assert svc.submit(request).fully_cached
        finally:
            svc.shutdown()

    def test_image_for_reraises_recorded_error(self):
        svc, _ = self._flaky_service(fail_times=1)
        try:
            result = svc.submit(CompileRequest(
                source=SAXPY, name="m", targets=[X86],
                tolerate_failures=True))
            with pytest.raises(MemoryError):
                result.image_for("x86")
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# the async facade
# ---------------------------------------------------------------------------

CATALOG = list(TARGETS.values())


class TestAsyncFacade:
    def test_submit_matches_sync_submit(self):
        sync = CompilationService(executor="inline")
        request = CompileRequest(source=SAXPY, name="m",
                                 targets=CATALOG)
        sync_result = sync.submit(request)

        async def main():
            async with AsyncCompilationService(executor="inline") \
                    as service:
                return await service.submit(request)

        async_result = asyncio.run(main())
        sync.shutdown()
        assert sorted(async_result.target_names) == \
            sorted(sync_result.target_names)
        for name in async_result.target_names:
            assert code_of(async_result.image_for(name)) == \
                code_of(sync_result.image_for(name))
            assert simulate("saxpy_fp", async_result.image_for(name)) \
                == simulate("saxpy_fp", sync_result.image_for(name))

    def test_submit_is_the_request_verb(self):
        """``submit`` serves a request on both facades; ``deploy``
        builds one image on the sync one and is not a second name for
        ``submit`` on the async one."""
        async def main():
            async with AsyncCompilationService(executor="inline") \
                    as service:
                result = await service.submit(CompileRequest(
                    source=SUM_U8, name="m", targets=[X86]))
                return result

        result = asyncio.run(main())
        assert result.target_names == ["x86"]
        assert not hasattr(AsyncCompilationService, "deploy")

    def test_batch_gather_and_full_caching(self):
        requests = [CompileRequest(source=SAXPY, name="m",
                                   targets=CATALOG),
                    CompileRequest(source=SUM_U8, name="m2",
                                   targets=[X86])]

        async def main():
            async with AsyncCompilationService() as service:
                first = await service.submit_batch(requests)
                second = await service.submit_batch(requests)
                return first, second, service.stats()

        first, second, stats = asyncio.run(main())
        assert [r.fully_cached for r in first] == [False, False]
        assert [r.fully_cached for r in second] == [True, True]
        assert stats["requests"] == 4
        assert stats["deploy"]["compiles"] == len(CATALOG) + 1

    def test_concurrent_identical_requests_coalesce(self):
        request = CompileRequest(source=SAXPY, name="m",
                                 targets=CATALOG)

        async def main():
            async with AsyncCompilationService() as service:
                results = await asyncio.gather(
                    *(service.submit(request) for _ in range(8)))
                return results, service.stats()

        results, stats = asyncio.run(main())
        # every caller is a request of its own...
        assert stats["requests"] == 8
        # ...and the core made the herd cost one offline compile and
        # one JIT per target
        assert stats["artifact"]["stores"] == 1
        assert stats["deploy"]["compiles"] == len(CATALOG)
        for target in TARGETS:
            assert len({id(r.image_for(target)) for r in results}) == 1

    def test_facade_parity(self, tmp_path):
        """One request path, the same books however it is entered: a
        sequence through the async facade (whose resident requests
        never leave the loop), through sync ``submit`` on a thread and
        through ``serve_blocking`` alone (every request on the full
        path) yields the same results, the same wire bodies and the
        same ``stats()`` after every step — wall clocks aside."""
        def flaky_core(persist_dir):
            core = CompilationService(executor="inline",
                                      persist_dir=persist_dir)
            original = core.pool._compile

            def flaky(artifact, target, flow):
                if artifact.name == "bad" and target.name == "arm":
                    raise MemoryError("JIT fails for bad on arm")
                return original(artifact, target, flow)

            core.pool._compile = flaky
            return core

        warm = CompileRequest(source=SAXPY, name="m",
                              targets=["x86", "arm", "dsp"])
        tolerant = CompileRequest(source=SAXPY, name="bad",
                                  targets=CATALOG, tolerate_failures=True)
        sequence = [
            warm,                                               # cold
            warm,                                               # warm
            CompileRequest(source=SAXPY, name="m",              # + ppc
                           targets=["x86", "arm", "dsp", "ppc"]),
            CompileRequest(source=SUM_U8, name="m2", targets=[X86],
                           flow="online-only"),
            tolerant,
            tolerant,               # resident artifact, missing image
            CompileRequest(source=SAXPY, name="bad", targets=CATALOG),
            "evict",
            warm,                                       # disk revival
            warm,
            CompileRequest(source=SAXPY, name="m", targets=[X86],
                           flow="no-such-flow"),
        ]

        def observe(core, outcome):
            stats = core.stats()
            del stats["latency"]            # wall clock, not behaviour
            if isinstance(outcome, BaseException):
                return type(outcome), stats
            return (timeless(deploy_result_wire(outcome)),
                    {name: d.compiled and code_of(d.compiled)
                     for name, d in outcome.deployments.items()}, stats)

        def run_sync(method):
            core = flaky_core(tmp_path / method)
            serve = getattr(core, method)
            seen = []
            for request in sequence:
                if request == "evict":
                    core.cache.clear()
                    continue
                try:
                    outcome = serve(request)
                except Exception as exc:
                    outcome = exc
                seen.append(observe(core, outcome))
            core.shutdown()
            return seen

        async def run_async():
            core = flaky_core(tmp_path / "async")
            seen = []
            async with AsyncCompilationService(core) as service:
                for request in sequence:
                    if request == "evict":
                        core.cache.clear()
                        continue
                    try:
                        outcome = await service.submit(request)
                    except Exception as exc:
                        outcome = exc
                    seen.append(observe(core, outcome))
            core.shutdown()
            return seen

        with concurrent.futures.ThreadPoolExecutor(1) as thread:
            full_seen = thread.submit(run_sync, "serve_blocking") \
                .result(timeout=300)
            sync_seen = thread.submit(run_sync, "submit").result(timeout=300)
        assert asyncio.run(run_async()) == sync_seen == full_seen
        # the sequence did exercise every outcome kind
        wire = [entry[0] for entry in sync_seen]
        assert not wire[0]["fully_cached"] and wire[1]["fully_cached"]
        assert [wire[2]["deployments"][t]["memo_hit"]
                for t in ("x86", "ppc")] == [True, False]
        for tolerated in wire[4:6]:
            assert tolerated["deployments"]["arm"]["error"]["type"] == \
                "MemoryError"
        assert wire[6] is MemoryError
        assert wire[7]["fully_cached"] and wire[8]["fully_cached"]
        assert sync_seen[7][2]["artifact"]["disk_hits"] == 1
        assert issubclass(wire[9], ValueError)

    def test_deploy_one_and_many_await_pool_futures(self):
        async def main():
            async with AsyncCompilationService(executor="inline") \
                    as service:
                artifact = await service.artifact(SAXPY, "k")
                one = await service.deploy_one(artifact, X86, "split")
                many = await service.deploy_many(artifact, CATALOG,
                                                 "split")
                return one, many

        one, many = asyncio.run(main())
        assert many["x86"] is one          # memoized across awaits
        assert sorted(many) == sorted(TARGETS)

    def test_wraps_existing_service_and_shares_caches(self):
        core = CompilationService(executor="inline")
        try:
            warm = core.submit(CompileRequest(source=SAXPY, name="m",
                                              targets=[X86]))

            async def main():
                async with AsyncCompilationService(core) as service:
                    return await service.submit(CompileRequest(
                        source=SAXPY, name="m", targets=[X86]))

            result = asyncio.run(main())
            assert result.fully_cached
            assert result.image_for("x86") is warm.image_for("x86")
            # wrapping must not shut the caller's core down
            assert core.submit(CompileRequest(
                source=SAXPY, name="m", targets=[X86])).fully_cached
        finally:
            core.shutdown()

    def test_async_tolerates_failures_like_sync(self):
        core = CompilationService(executor="inline")
        original = core.pool._compile
        calls = []

        def flaky(artifact, target, flow):
            calls.append(target.name)
            if len(calls) == 1:
                raise MemoryError("transient JIT failure")
            return original(artifact, target, flow)

        core.pool._compile = flaky

        async def main():
            async with AsyncCompilationService(core) as service:
                result = await service.submit(CompileRequest(
                    source=SAXPY, name="m", targets=[X86],
                    tolerate_failures=True))
                retry = await service.submit(CompileRequest(
                    source=SAXPY, name="m", targets=[X86],
                    tolerate_failures=True))
                return result, retry

        result, retry = asyncio.run(main())
        core.shutdown()
        assert result.failed_targets == ["x86"]
        assert not result.fully_cached
        assert retry.deployments["x86"].ok

    def test_stats_as_dict_shape(self):
        async def main():
            async with AsyncCompilationService() as service:
                await service.submit(CompileRequest(
                    source=SAXPY, name="m", targets=[X86]))
                return service.stats()

        snapshot = asyncio.run(main())
        assert snapshot["requests"] == 1
        assert "shards" not in snapshot["artifact"]
        assert "thread" in snapshot["deploy"]["executors"]
        assert snapshot["deploy"]["compiles"] == 1
        assert snapshot["latency"]["offline_s"] > 0


class TestAsyncDeployHelper:
    def test_core_online_deploy_async(self):
        from repro.core.online import deploy_async

        core = CompilationService(executor="inline")
        try:
            artifact = core.artifact(SAXPY, "k")

            async def main():
                return await deploy_async(artifact, X86, "split",
                                          service=core)

            image = asyncio.run(main())
            assert image is core.deploy(artifact, X86, "split")
        finally:
            core.shutdown()

    def test_core_online_deploy_of_bytecode(self):
        """A bytecode module, not an artifact: no service, the JIT runs
        in the loop's thread pool, awaited or not, to the same image."""
        from repro.core import deploy, offline_compile
        from repro.core.online import deploy_async
        bytecode = offline_compile(SAXPY, "k").bytecode
        image = asyncio.run(deploy_async(bytecode, X86, "split"))
        again = deploy(bytecode, X86, "split")
        assert {name: func.code for name, func in image.functions.items()} \
            == {name: func.code for name, func in again.functions.items()}
