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
import copy
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import deploy, offline_compile
from repro.engine import osr_enabled, osr_threshold
from repro.flows import as_flow
from repro.semantics import Memory
from repro.service import (
    AsyncCompilationService, CompilationService, CompileRequest,
    DeploymentPool, InlineExecutor, ProcessExecutor, ThreadExecutor,
    UnknownExecutorError, as_executor, executor_names,
)
from repro.targets import X86, executor_for
from repro.targets.catalog import TARGETS
from repro.workloads import TABLE1

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
            assert stats.deploy_compiles == len(TARGETS)
            executor_stats = stats.deploy_executors[executor_name]
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
            assert stats.deploy_compiles == 1
            assert stats.deploy_memo_hits == 1
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
            assert executor.stats.failed == 1
            assert executor.stats.in_flight == 0
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
        assert executor.stats.in_flight == 0

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
            artifact = svc.artifact(SAXPY, "k")
            before = set(multiprocessing.active_children())
            svc.deploy(artifact, X86, "split")       # starts the worker
            (worker,) = set(multiprocessing.active_children()) - before
            others = [t for t in TARGETS.values() if t is not X86]
            pending = svc.pool.submit_many(artifact, others, "split")
            os.kill(worker.pid, signal.SIGKILL)
            lost = [name for name, (future, _) in pending.items()
                    if isinstance(future.exception(timeout=60),
                                  BrokenProcessPool)]
            assert lost, "no queued job was lost to the kill"
            assert executor.stats.failed == len(lost)
            assert executor.stats.in_flight == 0
            # a failure is never memoized: the same triple re-runs,
            # on a fresh pool
            image = svc.deploy(artifact, lost[0], "split")
            assert code_of(image) == \
                code_of(deploy(artifact, lost[0], "split"))
            assert executor.stats.in_flight == 0
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

    def test_deploy_is_the_request_verb(self):
        async def main():
            async with AsyncCompilationService(executor="inline") \
                    as service:
                result = await service.deploy(CompileRequest(
                    source=SUM_U8, name="m", targets=[X86]))
                return result

        result = asyncio.run(main())
        assert result.target_names == ["x86"]

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
        assert stats.requests == 4
        assert stats.deploy_compiles == len(CATALOG) + 1

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
        assert stats.requests == 8
        # ...and the core made the herd cost one offline compile and
        # one JIT per target
        assert stats.artifact_stores == 1
        assert stats.deploy_compiles == len(CATALOG)
        for target in TARGETS:
            assert len({id(r.image_for(target)) for r in results}) == 1

    def test_facade_parity(self):
        """One request path: the same request sequence through the
        sync facade and through the async one yields the same results
        and moves the same counters."""
        def flaky_core():
            core = CompilationService(executor="inline")
            original = core.pool._compile

            def flaky(artifact, target, flow):
                if artifact.name == "bad" and target.name == "arm":
                    raise MemoryError("JIT fails for bad on arm")
                return original(artifact, target, flow)

            core.pool._compile = flaky
            return core

        sequence = [
            CompileRequest(source=SAXPY, name="m", targets=CATALOG),
            CompileRequest(source=SAXPY, name="m", targets=CATALOG),
            CompileRequest(source=SUM_U8, name="m2", targets=[X86],
                           flow="online-only"),
            CompileRequest(source=SAXPY, name="bad", targets=CATALOG,
                           tolerate_failures=True),
            CompileRequest(source=SAXPY, name="bad", targets=CATALOG),
            CompileRequest(source=SAXPY, name="m", targets=[X86],
                           flow="no-such-flow"),
        ]

        def observe(core, outcome):
            stats = core.stats().as_dict()
            del stats["latency"]            # wall clock, not behaviour
            if isinstance(outcome, BaseException):
                return type(outcome), stats
            return ({
                "name": outcome.name,
                "artifact_key": outcome.artifact_key,
                "artifact_cache_hit": outcome.artifact_cache_hit,
                "fully_cached": outcome.fully_cached,
                "flow": outcome.flow,
                "offline_pass_work": outcome.offline_pass_work,
                "deployments": {
                    name: (d.memo_hit, type(d.error),
                           d.compiled and code_of(d.compiled))
                    for name, d in outcome.deployments.items()},
            }, stats)

        def run_sync():
            core = flaky_core()
            seen = []
            for request in sequence:
                try:
                    outcome = core.submit(request)
                except Exception as exc:
                    outcome = exc
                seen.append(observe(core, outcome))
            core.shutdown()
            return seen

        async def run_async():
            core = flaky_core()
            seen = []
            async with AsyncCompilationService(core) as service:
                for request in sequence:
                    try:
                        outcome = await service.submit(request)
                    except Exception as exc:
                        outcome = exc
                    seen.append(observe(core, outcome))
            core.shutdown()
            return seen

        sync_seen = run_sync()
        assert asyncio.run(run_async()) == sync_seen
        # the sequence did exercise every outcome kind
        assert sync_seen[1][0]["fully_cached"]
        assert sync_seen[3][0]["deployments"]["arm"][1] is MemoryError
        assert sync_seen[4][0] is MemoryError
        assert issubclass(sync_seen[5][0], ValueError)

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
            async with AsyncCompilationService(cache_shards=4) \
                    as service:
                await service.submit(CompileRequest(
                    source=SAXPY, name="m", targets=[X86]))
                return service.stats().as_dict()

        snapshot = asyncio.run(main())
        assert snapshot["requests"] == 1
        assert len(snapshot["artifact"]["shards"]) == 4
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
