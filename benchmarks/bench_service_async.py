"""Service API v2 economics: async batching and executor backends.

Two claims of the redesign, measured:

* the **async facade** serves batches with gather-level concurrency,
  and a thundering herd of identical concurrent requests costs one
  offline compile and one JIT per target;
* **executors change wall-clock, never results**: modeled cycle and
  work numbers stay byte-for-byte identical across all three.

Recorded, not asserted: the cold fan-out wall-clock of the process
executor against the thread executor (the "vs thread" column).  That
worker processes scale cold JIT fan-out past the GIL is unverified —
on the 2-core host that records the committed rows the two land
within run-to-run noise of each other (DESIGN.md §5 has the runs),
and no row from a wider machine is committed.
"""

import asyncio
import os
import time

import pytest

from repro.bench import format_table
from repro.semantics import Memory
from repro.service import (
    AsyncCompilationService, CompilationService, CompileRequest,
)
from repro.targets import Simulator
from repro.targets.catalog import TARGETS
from repro.workloads import ALL_KERNELS
from repro.workloads.pipeline import PIPELINE_SOURCE

from conftest import SMOKE, register_report

CATALOG = list(TARGETS.values())
CORES = os.cpu_count() or 1
#: distinct cold compilations per executor = SOURCES x |CATALOG|;
#: the analysis-heavy flow makes each one expensive enough to measure
SOURCES = 2 if SMOKE else 4
COLD_FLOW = "online-only"
HERD = 8


#: timing repetitions per executor; the best round is reported, so a
#: scheduler hiccup on a loaded CI runner cannot flip the comparison
ROUNDS = 5


def _cold_requests(round_id=0):
    """SOURCES distinct artifacts (the module name joins the cache
    key — distinct per round so every round is genuinely cold), each
    fanned over the full catalog under the heavy flow."""
    return [CompileRequest(source=PIPELINE_SOURCE,
                           name=f"pipe{round_id}x{i}",
                           targets=CATALOG, flow=COLD_FLOW)
            for i in range(SOURCES)]


def _timed_cold_fanout(executor_name):
    """Best-of-ROUNDS wall-clock of the cold fan-out on one executor.

    Each round uses a fresh service and fresh cache keys; the
    executor's worker pool is warmed with one throwaway compile
    first, so process-pool fork/start cost is not billed to the
    measured fan-out (a serving process pays it once at boot).
    """
    best = None
    compiles_per_round = []
    for round_id in range(ROUNDS):
        service = CompilationService(executor=executor_name,
                                     cache_capacity=2 * SOURCES + 2)
        try:
            service.submit(CompileRequest(
                source=ALL_KERNELS["sum_u8"].source, name="warmup",
                targets=[CATALOG[0]], flow=COLD_FLOW))
            start = time.perf_counter()
            service.submit_batch(_cold_requests(round_id))
            elapsed = time.perf_counter() - start
            compiles_per_round.append(
                service.stats()["deploy"]["compiles"])
            best = elapsed if best is None else min(best, elapsed)
        finally:
            service.shutdown()
    return best, compiles_per_round


def _modeled_numbers(result):
    """(cycles, instructions, jit_work) of one deployed image —
    the executor-invariant part of a deployment."""
    kernel = ALL_KERNELS["saxpy_fp"]
    memory = Memory(1 << 21)
    run = kernel.prepare(memory, 48, 7)
    image = result.image_for("x86")
    sim = Simulator(image, memory).run(kernel.entry, run.args)
    return (sim.cycles, sim.instructions, image.total_jit_work,
            image.total_code_bytes)


@pytest.fixture(scope="module")
def measurements():
    # -- cold fan-out per executor ------------------------------------------
    fanout = {}
    modeled = {}
    for name in ("thread", "process", "inline"):
        elapsed, compiles = _timed_cold_fanout(name)
        fanout[name] = (elapsed, compiles)
        saxpy_probe = CompilationService(executor=name)
        try:
            modeled[name] = _modeled_numbers(saxpy_probe.submit(
                CompileRequest(source=ALL_KERNELS["saxpy_fp"].source,
                               name="probe", targets=["x86"])))
        finally:
            saxpy_probe.shutdown()

    # -- async batch vs serial submits --------------------------------------
    serial_service = CompilationService()
    start = time.perf_counter()
    for request in _cold_requests():
        serial_service.submit(request)
    serial_s = time.perf_counter() - start
    serial_service.shutdown()

    async def batch():
        async with AsyncCompilationService() as service:
            start = time.perf_counter()
            await service.submit_batch(_cold_requests())
            return time.perf_counter() - start

    async_batch_s = asyncio.run(batch())

    # -- coalescing: a thundering herd of identical requests ----------------
    async def herd():
        async with AsyncCompilationService() as service:
            request = CompileRequest(
                source=ALL_KERNELS["dscal_fp"].source, name="herd",
                targets=CATALOG)
            await asyncio.gather(*(service.submit(request)
                                   for _ in range(HERD)))
            return service.stats()

    herd_stats = asyncio.run(herd())
    return fanout, modeled, serial_s, async_batch_s, herd_stats


@pytest.fixture(scope="module")
def report(measurements):
    fanout, modeled, serial_s, async_batch_s, herd_stats = measurements
    jobs = SOURCES * len(CATALOG)
    rows = [(name, f"{elapsed * 1e3:.2f}", str(compiles[0]),
             f"{fanout['thread'][0] / elapsed:.2f}x")
            for name, (elapsed, compiles) in fanout.items()]
    rows.append(("--- facade ---", "ms", "", ""))
    rows.append(("serial sync batch", f"{serial_s * 1e3:.2f}", "", ""))
    rows.append(("async gather batch", f"{async_batch_s * 1e3:.2f}",
                 "", ""))
    table = format_table(
        ["executor", "cold fan-out ms", "JIT compiles", "vs thread"],
        rows,
        title=f"Service v2 — {jobs}-image cold fan-out "
              f"({COLD_FLOW} flow, {CORES} cores), async batching")
    register_report("service_async", table, data={
        "cores": CORES,
        "cold_jobs": jobs,
        "flow": COLD_FLOW,
        "rounds": ROUNDS,
        "fanout": {name: {"best_seconds": elapsed,
                          "jit_compiles_per_round": compiles}
                   for name, (elapsed, compiles) in fanout.items()},
        "modeled_numbers": {
            name: {"cycles": numbers[0], "instructions": numbers[1],
                   "jit_work": numbers[2], "code_bytes": numbers[3]}
            for name, numbers in modeled.items()},
        "batch": {"serial_sync_s": serial_s,
                  "async_gather_s": async_batch_s},
        "herd": {"requests": HERD,
                 "coalesced": herd_stats["coalesced_requests"],
                 "artifact_stores": herd_stats["artifact"]["stores"],
                 "deploy_compiles": herd_stats["deploy"]["compiles"]},
        "service_stats": herd_stats,
    })
    return table


class TestServiceAsyncEconomics:
    def test_modeled_numbers_identical_across_executors(
            self, measurements, report):
        """Executors change wall-clock, never cycles/work/code size."""
        _, modeled, _, _, _ = measurements
        assert len(set(modeled.values())) == 1, modeled

    def test_every_executor_compiled_every_job(self, measurements):
        fanout = measurements[0]
        jobs = SOURCES * len(CATALOG)
        for name, (_, compiles) in fanout.items():
            # +1 for the warm-up compile, every round
            assert compiles == [jobs + 1] * ROUNDS, \
                f"{name}: expected {jobs + 1} JIT compiles per " \
                f"round, got {compiles}"

    def test_herd_coalesces_to_one_compilation(self, measurements):
        herd_stats = measurements[4]
        assert herd_stats["artifact"]["stores"] == 1
        assert herd_stats["deploy"]["compiles"] == len(CATALOG)


def test_bench_warm_async_request(benchmark):
    """Steady-state latency of a fully cached request through the
    async facade (event-loop startup included)."""
    service = CompilationService()
    request = CompileRequest(source=ALL_KERNELS["saxpy_fp"].source,
                             name="saxpy", targets=CATALOG)
    service.submit(request)                   # prime caches

    async def warm():
        async with AsyncCompilationService(service) as front:
            return await front.submit(request)

    result = benchmark.pedantic(lambda: asyncio.run(warm()),
                                rounds=5, iterations=2)
    assert result.fully_cached
    service.shutdown()
