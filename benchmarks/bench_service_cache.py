"""Service-layer economics: artifact cache and multi-target fan-out.

The split-compilation argument is once-compile/many-deploy: the
offline step runs once per program, the JIT once per (artifact,
target, flow).  This module measures what the service layer buys over
the seed behaviour (full recompile per call, one serial target at a
time):

* cold vs warm compile latency — a warm hit must be >= 5x faster;
* repeated whole-catalog deployment — the service (concurrent fan-out
  plus the image memo) must beat the serial, memo-less baseline.
"""

import time

import pytest

from repro.bench import format_table
from repro.core import deploy
from repro.service import CompilationService, CompileRequest
from repro.targets.catalog import TARGETS
from repro.workloads import TABLE1
from repro.workloads.pipeline import PIPELINE_SOURCE

from conftest import SMOKE, register_report

# smoke mode (CI per-PR trend job): the smallest kernel only
CACHE_KERNELS = ("sum_u8",) if SMOKE else \
    ("saxpy_fp", "sum_u8", "dscal_fp")
CATALOG = list(TARGETS.values())
ROUNDS = 2 if SMOKE else 3


@pytest.fixture(scope="module")
def measurements():
    service = CompilationService()

    # -- cold vs warm offline compiles --------------------------------------
    compile_rows = []
    for name in CACHE_KERNELS:
        source = TABLE1[name].source
        cold = service.compile(source, name)
        assert not cold.cache_hit
        warm_latency = min(
            service.compile(source, name).latency for _ in range(5))
        compile_rows.append((name, cold.latency, warm_latency))

    # -- repeated whole-catalog deployment ----------------------------------
    # Baseline: the seed's shape — every round JITs every target from
    # scratch, serially.  Service: concurrent fan-out, image memo warm
    # after round one.
    artifact = service.artifact(PIPELINE_SOURCE, "pipeline")
    serial_rounds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for target in CATALOG:
            deploy(artifact, target, "split")
        serial_rounds.append(time.perf_counter() - start)

    service_rounds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        images = service.deploy_many(artifact, CATALOG, "split")
        service_rounds.append(time.perf_counter() - start)
    assert sorted(images) == sorted(TARGETS)

    stats = service.stats()
    service.shutdown()
    return compile_rows, serial_rounds, service_rounds, stats


@pytest.fixture(scope="module")
def report(measurements):
    compile_rows, serial_rounds, service_rounds, stats = measurements
    rows = [(name, f"{cold * 1e3:.2f}", f"{warm * 1e3:.3f}",
             f"{cold / warm:.0f}x")
            for name, cold, warm in compile_rows]
    rows.append(("--- fan-out ---", "serial ms", "service ms", ""))
    for index, (serial, svc) in enumerate(zip(serial_rounds,
                                              service_rounds)):
        rows.append((f"catalog round {index + 1}",
                     f"{serial * 1e3:.2f}", f"{svc * 1e3:.2f}",
                     f"{serial / svc:.0f}x" if svc else ""))
    table = format_table(
        ["workload", "cold ms", "warm ms", "speedup"], rows,
        title=f"Compilation service — cache and {len(CATALOG)}-target "
              f"fan-out")
    register_report("service_cache", table, data={
        "compiles": [{"kernel": name, "cold_s": cold, "warm_s": warm}
                     for name, cold, warm in compile_rows],
        "fanout_rounds": [{"round": i + 1, "serial_s": serial,
                           "service_s": svc}
                          for i, (serial, svc) in
                          enumerate(zip(serial_rounds, service_rounds))],
        "targets": len(CATALOG),
        # the full machine-readable snapshot: per-flow and
        # per-executor deployment counters included
        "service_stats": stats,
    })
    return table


class TestCacheEconomics:
    def test_warm_compile_at_least_5x_faster(self, measurements, report):
        for name, cold, warm in measurements[0]:
            assert cold >= 5 * warm, \
                f"{name}: warm hit only {cold / warm:.1f}x faster"

    def test_service_beats_serial_deployment(self, measurements):
        """Concurrent fan-out + memo vs the seed's serial recompiles,
        over the full target catalog, across repeated rounds."""
        _, serial_rounds, service_rounds, _ = measurements
        assert sum(service_rounds) < sum(serial_rounds)
        # warm rounds individually demolish any serial round
        assert min(service_rounds[1:]) < min(serial_rounds)

    def test_image_memo_hit_after_first_round(self, measurements):
        stats = measurements[3]
        # round 1 compiles each catalog target once; rounds 2+ and the
        # serial baseline's artifact reuse are all memo hits
        assert stats["deploy"]["compiles"] == len(CATALOG)
        assert stats["deploy"]["memo_hits"] >= \
            (ROUNDS - 1) * len(CATALOG)

    def test_artifact_cache_hit_rate(self, measurements):
        stats = measurements[3]
        assert stats["artifact"]["hits"] >= len(CACHE_KERNELS) * 5
        assert stats["artifact"]["misses"] == len(CACHE_KERNELS) + 1


def test_bench_warm_request(benchmark):
    """Steady-state latency of a fully cached multi-target request."""
    service = CompilationService()
    request = CompileRequest(source=TABLE1["saxpy_fp"].source,
                             name="saxpy", targets=CATALOG, flow="split")
    service.submit(request)                  # prime caches
    result = benchmark.pedantic(lambda: service.submit(request),
                                rounds=5, iterations=2)
    assert result.fully_cached
    service.shutdown()
