#!/usr/bin/env python
"""The service plane, v2: async front end + pluggable executors.

The compilation service is the serving layer of the paper's split
story: offline artifacts cached by content, JIT images memoized per
(artifact, target, flow).  This demo shows the three API-v2 axes:

1. **async facade** — ``await service.submit(request)`` and
   ``asyncio.gather`` batch fan-out over the whole target catalog;
2. **herd economics** — a thundering herd of identical concurrent
   requests costs one offline compile and one JIT per target;
3. **executor backends** — the same deployment served inline (for
   deterministic tests), on the default thread pool, or on worker
   *processes* that push cold JIT fan-out past the GIL.

Run:  python examples/async_service.py
"""

import asyncio
import time

from repro.service import (
    AsyncCompilationService, CompilationService, CompileRequest,
    executor_names,
)
from repro.targets.registry import registered_targets
from repro.workloads import ALL_KERNELS

KERNELS = ("saxpy_fp", "sum_u8", "sdot")
CATALOG = [t.name for t in registered_targets()]


def requests():
    return [CompileRequest(source=ALL_KERNELS[name].source, name=name,
                           targets=CATALOG, flow="split")
            for name in KERNELS]


async def batch_demo():
    print("== async batch fan-out " + "=" * 40)
    async with AsyncCompilationService() as service:
        start = time.perf_counter()
        results = await service.submit_batch(requests())
        cold = time.perf_counter() - start
        start = time.perf_counter()
        warm_results = await service.submit_batch(requests())
        warm = time.perf_counter() - start
        for result in results:
            print(f"  {result.name:10s} -> {len(result.deployments)} "
                  f"targets, flow={result.flow}, "
                  f"cache_hit={result.artifact_cache_hit}")
        print(f"  cold batch: {cold * 1e3:7.2f} ms")
        print(f"  warm batch: {warm * 1e3:7.2f} ms "
              f"(fully cached: "
              f"{all(r.fully_cached for r in warm_results)})")

        print("\n== herd of identical requests " + "=" * 33)
        herd = [service.submit(CompileRequest(
            source=ALL_KERNELS["dscal_fp"].source, name="dscal",
            targets=CATALOG)) for _ in range(16)]
        settled = await asyncio.gather(*herd)
        stats = service.stats()
        images = {id(r.image_for(name)) for r in settled
                  for name in CATALOG}
        print(f"  16 concurrent identical requests -> "
              f"{len(images)} distinct images over "
              f"{len(CATALOG)} targets")
        print(f"  offline compiles (stores): "
              f"{stats['artifact']['stores']}, "
              f"JIT compiles: {stats['deploy']['compiles']}")
        print(f"  artifact cache hit rate: "
              f"{stats['artifact']['hit_rate']:.0%}")


def executor_demo():
    print("\n== executor backends " + "=" * 42)
    source = ALL_KERNELS["fir"].source
    for name in executor_names():
        service = CompilationService(executor=name)
        try:
            start = time.perf_counter()
            result = service.submit(CompileRequest(
                source=source, name="fir", targets=CATALOG))
            elapsed = time.perf_counter() - start
            executor_stats = \
                service.stats()["deploy"]["executors"][name]
            print(f"  {name:8s} cold fan-out over "
                  f"{len(result.deployments)} targets: "
                  f"{elapsed * 1e3:7.2f} ms "
                  f"(jobs={executor_stats['submitted']}, "
                  f"failed={executor_stats['failed']})")
        finally:
            service.shutdown()
    print("  (the process executor pays fork+pickle overhead here; "
          "it wins on multi-core")
    print("   machines with heavy cold fan-out — see "
          "benchmarks/bench_service_async.py)")


def main():
    asyncio.run(batch_demo())
    executor_demo()


if __name__ == "__main__":
    main()
