"""The two edge workloads: ``edge_cold`` and ``edge_warm`` — closed-loop
``/deploy`` traffic against a real ``pvi-serve`` subprocess."""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.service import CompilationService, CompileRequest
from repro.service.edge import EdgeClient

import measure
import oracle as orc
import workloads as wl

#: closed-loop connections (callers that wait for their reply); never
#: more than the cores of the smallest box this is meant to run on
CONNECTIONS = 2

#: segments after which the server tree's peak RSS is read
RSS_SEGMENTS = 4

API_KEY = json.loads((measure.HERE / "tenants.json").read_text()) \
    ["tenants"][0]["api_key"]

#: pad id of the oracle's own compiles (no run uses it)
_ORACLE_PAD = 0xffff0000


#: input data of the oracle's executions: like the module shapes, part
#: of the benchmark and not of a run — the register-pressure corpus
#: branches on its data, so its cycle counts depend on it
_ORACLE_DATA_SEED = 7


def edge_expectations(oracle: orc.Oracle,
                      scale: wl.Scale) -> List[orc.ModuleExpectation]:
    """Per module shape: an in-process compile on the ``inline``
    executor, every image executed on the reference engine against
    the IR interpreter."""
    service = CompilationService(executor="inline", cache_capacity=256)
    prepared = {name: orc.prepare(kernel, wl.DEVICE_N, _ORACLE_DATA_SEED)
                for name, kernel in wl.EDGE_FUNCTIONS.items()}
    ir = {name: orc.interpret(kernel, prepared[name])
          for name, kernel in wl.EDGE_FUNCTIONS.items()}
    expectations = []
    try:
        for index, shape in enumerate(wl.SHAPES[:scale.pool]):
            body = wl.compose(shape, _ORACLE_PAD + index)
            result = service.submit(CompileRequest(**body))
            cycles = 0
            for target, deployment in result.deployments.items():
                for name in shape.functions:
                    cycles += oracle.reference(
                        deployment.compiled, wl.EDGE_FUNCTIONS[name],
                        prepared[name], ir[name],
                        f"edge shape {index}: {name} on {target}").cycles
            expectations.append(orc.ModuleExpectation(
                code_bytes={t: d.compiled.total_code_bytes
                            for t, d in result.deployments.items()},
                jit_work={t: d.compiled.total_jit_work
                          for t, d in result.deployments.items()},
                offline_pass_work=dict(result.offline_pass_work),
                cycles=cycles))
    finally:
        service.shutdown()
    return expectations


async def deploy(client: EdgeClient, body: Dict[str, object]):
    """One operation: send -> full response.  (latency, status, body)"""
    start = time.perf_counter()
    status, _headers, payload = await client.deploy(
        body["source"], body["targets"], name=body["name"],
        flow=body["flow"])
    return time.perf_counter() - start, status, payload


@dataclass
class Segment:
    """``census`` consecutive operations of the closed loop: one cycle
    of ``edge_cold`` (the same work every time), a thousand zipf draws
    of ``edge_warm``."""
    latencies_s: List[float]
    wall_s: float               # issue of its first op -> of the next's
    cpu_s: float                # server tree CPU over that wall


async def drive(server: measure.ServerProcess, ops: Iterator,
                seconds: float, census: int,
                on_response: Callable[[object, int, dict], None]) \
        -> Tuple[List[Segment], float]:
    """Closed loop: each connection sends its next operation when the
    previous reply is complete, until ``seconds`` have passed and the
    segment of ``census`` operations then under way is complete.

    Returns the segments and the server tree's peak RSS after
    ``RSS_SEGMENTS`` of them (the server keeps what it compiles, so
    its memory is a function of the work done, and a fixed amount of
    work makes runs of different speed comparable)."""
    issued = 0
    start = time.perf_counter()
    cap = measure.time_cap(seconds)
    latencies: List[List[float]] = []
    marks: List[Tuple[float, float]] = []       # (time, server CPU)
    rss = 0.0

    def mark() -> None:
        nonlocal rss
        pids = server.pids
        marks.append((time.perf_counter(), measure.cpu_seconds(pids)))
        if len(marks) <= RSS_SEGMENTS + 1:
            rss = measure.peak_rss_mib(pids)

    async def connection() -> None:
        nonlocal issued
        async with EdgeClient("127.0.0.1", server.port,
                              api_key=API_KEY) as c:
            while time.perf_counter() - start < seconds or \
                    issued % census:
                op = next(ops, None)
                if op is None:          # a finite list (the pool fill)
                    break
                if time.perf_counter() - start > cap:
                    raise RuntimeError(
                        f"no whole segment within {cap:.0f} s")
                if issued % census == 0:
                    mark()
                    latencies.append([])
                segment = latencies[-1]
                issued += 1
                latency, status, payload = await deploy(c, op[1])
                segment.append(latency)
                on_response(op[0], status, payload)

    tasks = [asyncio.ensure_future(connection())
             for _ in range(CONNECTIONS)]
    await asyncio.gather(*tasks)
    mark()
    return [Segment(lat, after[0] - before[0], after[1] - before[1])
            for lat, before, after in zip(latencies, marks,
                                          marks[1:])], rss


class EdgeState:
    """A started server, spun up by one throw-away cold request, with
    whatever the set-up deployed."""

    def __init__(self, pool: Optional[List[Dict[str, object]]] = None):
        self.server = measure.ServerProcess()
        self.fill: List[Tuple[int, int, dict]] = []
        try:
            asyncio.run(self._spin_up(pool or []))
        except BaseException:
            self.server.stop()
            raise

    async def _spin_up(self, pool: List[Dict[str, object]]) -> None:
        async with EdgeClient("127.0.0.1", self.server.port,
                              api_key=API_KEY) as client:
            body = wl.compose(wl.SHAPES[0], _ORACLE_PAD - 1)
            _latency, status, payload = await deploy(client, body)
            if status != 200:
                raise RuntimeError(f"spin-up request failed: {payload}")
        await drive(self.server, iter(enumerate(pool)), float("inf"),
                    max(len(pool), 1),
                    lambda *seen: self.fill.append(seen))

    def close(self) -> None:
        self.server.stop()


def _measure_edge(state: EdgeState, setup_s: float, ops: Iterator,
                  seconds: float, census: int, oracle: orc.Oracle,
                  expectations: List[orc.ModuleExpectation],
                  modeled: List[orc.ModuleExpectation],
                  fully_cached: bool, workload: str) -> measure.Measured:
    failed = 0

    def on_response(shape, status, payload) -> None:
        nonlocal failed
        failed += not orc.check_response(
            oracle, status, payload, expectations[shape],
            f"{workload} shape {shape}", fully_cached=fully_cached)

    try:
        segments, rss = asyncio.run(drive(state.server, ops, seconds,
                                          census, on_response))
    finally:
        state.close()
    quartile = measure.better_quartile
    return measure.Measured(
        setup_s=setup_s,
        attempted=sum(len(s.latencies_s) for s in segments),
        failed=failed,
        throughput_ops_s=quartile(
            [len(s.latencies_s) / s.wall_s for s in segments], "higher"),
        latency_p50_ms=quartile(
            [statistics.median(s.latencies_s) * 1e3 for s in segments],
            "lower"),
        cpu_ms_per_op=quartile(
            [s.cpu_s * 1e3 / len(s.latencies_s) for s in segments],
            "lower"),
        peak_rss_mib=rss,
        modeled=orc.modeled_sums(modeled),
        info={"census": census, "connections": CONNECTIONS,
              "server_command": state.server.command})


def run_edge_cold(seed: int, seconds: float, oracle: orc.Oracle,
                  scale: wl.Scale) -> measure.Measured:
    state, setup_s = measure.median_setup(EdgeState, scale.setup_repeats)
    try:
        expectations = edge_expectations(oracle, scale)
    except BaseException:
        state.close()
        raise
    return _measure_edge(state, setup_s, wl.edge_cold_ops(seed, scale),
                         seconds, scale.cold_census, oracle, expectations,
                         expectations[:scale.cold_census], False,
                         "edge_cold")


def run_edge_warm(seed: int, seconds: float, oracle: orc.Oracle,
                  scale: wl.Scale) -> measure.Measured:
    pool = wl.edge_warm_pool(seed, scale)
    state, setup_s = measure.median_setup(lambda: EdgeState(pool),
                                          scale.setup_repeats)
    try:
        expectations = edge_expectations(oracle, scale)
        for shape, status, payload in state.fill:
            orc.check_response(oracle, status, payload,
                               expectations[shape],
                               f"edge_warm fill {shape}")
    except BaseException:
        state.close()
        raise
    ops = ((index, pool[index])
           for index in wl.edge_warm_ops(seed, scale))
    return _measure_edge(state, setup_s, ops, seconds, scale.warm_segment,
                         oracle, expectations, expectations, True,
                         "edge_warm")
