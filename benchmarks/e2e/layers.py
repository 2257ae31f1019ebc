"""The traced run: where each workload's time goes, layer by layer.

Separate from the timed run on purpose.  Each workload's operations
are replayed **in-process**, one at a time — for the edge workloads
against an in-loop :class:`EdgeServer` configured exactly as
``pvi-serve`` configures its own — first untraced, then again with the
tracer of :mod:`trace` installed.  The second pass gives the spans, the
ratio of the two walls is the tracing overhead, and the first pass
gives the numbers tracing would disturb (MIPS, edge overhead).

Every per-layer metric of ``BENCHMARK.json`` is reported by every
workload; a layer the workload never enters reports 0, which is itself
the prediction "this workload does not move when that layer does".
"""

from __future__ import annotations

import asyncio
import json
import shutil
import statistics
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

from repro.core.offline import offline_compile
from repro.service import ArtifactCache, DeploymentPool, artifact_key
from repro.service.edge import (
    AdaptiveExecutor, EdgeClient, EdgeConfig, EdgeServer, TenantTable,
)
from repro.targets import dispatch
from repro.vm import threaded

import device
import edge
import measure
import oracle as orc
import trace
import workloads as wl

#: benchmark modules whose own references to the layers get wrapped
_OWN_MODULES = ("device", "edge", "layers", "oracle")

_MS, _SHARE, _COUNT, _MIPS = "ms", "ratio", "count", "1e6/s"

#: every per-layer metric: name -> unit.  ``<span>_ms`` is the median
#: over operations of the self time the operation spent in that span.
UNITS: Dict[str, str] = {
    **{name: _MS for name in (
        "client.latency_p95_ms", "client.latency_p99_ms",
        "client.latency_max_ms", "client.self_ms",
        "edge.wire_parse_ms", "edge.auth_ms", "edge.admission_ms",
        "edge.response_encode_ms", "edge.overhead_ms",
        "edge.ewma_service_ms",
        "service.artifact_key_ms", "service.cache_get_hit_ms",
        "service.cache_get_miss_ms", "service.cache_put_ms",
        "service.cache_disk_hit_ms", "service.serialize_ms",
        "service.deserialize_ms", "service.memo_hit_ms",
        "service.fanout_ms", "service.executor_seam_ms",
        "service.submit_ms", "core.offline_compile_ms",
        "lang.tokenize_ms", "lang.parse_ms", "lang.check_ms",
        "frontend.lower_ms", "opt.scalar_pipeline_ms",
        "opt.vectorize_ms", "split.regalloc_annotation_ms",
        "bytecode.emit_ms", "bytecode.verify_ms", "bytecode.encode_ms",
        "bytecode.decode_ms", "analysis.admission_lint_ms",
        "analysis.facts_ms", "jit.compile_ms", "jit.decode_ms",
        "jit.cleanup_ms", "jit.online_opt_ms", "jit.scalarize_ms",
        "jit.addrfold_ms", "jit.regalloc_ms", "jit.codegen_ms",
        "targets.predecode_ms", "targets.first_run_ms",
        "targets.steady_run_ms", "vm.predecode_ms", "vm.first_call_ms",
        "vm.steady_call_ms", "semantics.memory_setup_ms")},
    **{name: _SHARE for name in (
        "client.trace_overhead_share", "client.span_coverage_share",
        "client.failed_share", "edge.coalesced_share", "edge.shed_share",
        "edge.route_cold_share", "service.artifact_hit_share",
        "service.memo_hit_share", "service.coalesced_share")},
    **{name: _COUNT for name in (
        "service.process_submitted", "service.thread_submitted",
        "opt.work", "opt.ir_instrs_after", "analysis.guards_elided",
        "jit.work", "targets.tier2_builds", "targets.tier2_promotions",
        "targets.osr_entries", "targets.deopt_reentries",
        "vm.tier2_builds", "vm.tier2_promotions", "vm.osr_entries",
        "vm.deopt_reentries")},
    "bytecode.module_bytes": "bytes",
    **{name: _MIPS for name in (
        "sim_mips", "targets.mips", "targets.mips.vec",
        "targets.mips.reduce", "targets.mips.scalar",
        "targets.stack_mips", "vm.mips", "vm.mips.vec",
        "vm.mips.reduce", "vm.mips.scalar")},
}


class Collected:
    """What one workload's traced run gathers, before it is laid out
    as the declared metric list."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.untraced: List[float] = []         # op latencies, seconds
        self.traced_wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.info: Dict[str, object] = {}


def _finish(workload: str, tracer: trace.Tracer, got: Collected,
            phase_wall: float) -> Tuple[Dict, int, int, Dict]:
    book = trace.ledger(tracer.spans)
    values = dict(got.values)
    for name, row in book.items():
        values[f"{name}_ms"] = row["self_ms_per_op"]
    values["client.self_ms"] = book["client.op"]["self_ms_per_op"]
    values.update(tracer.counters)
    values["client.latency_p95_ms"] = \
        measure.percentile(got.untraced, 0.95) * 1e3
    values["client.latency_p99_ms"] = \
        measure.percentile(got.untraced, 0.99) * 1e3
    values["client.latency_max_ms"] = max(got.untraced) * 1e3
    values["client.trace_overhead_share"] = \
        got.traced_wall / sum(got.untraced) - 1.0
    values["client.span_coverage_share"] = \
        trace.root_wall(tracer.spans) / phase_wall
    values["client.failed_share"] = got.failed / got.attempted
    metrics = {name: (float(values.get(name, 0.0)), unit)
               for name, unit in UNITS.items()}
    shares = {name: {"self": row["self_share"],
                     "inclusive": row["inclusive_share"]}
              for name, row in sorted(book.items())}
    got.info["shares"] = shares
    got.info["design_share"] = _design_share(
        workload, book, values, got.traced_wall / (got.attempted // 2))
    results = measure.HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"trace_{workload}.json").write_text(json.dumps(
        {"workload": workload, "info": got.info,
         "fields": ["name", "start", "end", "parent", "op"],
         "spans": tracer.spans}, default=str) + "\n")
    return metrics, got.attempted, got.failed, got.info


def _design_share(workload: str, book, values, op_s: float) -> float:
    """Share of a traced operation's wall spent in the layers the
    workload was designed to expose (README, "What the trace says"):
    the edge workloads' compile share (offline compile + in-process
    JIT, inclusive, + the executor seam), the device's online half
    (JIT + first run), the steady state's run spans."""
    def inclusive(*names: str) -> float:
        return sum(book[name]["inclusive_share"] for name in names
                   if name in book)

    if workload == "device_first_call":
        return inclusive("jit.compile", "targets.first_run")
    if workload == "exec_steady":
        return inclusive("vm.steady_call", "targets.steady_run")
    seam_s = values.get("service.executor_seam_ms", 0.0) / 1e3
    return inclusive("core.offline_compile", "jit.compile") + \
        seam_s / op_s


def _tier2_delta(before: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """Tier-2 builds and elided OSR guards since ``before``."""
    now = _tier2_now()
    out = {"analysis.guards_elided": 0}
    for layer in ("vm", "targets"):
        delta = {key: now[layer][key] - before[layer][key]
                 for key in now[layer]}
        out[f"{layer}.tier2_builds"] = delta["warm"] + delta["request"]
        out["analysis.guards_elided"] += delta["guards_elided"]
    return out


def _tier2_now() -> Dict[str, Dict[str, int]]:
    return {"vm": threaded.tier2_build_stats(),
            "targets": dispatch.tier2_build_stats()}


# ---------------------------------------------------------------------------
# device_first_call
# ---------------------------------------------------------------------------

def _trace_device(seed: int, oracle: orc.Oracle, scale: wl.Scale):
    got = Collected()
    state = device.build_device()
    prepared, refs = device.device_expectations(state, oracle, seed)
    ops = wl.device_ops(seed)
    sample = [wl.DEVICE_CENSUS[next(ops)] for _ in range(
        scale.replay_cycles * len(wl.DEVICE_CENSUS))]

    def replay(span, op) -> float:
        wall = 0.0
        for op_id, entry in enumerate(sample):
            wire = state.wires[entry[0], entry[2]]
            with op(op_id):
                latency, _cpu, seen, _image = device.first_call(
                    wire, entry, prepared[entry[0]], span)
            wall += latency
            if span is device.no_span:
                got.untraced.append(latency)
            got.attempted += 1
            got.failed += not oracle.check_run(
                seen, refs[entry], f"traced device_first_call {entry}")
        return wall

    replay(device.no_span, lambda _id: nullcontext())
    tracer = trace.Tracer()
    before = _tier2_now()
    tracer.install(_OWN_MODULES)
    try:
        start = time.perf_counter()
        got.traced_wall = replay(tracer.span, tracer.op)
        phase = time.perf_counter() - start
    finally:
        tracer.uninstall()
    got.values.update(_tier2_delta(before))
    # wasm32 is the one stack-machine target: its first-call MIPS
    run_s = instrs = 0.0
    for (name, start, end, _parent, op_id) in tracer.spans:
        if name == "targets.first_run" and op_id is not None and \
                sample[op_id][1] == "wasm32":
            run_s += end - start
            instrs += refs[sample[op_id]].instructions
    got.values["targets.stack_mips"] = \
        instrs / run_s / 1e6 if run_s else 0.0
    return tracer, got, phase


# ---------------------------------------------------------------------------
# exec_steady
# ---------------------------------------------------------------------------

def _trace_steady(seed: int, oracle: orc.Oracle, scale: wl.Scale):
    got = Collected()
    ops = wl.steady_ops(seed)
    sample = [wl.STEADY_CENSUS[next(ops)] for _ in range(
        scale.replay_cycles * len(wl.STEADY_CENSUS))]
    refs = None

    def replay(state, span, op) -> float:
        nonlocal refs
        if refs is None:
            refs = device.steady_expectations(state, oracle)
        wall = 0.0
        timed = []
        for op_id, pair in enumerate(sample):
            with op(op_id):
                latency, _cpu, seen = device.steady_call(
                    state.machines[pair], state.prepared[pair[0]], span)
            wall += latency
            timed.append((pair, latency))
            got.attempted += 1
            got.failed += not oracle.check_run(
                seen, refs[pair], f"traced exec_steady {pair}")
            if span is device.no_span:
                got.untraced.append(latency)
        if span is device.no_span:
            _steady_mips(got, measure.best_by_kind(timed),
                         {pair: ref.instructions
                          for pair, ref in refs.items()})
            _tiering(got, state)
        return wall

    replay(device.build_steady(seed, scale), device.no_span,
           lambda _id: nullcontext())
    tracer = trace.Tracer()
    before = _tier2_now()
    tracer.install(_OWN_MODULES)
    try:
        with tracer.paused():
            state = device.compile_steady(seed, scale)
        device.warm_steady(state, tracer.span)
        start = time.perf_counter()
        got.traced_wall = replay(state, tracer.span, tracer.op)
        phase = time.perf_counter() - start
    finally:
        tracer.uninstall()
    got.values.update(_tier2_delta(before))
    return tracer, got, phase


def _steady_mips(got: Collected, best_s, instructions) -> None:
    """Simulated instructions per host second, from the untraced
    pass and each pair's best call: pooled, per engine, and per
    engine x kernel family."""
    def mips(pairs) -> float:
        return sum(instructions[p] for p in pairs) / \
            sum(best_s[p] for p in pairs) / 1e6

    pairs = list(best_s)
    got.values["sim_mips"] = mips(pairs)
    for layer, machines in (("vm", ("vm",)),
                            ("targets", wl.STEADY_MACHINES[1:])):
        mine = [p for p in pairs if p[1] in machines]
        got.values[f"{layer}.mips"] = mips(mine)
        for family, kernels in wl.FAMILIES.items():
            got.values[f"{layer}.mips.{family}"] = mips(
                [p for p in mine if p[0] in kernels])


def _tiering(got: Collected, state: device.SteadyState) -> None:
    for (_kernel, machine), entry in state.machines.items():
        layer = "vm" if machine == "vm" else "targets"
        runner = entry.runner
        for key, value in runner.tiering_stats().items():
            name = f"{layer}.{key}"
            got.values[name] = got.values.get(name, 0) + value


# ---------------------------------------------------------------------------
# the edge workloads
# ---------------------------------------------------------------------------

def _edge_config() -> EdgeConfig:
    """What ``pvi-serve --port 0 --tenants tenants.json`` builds."""
    tenants = TenantTable.from_config(
        json.loads((measure.HERE / "tenants.json").read_text()))
    return EdgeConfig(port=0, tenants=tenants,
                      service_kwargs={"cache_capacity": 256})


async def _edge_pass(workload: str, seed: int, scale: wl.Scale,
                     oracle: orc.Oracle, expectations, got: Collected,
                     tracer=None) -> float:
    """One sequential replay against a fresh in-loop server."""
    warm = workload == "edge_warm"
    pool = wl.edge_warm_pool(seed, scale)
    if warm:
        picks = wl.edge_warm_ops(seed, scale)
        ops = [(index, pool[index]) for index in
               (next(picks) for _ in range(scale.warm_replay))]
    else:
        cold = wl.edge_cold_ops(seed, scale)
        ops = [next(cold) for _ in range(2 * scale.cold_census)]
    overheads = []
    # The pool's workers are forked while the client socket is open and
    # inherit it, so the server never sees this connection's EOF; its
    # handler is cancelled when the loop closes, which Python 3.11
    # reports as an unretrieved CancelledError.  Expected: not logged.
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: None if isinstance(
            context.get("exception"), asyncio.CancelledError)
        else loop.default_exception_handler(context))
    async with EdgeServer(_edge_config()) as server:
        async with EdgeClient("127.0.0.1", server.port,
                              api_key=edge.API_KEY) as client:
            with tracer.paused() if tracer else nullcontext():
                await edge.deploy(client, wl.compose(
                    wl.SHAPES[0], edge._ORACLE_PAD - 1))
                for body in (pool if warm else ()):
                    await edge.deploy(client, body)
            start = time.perf_counter()
            wall = 0.0
            for op_id, (shape, body) in enumerate(ops):
                if tracer is None:
                    latency, status, payload = await edge.deploy(
                        client, body)
                    got.untraced.append(latency)
                    overheads.append(latency -
                                     payload.get("total_latency_s", 0.0))
                else:
                    with tracer.op(op_id):
                        latency, status, payload = await edge.deploy(
                            client, body)
                wall += latency
                got.attempted += 1
                got.failed += not orc.check_response(
                    oracle, status, payload, expectations[shape],
                    f"traced {workload} shape {shape}",
                    fully_cached=warm)
            phase = time.perf_counter() - start
        if tracer is None:
            _edge_stats(got, server.stats_snapshot(), overheads)
    if tracer is not None:
        got.traced_wall = wall
    return phase


def _edge_stats(got: Collected, stats: Dict, overheads) -> None:
    edge_stats, service = stats["edge"], stats["service"]
    requests = max(edge_stats["requests"], 1)
    routes = edge_stats["routes"]
    cold = routes["cold"]["submitted"]
    warm = routes["warm"]["submitted"]
    got.values.update({
        "edge.overhead_ms": statistics.median(overheads) * 1e3,
        "edge.coalesced_share": edge_stats["coalesced"] / requests,
        "edge.shed_share": edge_stats["shed"]["total"] / requests,
        "edge.route_cold_share": cold / max(cold + warm, 1),
        "edge.ewma_service_ms": edge_stats["queue"]["ewma_service_ms"],
        "service.artifact_hit_share": service["artifact"]["hit_rate"],
        "service.memo_hit_share": service["deploy"]["hit_rate"],
        "service.coalesced_share": service["coalesced_requests"] /
        max(service["requests"], 1),
        "service.process_submitted": cold,
        "service.thread_submitted": warm})


def _fan_out(pool: DeploymentPool, tag: int, count: int) -> float:
    """Median wall (ms) of ``count`` cold 3-target fan-outs."""
    walls = []
    for index in range(count):
        shape = wl.SHAPES[index]
        body = wl.compose(shape, edge._ORACLE_PAD + 0x1000 * tag + index)
        artifact = offline_compile(body["source"], body["name"])
        start = time.perf_counter()
        futures = pool.submit_many(artifact, shape.targets, shape.flow)
        for future, _reused in futures.values():
            future.result()
        walls.append(time.perf_counter() - start)
    pool.shutdown()
    return statistics.median(walls) * 1e3


def _seam_probe(got: Collected, count: int) -> None:
    """``service.executor_seam_ms``: one cold 3-target fan-out under
    the edge's configured executor minus the same fan-out inline."""
    def configured() -> DeploymentPool:
        return DeploymentPool(
            executor=AdaptiveExecutor("process", "thread"))

    _fan_out(configured(), 1, 1)        # pool spin-up, as in set-up
    through = _fan_out(configured(), 2, count)
    inline = _fan_out(DeploymentPool(executor="inline"), 3, count)
    got.values["service.executor_seam_ms"] = through - inline
    got.info["fanout_configured_ms"] = through
    got.info["fanout_inline_ms"] = inline


def _disk_probe(got: Collected, count: int) -> None:
    """``service.cache_disk_hit_ms``: a fresh cache over a populated
    ``persist_dir`` (kept inside the checkout)."""
    directory = measure.HERE / ".work" / "disk_probe"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        keys = []
        writer = ArtifactCache(256, directory)
        for index in range(count):
            body = wl.compose(wl.SHAPES[index],
                              edge._ORACLE_PAD + 0x4000 + index)
            key = artifact_key(body["source"], body["name"])
            writer.put(key, offline_compile(body["source"],
                                            body["name"]))
            keys.append(key)
        reader = ArtifactCache(256, directory)
        walls = []
        for key in keys:
            start = time.perf_counter()
            hit = reader.get(key)
            walls.append(time.perf_counter() - start)
            if hit is None:
                raise RuntimeError("disk probe missed its own entry")
        got.values["service.cache_disk_hit_ms"] = \
            statistics.median(walls) * 1e3
    finally:
        shutil.rmtree(directory.parent, ignore_errors=True)


def _trace_edge(workload: str, seed: int, oracle: orc.Oracle,
                scale: wl.Scale):
    got = Collected()
    expectations = edge.edge_expectations(oracle, scale)
    probes = scale.probes if workload == "edge_cold" else 0
    asyncio.run(_edge_pass(workload, seed, scale, oracle, expectations,
                           got))
    if probes:
        _seam_probe(got, probes)
    tracer = trace.Tracer()
    tracer.install(_OWN_MODULES)
    try:
        phase = asyncio.run(_edge_pass(workload, seed, scale, oracle,
                                       expectations, got, tracer))
        if probes:
            # traced, outside any operation: the in-process JIT spans
            # the process route hides, and the disk-revival spans
            _fan_out(DeploymentPool(executor="inline"), 4, probes)
            _disk_probe(got, probes)
    finally:
        tracer.uninstall()
    return tracer, got, phase


def run_traced(workload: str, seed: int, oracle: orc.Oracle,
               scale: wl.Scale):
    """The traced run is sized by ``scale``, not by a duration: a
    fixed replay, so its counters are exact."""
    if workload == "device_first_call":
        tracer, got, phase = _trace_device(seed, oracle, scale)
    elif workload == "exec_steady":
        tracer, got, phase = _trace_steady(seed, oracle, scale)
    else:
        tracer, got, phase = _trace_edge(workload, seed, oracle, scale)
    got.info["ops"] = got.attempted // 2        # per pass
    return _finish(workload, tracer, got, phase)
