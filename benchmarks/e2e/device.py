"""The two in-process workloads: ``device_first_call`` and
``exec_steady`` — the device side of the paper, with no offline
compiler and no service in the measured path."""

from __future__ import annotations

import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Tuple

from repro.bytecode.encode import decode_module, encode_module
from repro.bytecode.verifier import verify_module
from repro.core.offline import offline_compile
from repro.core.online import select_bytecode
from repro.jit import compile_for_target
from repro.semantics import Memory
from repro.targets.registry import executor_for
from repro.vm import VM
from repro.workloads import ALL_KERNELS

import measure
import oracle as orc
import workloads as wl

#: ``span(name)`` -> context manager; the untraced run passes nothing
Span = Callable[[str], object]


def no_span(_name: str):
    return nullcontext()


# ---------------------------------------------------------------------------
# device_first_call
# ---------------------------------------------------------------------------

@dataclass
class DeviceState:
    """Set-up product: per kernel, the PVI bytes of both flavours."""
    wires: Dict[Tuple[str, str], bytes]         # (kernel, flow) -> bytes
    offline_work: int


def build_device() -> DeviceState:
    wires, work = {}, 0
    for name, kernel in ALL_KERNELS.items():
        artifact = offline_compile(kernel.source, name)
        work += artifact.offline_work
        for flow in set(wl.FLOW_MIX):
            wires[name, flow] = encode_module(
                select_bytecode(artifact, flow))
    return DeviceState(wires, work)


def device_expectations(state: DeviceState, oracle: orc.Oracle,
                        seed: int):
    """Per kernel the prepared inputs; per census entry the reference
    observation of an image compiled here, outside the timed path."""
    prepared = {name: orc.prepare(kernel, wl.DEVICE_N, seed)
                for name, kernel in ALL_KERNELS.items()}
    ir = {name: orc.interpret(ALL_KERNELS[name], prepared[name])
          for name in ALL_KERNELS}
    refs = {}
    for entry in set(wl.DEVICE_CENSUS):
        name, target, flow = entry
        image = compile_for_target(
            decode_module(state.wires[name, flow]), target, flow)
        refs[entry] = oracle.reference(
            image, ALL_KERNELS[name], prepared[name], ir[name],
            f"device_first_call {entry}")
    return prepared, refs


def first_call(wire: bytes, entry: Tuple[str, str, str],
               prepared: orc.Prepared, span: Span = no_span):
    """One operation: PVI bytes to first result on one target.
    Returns (latency, cpu, observation, image)."""
    name, target, flow = entry
    kernel = ALL_KERNELS[name]
    with span("semantics.memory_setup"):
        memory = Memory()
        prepared.load_into(memory)
    cpu0 = time.process_time()
    start = time.perf_counter()
    module = decode_module(wire)
    verify_module(module)
    image = compile_for_target(module, target, flow)
    with span("targets.first_run"):
        result = executor_for(image, memory, fuel=orc.FUEL) \
            .run(kernel.entry, list(prepared.args))
    latency = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    got = orc.Observation(result.value, orc.heap_of(memory, prepared),
                          result.instructions, result.cycles)
    return latency, cpu, got, image


def _run_ops(ops: Iterator[int], census: int, seconds: float,
             one: Callable[[int], Tuple[float, float, bool]]):
    """Drive ``one(kind) -> (latency, cpu, ok)`` until ``seconds`` of
    operation time have passed and the cycle then under way is
    complete.  Returns operations attempted and failed, and the
    timing metrics of the run's best-case cycle — every kind of
    operation at its best (:func:`measure.best_by_kind`)."""
    latencies, cpus, failed, busy = [], [], 0, 0.0
    cap = measure.time_cap(seconds)
    while busy < seconds or len(latencies) % census:
        kind = next(ops)
        latency, cpu, ok = one(kind)
        latencies.append((kind, latency))
        cpus.append((kind, cpu))
        failed += not ok
        busy += latency
        if busy > cap:
            raise RuntimeError(f"no whole cycle within {cap:.0f} s")
    best = measure.best_by_kind(latencies).values()
    return {"attempted": len(latencies), "failed": failed,
            "throughput_ops_s": census / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "cpu_ms_per_op": sum(measure.best_by_kind(cpus).values())
            * 1e3 / census}


def run_device_first_call(seed: int, seconds: float, oracle: orc.Oracle,
                          scale: wl.Scale) -> measure.Measured:
    state, setup_s = measure.median_setup(build_device,
                                          scale.setup_repeats)
    prepared, refs = device_expectations(state, oracle, seed)
    census = len(wl.DEVICE_CENSUS)
    #: kind -> (cycles, jit work, code bytes); every repetition of a
    #: kind yields the same triple (the oracle checks it does)
    modeled_by_kind: Dict[int, Tuple[int, int, int]] = {}

    def one(index: int):
        entry = wl.DEVICE_CENSUS[index]
        latency, cpu, got, image = first_call(
            state.wires[entry[0], entry[2]], entry, prepared[entry[0]])
        modeled_by_kind[index] = (got.cycles, image.total_jit_work,
                                  image.total_code_bytes)
        return latency, cpu, oracle.check_run(
            got, refs[entry], f"device_first_call {entry}")

    timing = _run_ops(wl.device_ops(seed), census, seconds, one)
    cycles, jit_work, code_bytes = map(sum, zip(*modeled_by_kind.values()))
    return measure.Measured(
        setup_s=setup_s, peak_rss_mib=measure.peak_rss_mib([os.getpid()]),
        modeled={"cycles": cycles, "jit_work": jit_work,
                 "code_bytes": code_bytes,
                 "offline_work": state.offline_work},
        info={"census": census, "n": wl.DEVICE_N}, **timing)


# ---------------------------------------------------------------------------
# exec_steady
# ---------------------------------------------------------------------------

@dataclass
class SteadyMachine:
    """One (kernel, machine) pair: a prebuilt image on its own memory,
    warmed by one untimed call."""
    kernel: str
    machine: str
    runner: object                      # VM or target executor
    memory: Memory
    jit_work: int = 0
    code_bytes: int = 0

    def call(self, prepared: orc.Prepared) -> orc.Observation:
        entry = ALL_KERNELS[self.kernel].entry
        args = list(prepared.args)
        if isinstance(self.runner, VM):
            before = self.runner.instructions_executed
            value = self.runner.call(entry, args)
            return orc.Observation(
                value, orc.heap_of(self.memory, prepared),
                self.runner.instructions_executed - before, 0)
        result = self.runner.run(entry, args)
        return orc.Observation(result.value,
                               orc.heap_of(self.memory, prepared),
                               result.instructions, result.cycles)


@dataclass
class SteadyState:
    images: Dict[Tuple[str, str], object]       # bytecode or JIT image
    prepared: Dict[str, orc.Prepared]
    offline_work: int = 0
    machines: Dict[Tuple[str, str], SteadyMachine] = \
        field(default_factory=dict)


def compile_steady(seed: int, scale: wl.Scale) -> SteadyState:
    """Compile every kernel and JIT it for every simulated machine."""
    state = SteadyState({}, {})
    for name, kernel in ALL_KERNELS.items():
        artifact = offline_compile(kernel.source, name)
        state.offline_work += artifact.offline_work
        state.prepared[name] = orc.prepare(
            kernel, wl.steady_n(name, scale), seed)
        for machine in wl.STEADY_MACHINES:
            state.images[name, machine] = artifact.bytecode \
                if machine == "vm" else compile_for_target(
                    artifact.bytecode, machine, "split")
    return state


def warm_steady(state: SteadyState, span: Span = no_span) -> SteadyState:
    """Give every image its own memory and executor and take the one
    untimed call that builds predecode and tier-2."""
    for (name, machine), image in state.images.items():
        with span("semantics.memory_setup"):
            memory = Memory()
            state.prepared[name].load_into(memory)
        if machine == "vm":
            entry = SteadyMachine(name, machine, VM(
                image, memory, verify=False, fuel=orc.FUEL), memory)
        else:
            entry = SteadyMachine(
                name, machine, executor_for(image, memory, fuel=orc.FUEL),
                memory, image.total_jit_work, image.total_code_bytes)
        with span("vm.first_call" if machine == "vm"
                  else "targets.first_run"):
            entry.call(state.prepared[name])
        state.machines[name, machine] = entry
    return state


def build_steady(seed: int, scale: wl.Scale) -> SteadyState:
    return warm_steady(compile_steady(seed, scale))


def steady_expectations(state: SteadyState, oracle: orc.Oracle):
    refs = {}
    for name, kernel in ALL_KERNELS.items():
        ir = orc.interpret(kernel, state.prepared[name])
        for machine in wl.STEADY_MACHINES:
            refs[name, machine] = oracle.reference(
                state.images[name, machine], kernel,
                state.prepared[name], ir,
                f"exec_steady {name} on {machine}")
    return refs


def steady_call(entry: SteadyMachine, prepared: orc.Prepared,
                span: Span = no_span):
    """One operation: one call of a prebuilt, pre-warmed image."""
    prepared.load_into(entry.memory)
    cpu0 = time.process_time()
    start = time.perf_counter()
    with span("vm.steady_call" if entry.machine == "vm"
              else "targets.steady_run"):
        got = entry.call(prepared)
    return (time.perf_counter() - start, time.process_time() - cpu0,
            got)


def run_exec_steady(seed: int, seconds: float, oracle: orc.Oracle,
                    scale: wl.Scale) -> measure.Measured:
    state, setup_s = measure.median_setup(
        lambda: build_steady(seed, scale), scale.setup_repeats)
    refs = steady_expectations(state, oracle)
    census = len(wl.STEADY_CENSUS)
    cycles_by_kind: Dict[int, int] = {}

    def one(index: int):
        pair = wl.STEADY_CENSUS[index]
        latency, cpu, got = steady_call(state.machines[pair],
                                        state.prepared[pair[0]])
        cycles_by_kind[index] = got.cycles
        return latency, cpu, oracle.check_run(
            got, refs[pair], f"exec_steady {pair}")

    timing = _run_ops(wl.steady_ops(seed), census, seconds, one)
    machines = state.machines.values()
    return measure.Measured(
        setup_s=setup_s, peak_rss_mib=measure.peak_rss_mib([os.getpid()]),
        modeled={"cycles": sum(cycles_by_kind.values()),
                 "jit_work": sum(m.jit_work for m in machines),
                 "code_bytes": sum(m.code_bytes for m in machines),
                 "offline_work": state.offline_work},
        info={"census": census, "n": scale.steady_n}, **timing)
