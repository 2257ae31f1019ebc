"""The experiment implementations (one per paper artifact)."""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.paperdata import PAPER_TABLE1_RELATIVE
from repro.bytecode.encode import encoded_code_size
from repro.core import (
    Core, DeploymentManager, Platform, compare_flows, deploy,
)
from repro.flows import PipelineSpec
from repro.lang import types as ty
from repro.service import default_service
from repro.semantics import Memory
from repro.targets.machine import TargetDesc
from repro.targets.registry import Targetish, as_target, executor_for
from repro.targets.simulator import SimulationResult
from repro.workloads import REGALLOC_CORPUS, TABLE1, ALL_KERNELS
from repro.workloads.kernels import Kernel

#: Table 1's three machines, as registered names — resolved through
#: the target registry at use, never imported from the catalog.
TABLE1_TARGETS = ("x86", "sparc", "ppc")


# ---------------------------------------------------------------------------
# T1 — Table 1: split automatic vectorization
# ---------------------------------------------------------------------------

@dataclass
class Table1Row:
    kernel: str
    target: str
    scalar_cycles: int
    vector_cycles: int

    @property
    def relative(self) -> float:
        return self.scalar_cycles / self.vector_cycles

    @property
    def paper_relative(self) -> Optional[float]:
        return PAPER_TABLE1_RELATIVE.get((self.kernel, self.target))


def _simulate_kernel(kernel: Kernel, compiled, n: int,
                     seed: int) -> SimulationResult:
    memory = Memory(1 << 21)
    run = kernel.prepare(memory, n, seed)
    return executor_for(compiled, memory).run(kernel.entry, run.args)


def run_table1(n: int = 512, seed: int = 7,
               targets: Sequence[Targetish] = TABLE1_TARGETS,
               kernels: Optional[Sequence[str]] = None) -> List[Table1Row]:
    """Scalar vs split-vectorized cycles for every kernel × target."""
    service = default_service()
    targets = [as_target(t) for t in targets]
    rows: List[Table1Row] = []
    names = kernels if kernels is not None else list(TABLE1)
    for name in names:
        kernel = TABLE1[name]
        artifact = service.artifact(kernel.source)
        assert kernel.entry in artifact.vectorized_functions, \
            f"{name} failed to vectorize offline"
        for target in targets:
            scalar = deploy(artifact, target, "offline-only",
                            service=service)
            vector = deploy(artifact, target, "split", service=service)
            r_scalar = _simulate_kernel(kernel, scalar, n, seed)
            r_vector = _simulate_kernel(kernel, vector, n, seed)
            if r_scalar.value != r_vector.value:
                raise AssertionError(
                    f"{name}@{target.name}: scalar/vector results differ")
            rows.append(Table1Row(name, target.name, r_scalar.cycles,
                                  r_vector.cycles))
    return rows


# ---------------------------------------------------------------------------
# F1 / S3a — split compilation flow and JIT budget
# ---------------------------------------------------------------------------

def run_split_flow(kernel_name: str = "saxpy_fp",
                   target: Targetish = "x86",
                   n: int = 512, seed: int = 7,
                   flows: Optional[Sequence] = None) -> List:
    """The deployment flows of Figure 1 on one kernel.

    ``flows`` defaults to every registered flow (see
    :mod:`repro.flows`) — the paper's three plus ``split-O3`` and
    ``adaptive``, and any flow user code registered.
    """
    service = default_service()
    kernel = TABLE1[kernel_name]
    artifact = service.artifact(kernel.source)

    def make_args(memory: Memory):
        return kernel.prepare(memory, n, seed).args

    return compare_flows(artifact, target, kernel.entry, make_args,
                         flows=flows, service=service)


def run_jit_budget(target: Targetish = "x86", n: int = 256,
                   seed: int = 7) -> List[Tuple[str, int, int, int, float]]:
    """Aggregate online compile cost per flow over all Table 1 kernels.

    Returns rows (flow, online_work, online_analysis_work, cycles,
    online_time_ms).
    """
    from repro.core.online import FLOWS

    totals: Dict[str, List[float]] = {}
    for name in TABLE1:
        for report in run_split_flow(name, target, n, seed,
                                     flows=FLOWS):
            entry = totals.setdefault(report.flow, [0, 0, 0, 0.0])
            entry[0] += report.online_work
            entry[1] += report.online_analysis_work
            entry[2] += report.cycles
            entry[3] += report.online_time
    return [(flow, int(v[0]), int(v[1]), int(v[2]), v[3] * 1000.0)
            for flow, v in totals.items()]


# ---------------------------------------------------------------------------
# S4a — split register allocation
# ---------------------------------------------------------------------------

def _regalloc_inputs(name: str, memory: Memory, n: int,
                     seed: int) -> List:
    rng = random.Random(seed)
    if name == "poly8":
        c = memory.alloc_array(ty.I32, [rng.randrange(-9, 9)
                                        for _ in range(8)])
        xs = memory.alloc_array(ty.I32, [rng.randrange(-99, 99)
                                         for _ in range(n)])
        return [c, xs, n]
    if name == "stats":
        a = memory.alloc_array(ty.I32, [rng.randrange(-999, 999)
                                        for _ in range(n)])
        return [a, n]
    if name == "butterfly":
        re = memory.alloc_array(ty.I32, [rng.randrange(-99, 99)
                                         for _ in range(n)])
        im = memory.alloc_array(ty.I32, [rng.randrange(-99, 99)
                                         for _ in range(n)])
        return [re, im, n]
    if name == "checksum":
        data = memory.alloc_array(ty.U8, [rng.randrange(256)
                                          for _ in range(n)])
        return [data, n]
    if name == "mat4":
        a = memory.alloc_array(ty.I32, [rng.randrange(-9, 9)
                                        for _ in range(16)])
        b = memory.alloc_array(ty.I32, [rng.randrange(-9, 9)
                                        for _ in range(16)])
        c = memory.alloc_array(ty.I32, [0] * 16)
        return [a, b, c]
    raise KeyError(name)


@dataclass
class RegAllocRow:
    function: str
    k: int
    local_spill_ops: int          # 2010-era baseline JIT allocator
    linear_spill_ops: int         # plain linear scan (furthest end)
    annotated_spill_ops: int      # split register allocation
    annotated_static: int = 0

    @property
    def saving_vs_local(self) -> float:
        if self.local_spill_ops == 0:
            return 0.0
        return 1.0 - self.annotated_spill_ops / self.local_spill_ops

    @property
    def saving_vs_linear(self) -> float:
        if self.linear_spill_ops == 0:
            return 0.0
        return 1.0 - self.annotated_spill_ops / self.linear_spill_ops


def run_split_regalloc(k_values: Sequence[int] = (6, 8, 10, 12, 16),
                       n: int = 128, seed: int = 5) -> List[RegAllocRow]:
    """Dynamic spill traffic under three online allocators, per K.

    Vectorization is disabled so the deployments differ only in the
    register allocator.  'local' is the era-appropriate baseline the
    paper's 40 %-fewer-spills claim is measured against: a JIT that
    keeps program variables in memory and allocates registers only
    inside expressions.
    """
    from repro.jit import JITCompiler, JITOptions

    modes = {
        "local": JITOptions(use_annotations=False, regalloc_mode="local"),
        "linear": JITOptions(use_annotations=False,
                             regalloc_mode="linear"),
        "annotated": JITOptions(use_annotations=True,
                                regalloc_mode="annotated"),
    }
    rows: List[RegAllocRow] = []
    for name, source in REGALLOC_CORPUS.items():
        artifact = default_service().artifact(
            source, pipeline=PipelineSpec(vectorize=False))
        for k in k_values:
            target = replace(as_target("x86"), name=f"x86k{k}",
                             int_regs=k)
            spills = {}
            static = {}
            values = {}
            for mode, options in modes.items():
                compiled = JITCompiler(target, options).compile_module(
                    artifact.bytecode)
                memory = Memory(1 << 20)
                args = _regalloc_inputs(name, memory, n, seed)
                sim = executor_for(compiled, memory).run(name, args)
                spills[mode] = sim.spill_loads + sim.spill_stores
                static[mode] = sum(f.spill_slot_count
                                   for f in compiled.functions.values())
                values[mode] = sim.value
            assert len(set(map(repr, values.values()))) == 1, \
                f"{name}@K={k}: allocator changed the result"
            rows.append(RegAllocRow(
                function=name, k=k,
                local_spill_ops=spills["local"],
                linear_spill_ops=spills["linear"],
                annotated_spill_ops=spills["annotated"],
                annotated_static=static["annotated"]))
    return rows


# ---------------------------------------------------------------------------
# S2a — code size
# ---------------------------------------------------------------------------

@dataclass
class CodeSizeRow:
    kernel: str
    pvi_bytes: int
    native: Dict[str, int] = field(default_factory=dict)


def run_code_size(targets: Sequence[Targetish] = TABLE1_TARGETS) \
        -> List[CodeSizeRow]:
    service = default_service()
    targets = [as_target(t) for t in targets]
    rows: List[CodeSizeRow] = []
    for name, kernel in ALL_KERNELS.items():
        artifact = service.artifact(
            kernel.source, pipeline=PipelineSpec(vectorize=False))
        pvi = sum(encoded_code_size(f) for f in artifact.scalar_bytecode)
        row = CodeSizeRow(kernel=name, pvi_bytes=pvi)
        for target in targets:
            compiled = deploy(artifact, target, "offline-only",
                              service=service)
            row.native[target.name] = compiled.total_code_bytes
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# S4b — iterative compilation
# ---------------------------------------------------------------------------

@dataclass
class IterativeRow:
    kernel: str
    target: str
    default_cycles: int
    best_cycles: int
    best_label: str
    evaluations: int

    @property
    def speedup(self) -> float:
        return self.default_cycles / self.best_cycles


def run_iterative(kernel_names: Optional[Sequence[str]] = None,
                  target: Targetish = "x86", budget: int = 16,
                  n: int = 192) -> List[IterativeRow]:
    from repro.iterative import hill_climb

    target = as_target(target)
    names = kernel_names if kernel_names is not None else \
        ["saxpy_fp", "sum_u8", "sdot", "prefix_sum", "fir"]
    rows = []
    for name in names:
        kernel = ALL_KERNELS[name]
        result = hill_climb(kernel, target, budget=budget, n=n)
        rows.append(IterativeRow(
            kernel=name, target=target.name,
            default_cycles=result.default_cycles,
            best_cycles=result.best_cycles,
            best_label=result.best_label,
            evaluations=result.evaluations))
    return rows


# ---------------------------------------------------------------------------
# S4c — KPN on a heterogeneous platform
# ---------------------------------------------------------------------------

@dataclass
class KPNRow:
    platform: str
    host_only: float
    heterogeneous: float
    assignment: Dict[str, str] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.host_only / self.heterogeneous


def default_kpn_platforms() -> List[Platform]:
    """The three S4c platforms — compositions of registered target
    names (the registry resolves them at Core construction)."""
    return [
        Platform("host x4", [Core("host", 4)]),
        Platform("host + dsp", [Core("host", 2), Core("dsp", 1)]),
        Platform("host + dsp + big", [Core("host", 2), Core("dsp", 1),
                                      Core("x86", 1)]),
    ]


def run_kpn(blocks: int = 64,
            platforms: Optional[Sequence[Platform]] = None) \
        -> List[KPNRow]:
    from repro.kpn import (
        deploy_actor_images, estimate_costs, greedy_map, host_only_map,
        simulate_makespan,
    )
    from repro.workloads.pipeline import PIPELINE_SOURCE, build_pipeline

    service = default_service()
    artifact = service.artifact(PIPELINE_SOURCE)
    network = build_pipeline()
    if platforms is None:
        platforms = default_kpn_platforms()
    rows: List[KPNRow] = []
    for platform in platforms:
        # The three platforms overlap in core kinds; the service memo
        # means each kind's JIT runs once across the whole experiment.
        manager = DeploymentManager(platform, service=service)
        images = manager.install(artifact)
        costs = estimate_costs(network, images, platform)
        baseline = simulate_makespan(
            network, platform, host_only_map(network, platform), costs,
            blocks)
        mapping = greedy_map(network, platform, costs)
        mapped = simulate_makespan(network, platform, mapping, costs,
                                   blocks)
        actor_images = deploy_actor_images(network, artifact, platform,
                                           mapping, service)
        for actor, core in mapping.assignment.items():
            kind = platform.core_list()[core].name
            assert actor_images[actor] is images[kind], \
                "service returned a different image than the install"
        cores = platform.core_list()
        rows.append(KPNRow(
            platform=platform.name,
            host_only=baseline,
            heterogeneous=mapped,
            assignment={actor: cores[core].name
                        for actor, core in mapping.assignment.items()}))
    return rows
