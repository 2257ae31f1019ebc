"""Experiment A1 — the dataflow-analysis plane's cost and payoff.

The split thesis applied to the analysis plane itself: the worklist
solvers (DESIGN.md §6) run once, offline, per content token — so
their wall-clock must stay in the "offline is allowed to be slow"
budget (milliseconds per function), while their product pays off
online as elided OSR entry guards in both tier-2 engines and as the
deploy-time admission lint.

Reported per kernel: analysis wall-clock split by who reads the
result, fuel blocks, proven lane locals and access widths; plus the
OSR guard-elision counters from warming each engine and a tier-2
throughput floor check against the block-threaded tier (tier-2 with
facts must never be slower than the tier it replaces).

The split: "tier-2 facts" is the lane/tuple fixpoint
(``passes.lane_fixpoint``), run by the offline compiler and shipped
as a bytecode annotation (a VM tier-2 build over a module without one
runs exactly this and nothing else); "lint facts" is ``module_facts``
(value ranges, definite initialization, liveness, findings), read by
the admission gate and ``pvi-lint`` only.  Neither calls the other;
both are timed directly.
"""

import time

import pytest

from repro.analysis import module_facts
from repro.analysis.passes import lane_fixpoint
from repro.bench import format_table
from repro.bytecode.annotations import LaneFactsAnnotation
from repro.core import deploy, offline_compile
from repro.semantics import Memory
from repro.targets import X86, dispatch
from repro.tiers import template_stats
from repro.vm import VM, threaded
from repro.workloads import ALL_KERNELS

from conftest import SMOKE, register_report

#: the OSR row: a vectorized loop whose tier-2 entries carry lane
#: guards the analysis proves redundant
OSR_KERNEL = "saxpy_fp"
KERNELS = [OSR_KERNEL] if SMOKE else sorted(ALL_KERNELS)
N = 64 if SMOKE else 512
ROUNDS = 2 if SMOKE else 8


def _fresh_facts(module):
    """``module_facts`` with every function's cached table dropped."""
    for func in module.functions.values():
        if hasattr(func, "_pvi_facts_cache"):
            del func._pvi_facts_cache
    return module_facts(module)


def _timed_facts(module):
    """``(table, tier-2 facts ms, lint facts ms)``: one lane walk per
    function, one fresh ``module_facts``."""
    start = time.perf_counter()
    for func in module.functions.values():
        lane_fixpoint(func)
    lane_s = time.perf_counter() - start
    start = time.perf_counter()
    table = _fresh_facts(module)
    return table, lane_s * 1e3, (time.perf_counter() - start) * 1e3


def _analysis_row(name):
    kernel = ALL_KERNELS[name]
    artifact = offline_compile(kernel.source, name)
    # best of ROUNDS by total: one run is mostly first-call noise
    table, tier2_ms, lint_ms = min(
        (_timed_facts(artifact.bytecode) for _ in range(ROUNDS)),
        key=lambda timed: timed[1] + timed[2])
    blocks = sum(len(f.blocks) for f in table.functions.values()
                 if f is not None)
    shipped = [a for a in artifact.bytecode.annotations
               if isinstance(a, LaneFactsAnnotation)]
    assert len(shipped) == len(table.functions)
    lanes = sum(len(a.lane_locals) for a in shipped)
    widths = sorted({w for a in shipped for w in a.access_widths})
    return artifact, table, (name, len(table.functions), blocks,
                             lanes, widths, f"{tier2_ms:.2f}",
                             f"{lint_ms:.2f}")


def _guard_counters(name):
    """Warm both tier-2 engines on a *fresh* artifact (machine facts
    are cached on the function objects, so a pre-analyzed image would
    hide the warm-path provenance); return the build-site counters."""
    kernel = ALL_KERNELS[name]
    artifact = offline_compile(kernel.source, name)
    threaded.reset_tier2_build_stats()
    threaded.warm_bytecode_module(artifact.bytecode)
    vm_stats = threaded.tier2_build_stats()
    compiled = deploy(artifact, X86, flow="split")
    dispatch.reset_tier2_build_stats()
    dispatch.warm_module(compiled)
    sim_stats = dispatch.tier2_build_stats()
    return artifact, vm_stats, sim_stats


def _vm_throughput(bytecode, kernel, engine):
    """Instructions per second over ROUNDS runs of the kernel."""
    best = 0.0
    for _ in range(ROUNDS):
        memory = Memory(1 << 21)
        run = kernel.prepare(memory, N)
        vm = VM(bytecode, memory=memory, engine=engine)
        start = time.perf_counter()
        vm.call(kernel.entry, run.args)
        elapsed = time.perf_counter() - start
        best = max(best, vm.instructions_executed / elapsed)
    return best


@pytest.fixture(scope="module")
def analysis_data():
    rows = []
    per_kernel = {}
    for name in KERNELS:
        artifact, table, row = _analysis_row(name)
        rows.append(row)
        per_kernel[name] = {
            "functions": row[1], "blocks": row[2],
            "lane_locals": row[3], "tier2_facts_ms": float(row[5]),
            "lint_facts_ms": float(row[6]),
        }

    osr_artifact, vm_stats, sim_stats = _guard_counters(OSR_KERNEL)
    kernel = ALL_KERNELS[OSR_KERNEL]
    fast_ips = _vm_throughput(osr_artifact.bytecode, kernel, "fast")
    tier2_ips = _vm_throughput(osr_artifact.bytecode, kernel, "tier2")

    table = format_table(
        ["kernel", "funcs", "blocks", "lane locals", "widths",
         "tier-2 facts ms", "lint facts ms"],
        rows,
        title="Dataflow plane cost per workload kernel")
    guards = format_table(
        ["engine", "tables computed", "guards elided", "guards kept"],
        [("vm tier-2", vm_stats["facts_warm"],
          vm_stats["guards_elided"], vm_stats["guards_kept"]),
         ("sim tier-2", sim_stats["facts_warm"],
          sim_stats["guards_elided"], sim_stats["guards_kept"])],
        title=f"OSR guard elision after warming '{OSR_KERNEL}'")
    register_report(
        "analysis", table + "\n\n" + guards,
        data={
            "kernels": per_kernel,
            "osr": {
                "kernel": OSR_KERNEL,
                "vm": {k: vm_stats[k] for k in
                       ("facts_warm", "guards_elided", "guards_kept")},
                "sim": {k: sim_stats[k] for k in
                        ("facts_warm", "guards_elided", "guards_kept")},
            },
            "throughput_ips": {"fast": fast_ips, "tier2": tier2_ips},
            "templates": template_stats(),
        })
    return {"per_kernel": per_kernel, "vm": vm_stats, "sim": sim_stats,
            "fast_ips": fast_ips, "tier2_ips": tier2_ips}


class TestAnalysisPlane:
    def test_analysis_stays_in_offline_budget(self, analysis_data):
        # milliseconds per module, not seconds: the offline side is
        # allowed to be slow, but not *that* slow
        for name, entry in analysis_data["per_kernel"].items():
            assert entry["tier2_facts_ms"] + entry["lint_facts_ms"] \
                < 500.0, name

    def test_osr_row_elides_guards_on_both_engines(self, analysis_data):
        assert analysis_data["vm"]["guards_elided"] > 0
        assert analysis_data["sim"]["guards_elided"] > 0
        assert analysis_data["vm"]["guards_kept"] == 0
        assert analysis_data["sim"]["guards_kept"] == 0

    def test_warming_prepays_facts(self, analysis_data):
        # the VM's tables shipped with the bytecode: none computed
        assert analysis_data["vm"]["warm"] > 0
        assert analysis_data["vm"]["facts_warm"] == 0
        assert analysis_data["sim"]["facts_warm"] > 0
        assert analysis_data["vm"]["facts_request"] == 0
        assert analysis_data["sim"]["facts_request"] == 0

    def test_tier2_throughput_floor(self, analysis_data):
        # the facts-fed tier-2 must not fall below the block tier it
        # supersedes (generous margin: timing noise, CI machines)
        assert analysis_data["tier2_ips"] > \
            0.5 * analysis_data["fast_ips"]


def test_bench_analysis_measurement(benchmark):
    artifact = offline_compile(ALL_KERNELS[OSR_KERNEL].source,
                               OSR_KERNEL)

    table = benchmark.pedantic(_fresh_facts, (artifact.bytecode,),
                               rounds=ROUNDS, iterations=1)
    assert table.functions
