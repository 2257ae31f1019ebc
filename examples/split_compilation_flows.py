#!/usr/bin/env python
"""Figure 1, hands-on: where should optimization effort live?

Deploys the same program three ways and prints the trade-off triangle
the paper draws:

* offline-only — portable bytecode run through a cheap JIT: lowest
  compile cost, slowest code;
* online-only  — the JIT re-derives loop structure, dependences and
  vector code at run time: fastest code, heaviest compile budget;
* split        — the offline compiler did the analyses and left
  annotations: the same fast code at (almost) the cheap JIT's price.

Also demonstrates split register allocation on a register-starved
core, and that a corrupted annotation degrades performance only —
never correctness.

Run:  python examples/split_compilation_flows.py
"""

from dataclasses import replace

from repro.bench import format_table
from repro.bytecode.annotations import RegAllocAnnotation
from repro.core import PipelineSpec, compare_flows, offline_compile
from repro.jit import JITCompiler, JITOptions
from repro.semantics import Memory
from repro.targets import X86, Simulator
from repro.workloads import REGALLOC_CORPUS, TABLE1


def flows_demo():
    kernel = TABLE1["sum_u8"]
    artifact = offline_compile(kernel.source)

    def make_args(memory):
        return kernel.prepare(memory, 512, seed=3).args

    reports = compare_flows(artifact, X86, kernel.entry, make_args)
    print(format_table(
        ["flow", "offline work", "online work", "online analysis",
         "cycles"],
        [(r.flow, r.offline_work, r.online_work,
          r.online_analysis_work, r.cycles) for r in reports],
        title="sum_u8 on x86 under the three deployment flows"))
    print("\nReading: the split row matches online-only's cycles with "
          "zero online analysis —\nthe expensive thinking happened "
          "once, offline, for every future target.\n")


def regalloc_demo():
    source = REGALLOC_CORPUS["stats"]
    artifact = offline_compile(source,
                               pipeline=PipelineSpec(vectorize=False))
    starved = replace(X86, name="x86-k10", int_regs=10)

    rows = []
    for label, options in (
            ("local (2010 JIT)", JITOptions(use_annotations=False,
                                            regalloc_mode="local")),
            ("linear scan", JITOptions(use_annotations=False,
                                       regalloc_mode="linear")),
            ("split (annotated)", JITOptions(use_annotations=True))):
        compiled = JITCompiler(starved, options).compile_module(
            artifact.bytecode)
        memory = Memory()
        import random
        rng = random.Random(5)
        from repro.lang import types as ty
        a = memory.alloc_array(ty.I32, [rng.randrange(-999, 999)
                                        for _ in range(128)])
        result = Simulator(compiled, memory).run("stats", [a, 128])
        rows.append((label, result.spill_loads + result.spill_stores,
                     result.cycles, result.value))
    values = {row[3] for row in rows}
    assert len(values) == 1, "allocators must not change results"
    print(format_table(
        ["online allocator", "spill ops", "cycles", "result"],
        rows,
        title="Split register allocation on a 10-register core "
              "('stats' kernel)"))
    print()


def hostile_annotation_demo():
    kernel = TABLE1["sum_u8"]
    artifact = offline_compile(kernel.source)
    # Sabotage: invert every spill priority.
    for ann in artifact.bytecode.annotations:
        if isinstance(ann, RegAllocAnnotation):
            top = max(ann.priorities) + 1
            ann.priorities = [top - p for p in ann.priorities]
    starved = replace(X86, name="x86-k8", int_regs=8)
    compiled = JITCompiler(starved).compile_module(artifact.bytecode)
    memory = Memory()
    run = kernel.prepare(memory, 256, seed=8)
    result = Simulator(compiled, memory).run(kernel.entry, run.args)
    expected = sum(memory.read_array(
        __import__("repro.lang.types", fromlist=["U8"]).U8,
        run.args[0], 256))
    assert result.value == expected
    print("hostile-annotation run: result still correct "
          f"({result.value}), only the spill count suffers "
          f"({result.spill_loads + result.spill_stores} spill ops).")
    print("Annotations steer performance; the verifier and the JIT's "
          "validation keep them out of the trusted base.")


if __name__ == "__main__":
    flows_demo()
    regalloc_demo()
    hostile_annotation_demo()
