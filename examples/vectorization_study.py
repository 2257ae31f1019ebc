#!/usr/bin/env python
"""Reproduce the paper's Table 1 interactively, then look inside.

Beyond the headline table this example shows *why* the numbers come
out the way they do, by disassembling the portable bytecode and
dumping the per-target native code for one kernel — the whole split
story in one place:

* the offline compiler emits `vec.*` builtins once;
* the x86 JIT maps them onto SIMD instructions;
* the PPC JIT unrolls them into scalar registers;
* the SPARC JIT (16-lane u8 vector vs 16 usable registers) emulates
  them through a memory temporary — which is exactly why the paper's
  UltraSparc column dips below 1.0 for the sub-word kernels.

Run:  python examples/vectorization_study.py
"""

from repro.bench import format_table, run_table1
from repro.bytecode import disassemble
from repro.core import as_target, deploy, offline_compile
from repro.workloads import TABLE1


def main():
    rows = run_table1(n=512)
    print(format_table(
        ["benchmark", "target", "scalar", "vect.", "relative", "paper"],
        [(r.kernel, r.target, r.scalar_cycles, r.vector_cycles,
          r.relative, r.paper_relative) for r in rows],
        title="Table 1 reproduction (simulated cycles, n=512)"))

    # ---- look inside one kernel ------------------------------------------
    kernel = TABLE1["sum_u8"]
    artifact = offline_compile(kernel.source)

    print("\n===== portable bytecode (one copy, every target) =====")
    print(disassemble(artifact.bytecode))

    for target_name, flow_note in (("x86", "vector builtins -> SIMD"),
                                   ("sparc", "memory-temp emulation"),
                                   ("ppc", "memory-temp emulation")):
        target = as_target(target_name)
        compiled = deploy(artifact, target, "split")
        func = compiled[kernel.entry]
        print(f"\n===== {target_name} native code ({flow_note}; "
              f"{len(func.code)} instructions, "
              f"{func.code_bytes} bytes) =====")
        for index, instr in enumerate(func.code[:28]):
            print(f"  {index:3}: {instr!r}")
        if len(func.code) > 28:
            print(f"  ... {len(func.code) - 28} more")


if __name__ == "__main__":
    main()
