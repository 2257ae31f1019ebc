#!/usr/bin/env python
"""Quickstart: compile C once, run it anywhere, fast where possible.

The five-minute tour of the library:

1. write a numerical kernel in MiniC (the C subset);
2. run the *offline* compiler: optimization + auto-vectorization +
   split-compilation annotations, producing portable PVI bytecode;
3. execute the same bytecode everywhere —
   * interpreted by the VM (pure portability),
   * JIT-compiled for an x86-class core (vector builtins -> SIMD),
   * JIT-compiled for a SPARC-class core (vector builtins scalarized);
4. compare the simulated cycle counts: same semantics, per-target
   performance;
5. serve it: the compilation service caches the offline artifact by
   content and fans deployment out over the whole target catalog
   concurrently, so repeated requests cost microseconds.

Run:  python examples/quickstart.py
"""

from repro.core import deploy, offline_compile
from repro.lang import types as ty
from repro.semantics import Memory
from repro.service import CompilationService, CompileRequest
from repro.targets import PPC, SPARC, X86, Simulator
from repro.targets.catalog import TARGETS
from repro.vm import VM

SOURCE = """
/* Scale-and-accumulate: the BLAS 'saxpy' kernel. */
void saxpy(int n, float a, float *x, float *y) {
    for (int i = 0; i < n; i++)
        y[i] = a * x[i] + y[i];
}

int checksum(float *y, int n) {
    int s = 0;
    for (int i = 0; i < n; i++)
        s += (int)y[i];
    return s;
}
"""

N = 256


def fresh_inputs(memory):
    x = memory.alloc_array(ty.F32, [0.5 * i for i in range(N)])
    y = memory.alloc_array(ty.F32, [1.0] * N)
    return x, y


def main():
    # -- 1+2: offline compilation ------------------------------------------
    artifact = offline_compile(SOURCE, name="quickstart")
    print("offline compiler vectorized:", artifact.vectorized_functions)
    print(f"offline analysis work: {artifact.offline_work} units "
          f"({artifact.offline_time * 1000:.1f} ms)\n")

    # -- 3a: the VM runs the bytecode as-is ---------------------------------
    memory = Memory()
    x, y = fresh_inputs(memory)
    vm = VM(artifact.bytecode, memory=memory)
    vm.call("saxpy", [N, 2.0, x, y])
    reference = vm.call("checksum", [y, N])
    print(f"VM (interpreter)      checksum = {reference}")

    # -- 3b: JIT per target --------------------------------------------------
    print(f"\n{'target':8} {'cycles':>10} {'code bytes':>11}  note")
    for target in (X86, SPARC, PPC):
        compiled = deploy(artifact, target, flow="split")
        memory = Memory()
        x, y = fresh_inputs(memory)
        simulator = Simulator(compiled, memory)
        result = simulator.run("saxpy", [N, 2.0, x, y])
        check = simulator.run("checksum", [y, N]).value
        assert check == reference, "targets must agree bit-for-bit"
        note = "SIMD" if target.has_simd else "scalarized"
        print(f"{target.name:8} {result.cycles:>10} "
              f"{compiled.total_code_bytes:>11}  {note}")

    print("\nSame bytecode, same results, target-appropriate speed —")
    print("that is the paper's 'performance portability' in one run.")

    # -- 4: cached multi-target deployment (the serving layer) --------------
    service = CompilationService()
    request = CompileRequest(source=SOURCE, name="quickstart",
                             targets=list(TARGETS.values()), flow="split")
    cold = service.submit(request)
    warm = service.submit(request)
    print(f"\nservice: deployed to {len(cold.deployments)} targets "
          f"({', '.join(cold.target_names)})")
    print(f"  cold request: {cold.total_latency * 1e3:8.2f} ms "
          f"(offline compile + {len(cold.deployments)} concurrent JITs)")
    print(f"  warm request: {warm.total_latency * 1e3:8.2f} ms "
          f"(artifact cache hit, every image memoized: "
          f"{warm.fully_cached})")
    stats = service.stats()
    print(f"  artifact hit rate {stats['artifact']['hit_rate']:.0%}, "
          f"deploy memo hit rate {stats['deploy']['hit_rate']:.0%}")
    service.shutdown()


if __name__ == "__main__":
    main()
