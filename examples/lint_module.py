#!/usr/bin/env python
"""Lint a module with the dataflow-analysis plane.

The offline compiler's new static-analysis plane (DESIGN.md §6) runs a
worklist dataflow solver over every function's fuel-block CFG and
records the results in a picklable FactsTable.  The same facts serve
three consumers:

1. the tier-2 JITs, which read their lane/bounds/register proofs from
   the table instead of re-deriving them (and elide OSR entry guards
   the facts prove redundant);
2. ``pvi-lint`` — findings with severities, rendered with disassembly
   context (also a console script: ``pvi-lint --workloads``);
3. the compilation service's admission gate, which refuses to deploy
   artifacts with error-severity findings.

Run:  python examples/lint_module.py
"""

from repro.analysis import (
    AdmissionError, lint_bytecode_module, module_facts,
)
from repro.bytecode.opcodes import BCInstr
from repro.core import offline_compile
from repro.service import CompilationService

SOURCE = """
int dot(int *a, int *b, int n) {
    int s = 0;
    for (int i = 0; i < n; i++)
        s += a[i] * b[i];
    return s;
}
"""


def main():
    # -- 1: facts for a clean module ----------------------------------------
    artifact = offline_compile(SOURCE, name="dot")
    table = module_facts(artifact.bytecode)
    facts = table.get("dot")
    print("facts for 'dot':")
    print(f"  fuel blocks:        {len(facts.blocks)} "
          f"({len(facts.reachable)} reachable)")
    print(f"  value ranges at entry of each block: "
          f"{len(facts.ranges)} states")

    findings = lint_bytecode_module(artifact.bytecode)
    print(f"  lint findings:      {len(findings)} "
          "(clean module, nothing to report)\n")

    # -- 2: make the module suspicious and lint again -----------------------
    # Append an unreachable tail block: still verifiable, but the
    # reachability analysis flags it as dead weight.
    func = artifact.bytecode.functions["dot"]
    func.code.append(BCInstr("const", "i32", 0))
    func.code.append(BCInstr("ret", None, None))
    findings = lint_bytecode_module(artifact.bytecode)
    print("after appending an unreachable tail block:")
    for finding in findings:
        print(f"  {finding}")

    # -- 3: the admission gate in the serving layer -------------------------
    # An unverifiable artifact (stack underflow at pc 0) never reaches
    # a JIT: the service rejects it with a structured diagnostic.
    broken = offline_compile(SOURCE, name="dot_broken")
    broken.bytecode.functions["dot"].code.insert(
        0, BCInstr("pop", None, None))
    service = CompilationService(executor="inline")
    try:
        service.deploy(broken, "x86")
    except AdmissionError as exc:
        print("\nadmission gate refused deployment:")
        print(f"  {exc}")
    stats = service.stats()
    print(f"  lint rejections counted in ServiceStats: "
          f"{stats.lint_rejections}")
    service.shutdown()


if __name__ == "__main__":
    main()
