"""Correctness oracle: what every measured operation is checked against.

Two independent references, neither of them the code path being timed:

* the **IR interpreter** run on the *unoptimised* lowering of the same
  source with the same prepared inputs — no optimiser, no bytecode, no
  JIT, no predecode involved;
* the **reference engine** (the string-ladder interpreters kept as the
  semantic oracle) run on the image under test, which also fixes the
  instruction and cycle counts the fast engine must reproduce.

Memory is compared as the raw heap bytes after the call, so every
output array is covered without naming it.  The one tolerance: a float
*return value* may differ from the IR interpreter's by reassociation
(the vectoriser sums lanes first; ``sdot`` is the only such kernel) and
is compared within ``FLOAT_REDUCTION_RTOL`` of max(|expected|, 1);
against the reference engine everything is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.frontend import lower_source
from repro.ir.interp import IRInterpreter
from repro.semantics import Memory
from repro.targets.registry import executor_for
from repro.vm import VM
from repro.workloads import Kernel

#: relative tolerance of a reassociated f32 reduction, against
#: max(|expected|, 1): 2**-23 per addition, a few hundred additions
FLOAT_REDUCTION_RTOL = 1e-4

#: instruction budget for oracle and measured runs alike (the default
#: budgets are sized for unit tests)
FUEL = 1 << 40


@dataclass(frozen=True)
class Observation:
    """Everything observable about one call."""
    value: object
    heap: bytes                 # heap bytes after the call
    instructions: int = 0
    cycles: int = 0


@dataclass
class Prepared:
    """One kernel's inputs, prepared once and restorable by copy."""
    args: List
    heap: bytes                 # heap bytes before the call
    heap_ptr: int

    def load_into(self, memory: Memory) -> None:
        memory.data[:len(self.heap)] = self.heap
        memory.heap_ptr = self.heap_ptr


def prepare(kernel: Kernel, n: int, seed: int) -> Prepared:
    memory = Memory()
    run = kernel.prepare(memory, n, seed)
    return Prepared(args=list(run.args),
                    heap=bytes(memory.data[:memory.heap_ptr]),
                    heap_ptr=memory.heap_ptr)


def heap_of(memory: Memory, prepared: Prepared) -> bytes:
    return bytes(memory.data[:prepared.heap_ptr])


def interpret(kernel: Kernel, prepared: Prepared) -> Observation:
    """The IR interpreter on the unoptimised lowering."""
    memory = Memory()
    prepared.load_into(memory)
    interp = IRInterpreter(lower_source(kernel.source, kernel.name),
                           memory, fuel=FUEL)
    value = interp.call(kernel.entry, list(prepared.args))
    return Observation(value, heap_of(memory, prepared))


def execute(image, kernel: Kernel, prepared: Prepared,
            engine: Optional[str] = None) -> Observation:
    """One call of ``kernel`` on a fresh memory: ``image`` is a
    compiled image (simulator / stack executor) or a bytecode module
    (the portable VM)."""
    memory = Memory()
    prepared.load_into(memory)
    if hasattr(image, "target_name"):
        result = executor_for(image, memory, fuel=FUEL, engine=engine) \
            .run(kernel.entry, list(prepared.args))
        return Observation(result.value, heap_of(memory, prepared),
                           result.instructions, result.cycles)
    vm = VM(image, memory, verify=False, fuel=FUEL, engine=engine)
    value = vm.call(kernel.entry, list(prepared.args))
    return Observation(value, heap_of(memory, prepared),
                       vm.instructions_executed, 0)


def values_agree(got, expected) -> bool:
    """Exact, except a float against the IR interpreter's float."""
    if isinstance(got, float) and isinstance(expected, float):
        return math.isclose(got, expected, rel_tol=0.0,
                            abs_tol=FLOAT_REDUCTION_RTOL *
                            max(abs(expected), 1.0))
    return repr(got) == repr(expected)


class Oracle:
    """Collects verdicts: any failure makes the run incorrect."""

    def __init__(self, corrupt: bool = False):
        #: self-test hook: poison the next expectation built, so the
        #: run must notice and exit non-zero
        self._corrupt = corrupt
        self.checks = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(what)
        return ok

    def reference(self, image, kernel: Kernel, prepared: Prepared,
                  ir: Observation, what: str) -> Observation:
        """The reference-engine observation of ``image``, itself
        checked against the IR interpreter."""
        ref = execute(image, kernel, prepared, engine="reference")
        self.expect(values_agree(ref.value, ir.value) and
                    ref.heap == ir.heap,
                    f"{what}: reference engine disagrees with the IR "
                    f"interpreter")
        if self._corrupt:
            self._corrupt = False
            ref = Observation(ref.value, ref.heap, ref.instructions + 1,
                              ref.cycles)
        return ref

    def check_run(self, got: Observation, ref: Observation,
                  what: str) -> bool:
        """A measured call against its reference: bit-exact."""
        return self.expect(
            repr(got.value) == repr(ref.value) and got.heap == ref.heap
            and got.instructions == ref.instructions
            and got.cycles == ref.cycles,
            f"{what}: got value={got.value!r} instrs="
            f"{got.instructions} cycles={got.cycles}, expected "
            f"value={ref.value!r} instrs={ref.instructions} "
            f"cycles={ref.cycles}")


# -- edge responses ----------------------------------------------------------

@dataclass
class ModuleExpectation:
    """What every ``/deploy`` response for one module shape must say."""
    code_bytes: Dict[str, int]
    jit_work: Dict[str, int]
    offline_pass_work: Dict[str, int]
    cycles: int                 # of the oracle's reference executions


def check_response(oracle: Oracle, status: int, body: Dict[str, object],
                   expected: ModuleExpectation, what: str,
                   fully_cached: Optional[bool] = None) -> bool:
    """One edge response against the inline-executor compile of the
    same shape made in set-up."""
    if status != 200:
        return oracle.expect(False, f"{what}: status {status}: {body}")
    deployments = body.get("deployments", {})
    ok = set(deployments) == set(expected.code_bytes) and all(
        d.get("ok") and
        d.get("code_bytes") == expected.code_bytes[name] and
        d.get("jit_work") == expected.jit_work[name]
        for name, d in deployments.items())
    ok = ok and body.get("offline_pass_work") == expected.offline_pass_work
    if fully_cached is not None:
        ok = ok and body.get("fully_cached") is fully_cached
    return oracle.expect(ok, f"{what}: response disagrees with the "
                             f"inline-executor compile: {body}")


def modeled_sums(expectations: List[ModuleExpectation]) -> Dict[str, int]:
    """The modeled numbers of a census of module shapes."""
    return {
        "cycles": sum(e.cycles for e in expectations),
        "jit_work": sum(sum(e.jit_work.values()) for e in expectations),
        "code_bytes": sum(sum(e.code_bytes.values())
                          for e in expectations),
        "offline_work": sum(sum(e.offline_pass_work.values())
                            for e in expectations)}
