"""A wasm32-style stack-machine backend: the second registered Backend.

The native backend compiles PVI bytecode down to register-machine
code (decode, scalarize, allocate, emit) and simulates it at modeled
cycle costs.  This backend is the structurally different alternative
the registry exists for: a wasm32-class device executes the portable
*stack* bytecode directly (a baseline interpreter / one-pass compiler
in the wasm tier-1 mold), so its codegen **skips register allocation
entirely** — ``compile`` is a linear validation + cost-assignment walk
and the "image" is the bytecode itself plus per-function accounting.

Execution delegates to the PVI VM (both engines), which is exactly
what makes the backend differentially verifiable: values and traps
are the VM's by construction, and the differential suite pins that
down across every workload kernel.  Cycles are modeled as a flat
interpretive dispatch cost per executed bytecode instruction
(``branch + load + alu`` of the target's cost model, i.e. the
dispatch branch, the operand touch and the op itself), so vectorized
bytecode — fewer, wider instructions — is cheaper here too and the
split-flow story survives the backend swap.

Registered on import as backend ``"stack"`` together with the
built-in :data:`WASM32` target that names it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bytecode.encode import encoded_code_size
from repro.bytecode.module import BytecodeModule
from repro.targets.machine import CostModel, SizeModel, TargetDesc
from repro.targets.registry import (
    Backend, register_backend, register_target,
)
from repro.targets.simulator import SimulationResult


@dataclass
class StackFunction:
    """Per-function accounting of one stack-backend compilation.

    Mirrors the surface the service and ``compare_flows`` read off
    :class:`~repro.targets.isa.CompiledFunction`; there is no machine
    code because the device runs the bytecode as-is.
    """
    name: str
    code_bytes: int = 0
    jit_work: int = 0
    jit_analysis_work: int = 0
    jit_time: float = 0.0
    jit_pass_work: dict = field(default_factory=dict)
    spill_slot_count: int = 0


@dataclass
class StackImage:
    """A deployed stack-machine module: the bytecode plus accounting."""
    target_name: str
    module: BytecodeModule
    functions: Dict[str, StackFunction] = field(default_factory=dict)
    #: modeled cycles per executed bytecode instruction
    dispatch_cost: int = 1
    #: which backend built (and can execute) this image —
    #: ``executor_for`` trusts this over a registry name lookup, so an
    #: image of an *unregistered* stack target still gets the right
    #: executor instead of the native-backend fallback
    backend_name: str = "stack"

    def __getitem__(self, name: str) -> StackFunction:
        return self.functions[name]

    @property
    def total_code_bytes(self) -> int:
        return sum(f.code_bytes for f in self.functions.values())

    @property
    def total_jit_work(self) -> int:
        return sum(f.jit_work for f in self.functions.values())

    @property
    def total_jit_analysis_work(self) -> int:
        return sum(f.jit_analysis_work for f in self.functions.values())

    @property
    def total_jit_pass_work(self) -> dict:
        out: dict = {}
        for func in self.functions.values():
            for name, work in func.jit_pass_work.items():
                out[name] = out.get(name, 0) + work
        return out


class StackExecutor:
    """Runs a :class:`StackImage` on the PVI VM, counting cycles.

    Values and traps are the VM's own (that is the point — see the
    module docstring); cycles and instruction counts come from the
    VM's fuel accounting scaled by the image's dispatch cost.
    """

    def __init__(self, image: StackImage, memory=None,
                 fuel: Optional[int] = None,
                 engine: Optional[str] = None):
        from repro.vm.interpreter import DEFAULT_FUEL, VM
        self.image = image
        self.vm = VM(image.module, memory, verify=False,
                     fuel=DEFAULT_FUEL if fuel is None else fuel,
                     engine=engine)

    @property
    def memory(self):
        return self.vm.memory

    def run(self, name: str, args) -> SimulationResult:
        before = self.vm.instructions_executed
        value = self.vm.call(name, list(args))
        executed = self.vm.instructions_executed - before
        return SimulationResult(
            value=value,
            cycles=executed * self.image.dispatch_cost,
            instructions=executed,
        )


class StackBackend(Backend):
    """Backend protocol implementation for stack-machine targets."""

    name = "stack"

    def compile(self, bytecode: BytecodeModule, target: TargetDesc,
                flow) -> StackImage:
        costs = target.costs
        image = StackImage(
            target_name=target.name,
            module=bytecode,
            dispatch_cost=costs.branch + costs.load + costs.alu,
        )
        for func in bytecode:
            start = time.perf_counter()
            # One linear walk: the baseline-compiler stand-in.  Work
            # is instructions visited — the whole online budget, and
            # none of it analysis (nothing here to re-derive).
            work = len(func.code)
            entry = StackFunction(
                name=func.name,
                code_bytes=encoded_code_size(func) +
                target.sizes.prologue_bytes,
                jit_work=work,
            )
            entry.jit_time = time.perf_counter() - start
            image.functions[func.name] = entry
        return image

    def executor(self, image: StackImage, memory=None, *,
                 fuel: Optional[int] = None,
                 engine: Optional[str] = None) -> StackExecutor:
        return StackExecutor(image, memory, fuel=fuel, engine=engine)


#: wasm32-class stack-machine target: SIMD128-capable (the VM executes
#: PVI vector bytecode natively), no meaningful register file (the
#: operand stack is the register file), compact variable-length
#: encoding.  ``int_regs``/``flt_regs`` are nominal — the stack
#: backend never allocates registers.
WASM32 = TargetDesc(
    name="wasm32",
    description="wasm32-class stack machine: portable bytecode "
                "executed by a baseline interpreter tier",
    has_simd=True,
    int_regs=0,
    flt_regs=0,
    vec_regs=0,
    costs=CostModel(
        # dispatch_cost = branch + load + alu = 4 cycles per op: the
        # dispatch branch, the operand-stack touch, the op itself.
        alu=1, load=2, store=2, branch=1, jump=1,
    ),
    sizes=SizeModel(fixed=0, alu_bytes=2, mem_bytes=2, imm_extra=2,
                    branch_bytes=2, call_bytes=3, vec_bytes=2,
                    prologue_bytes=4),
    clock_scale=1.0,
    backend="stack",
)

register_backend(StackBackend())
register_target(WASM32)
