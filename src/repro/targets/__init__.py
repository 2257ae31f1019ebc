"""Simulated hardware targets.

Each target is a :class:`~repro.targets.machine.TargetDesc`: an ISA
capability set (SIMD or not), register-file sizes per class, a cycle
cost model, a code-size model and the name of the :class:`Backend`
that compiles and executes code for it.  The default ``native``
backend JIT-compiles PVI bytecode to :class:`~repro.targets.isa.MInst`
"native" instructions and executes them on
:class:`~repro.targets.simulator.Simulator` — the stand-in for the
paper's real x86/UltraSparc/PowerPC machines (see DESIGN.md,
substitution table).  The ``stack`` backend
(:mod:`repro.targets.stackvm`) runs the portable stack bytecode
directly, wasm32-style.

The catalog is *open*: the process-wide target
:class:`~repro.registry.Registry` holds the built-in targets (Table
1's three, the heterogeneous-SoC extras, ``arm`` and ``wasm32``) and
anything user code adds with one :func:`register_target` call —
runtime-registered targets deploy through the service, appear in
``compare_flows`` and are schedulable by the KPN mapper with no
further plumbing.  Every public entry point
accepts a registered name wherever it accepts a descriptor.

The simulator has two engines (see :mod:`repro.engine` and DESIGN.md
§2): ``fast`` (default) executes predecoded, block-compiled handler
closures over flat register files (:mod:`repro.targets.dispatch`);
``reference`` is the original instruction ladder.  Cycle counts are
identical by construction — engines change host speed, never modeled
cost.
"""

from repro.targets.machine import CostModel, SizeModel, TargetDesc
from repro.targets.isa import MInst, Reg
from repro.targets.simulator import SimulationResult, Simulator
from repro.targets.dispatch import warm_module
from repro.targets.catalog import (
    ARM, DSP, HOST, PPC, SPARC, X86, TARGETS,
)
from repro.targets.registry import (
    Backend, NativeBackend, UnknownBackendError, UnknownTargetError,
    as_target, backend_for, backend_names, executor_for, get_backend,
    register_backend, register_target, registered_targets,
    target_names, unregister_target,
)
from repro.targets.stackvm import (
    StackBackend, StackExecutor, StackImage, WASM32,
)

__all__ = [
    "CostModel", "SizeModel", "TargetDesc", "MInst", "Reg",
    "Simulator", "SimulationResult", "warm_module",
    "X86", "SPARC", "PPC", "DSP", "HOST", "ARM", "WASM32",
    "TARGETS",
    "Backend", "NativeBackend",
    "UnknownTargetError", "UnknownBackendError",
    "register_target", "unregister_target", "as_target",
    "target_names", "registered_targets",
    "register_backend", "get_backend", "backend_names", "backend_for",
    "executor_for",
    "StackBackend", "StackExecutor", "StackImage",
]
