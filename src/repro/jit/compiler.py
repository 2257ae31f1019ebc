"""The JIT compiler facade.

``JITCompiler(target, options).compile_module(bytecode)`` produces a
:class:`~repro.targets.isa.CompiledModule` ready for simulation.  The
options are the *online* half of a deployment flow (see
:mod:`repro.flows` for the registry that pairs them with offline
pipeline specs); the paper's three flows map to:

* **split** (default): trust annotations; no online analysis.  The
  offline compiler already vectorized and ranked registers; the JIT
  just decodes, scalarizes if it must, allocates and emits.
* **online-only**: ignore annotations and re-derive everything with
  the full optimizer *at compile time* — best code, but the analysis
  work is charged to the JIT budget (this is what the paper argues
  embedded JITs cannot afford).
* **offline-only**: no annotations, no online analysis — the portable
  baseline.

All stages accumulate ``jit_work`` (instructions visited, the budget
proxy) and wall-clock ``jit_time`` per function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.bytecode.annotations import (
    HotnessAnnotation, RegAllocAnnotation,
)
from repro.bytecode.module import BytecodeModule
from repro.jit.addrfold import fold_addressing
from repro.jit.codegen import generate
from repro.jit.frontend import decode_function
from repro.jit.peephole import quick_cleanup
from repro.jit.regalloc import allocate
from repro.jit.scalarize import scalarize_vectors
from repro.targets.isa import CompiledFunction, CompiledModule
from repro.targets.machine import TargetDesc


@dataclass(frozen=True)
class JITOptions:
    """Knobs selecting the online half of a deployment flow."""
    use_annotations: bool = True
    online_optimize: bool = False      # run the scalar pipeline online
    online_vectorize: bool = False     # run the auto-vectorizer online
    #: 'annotated' (consume RegAllocAnnotation when present),
    #: 'linear' (plain furthest-end linear scan), or 'local'
    #: (2010-era baseline: variables live in memory)
    regalloc_mode: str = "annotated"
    #: when set, the online analyses above run only for functions whose
    #: HotnessAnnotation weight reaches the threshold (functions with
    #: no profile count as hot) — the 'adaptive' flow's gate
    hotness_threshold: Optional[int] = None
    #: tier-2 whole-function translation hint: ``True`` marks every
    #: emitted function for promotion, ``False`` none, and ``None``
    #: (default) promotes functions whose HotnessAnnotation weight
    #: clears ADAPTIVE_HOTNESS_THRESHOLD — *unprofiled functions are
    #: not promoted* (unlike the analysis gate above, tier-2 spends
    #: host memory per promoted function, so it wants positive
    #: evidence).  Advisory only: execution results are byte-identical
    #: either way.
    tier2: Optional[bool] = None
    #: on-stack replacement hint: ``False`` opts every emitted
    #: function out of mid-call promotion (the execution tier never
    #: counts its back edges), ``True``/``None`` (default) leave the
    #: engine-level ``PVI_OSR`` policy in charge.  Advisory only, like
    #: ``tier2``.
    osr: Optional[bool] = None

    @classmethod
    def flow(cls, name: str) -> "JITOptions":
        """The online options of a *registered* flow (see
        :mod:`repro.flows`); raises ``UnknownFlowError`` otherwise."""
        from repro.flows import get_flow
        return get_flow(name).jit


class JITCompiler:
    def __init__(self, target: TargetDesc,
                 options: Optional[JITOptions] = None):
        self.target = target
        self.options = options if options is not None else JITOptions()

    def compile_module(self, module: BytecodeModule) -> CompiledModule:
        compiled = CompiledModule(self.target.name)
        for func in module:
            compiled.add(self.compile_function(module, func.name))
        # JIT output is never edited in place; freezing lets the fast
        # engine bind call targets directly at predecode time.
        compiled.freeze()
        return compiled

    def compile_function(self, module: BytecodeModule,
                         name: str) -> CompiledFunction:
        start = time.perf_counter()
        work = 0
        analysis_work = 0
        bc_func = module[name]

        lir, frontend_work = decode_function(bc_func, module.functions)
        work += frontend_work

        # Always-on linear-time local cleanup (every production JIT
        # does this much); the budget experiments compare the
        # *analysis-heavy* passes below, which stay optional.
        work += quick_cleanup(lir)

        pass_work: Dict[str, int] = {}
        analyze = self._wants_online_analysis(module, name)
        if self.options.online_optimize and analyze:
            from repro.opt import PassManager, standard_passes
            stats = PassManager(standard_passes()).run(lir)
            work += stats.total_work
            analysis_work += stats.total_work
            pass_work.update(stats.work_by_pass)
        if self.options.online_vectorize and analyze and \
                self.target.has_simd:
            from repro.opt.vectorize import vectorize
            result = vectorize(lir)
            work += result.work
            analysis_work += result.work
            pass_work["vectorize"] = \
                pass_work.get("vectorize", 0) + result.work

        if not self.target.has_simd:
            work += scalarize_vectors(lir, self.target)
            work += quick_cleanup(lir)

        work += fold_addressing(lir)

        priorities = None
        pin = None
        if self.options.regalloc_mode == "annotated" and \
                self.options.use_annotations:
            priorities = self._annotation_priorities(module, name, lir)
        elif self.options.regalloc_mode == "local":
            pin = {reg.id for reg in list(lir.params) +
                   list(getattr(lir, "local_regs", []))}

        regs = {cls: self.target.regs_of_class(cls)
                for cls in ("int", "flt", "vec")}
        allocation = allocate(lir, regs, priorities=priorities,
                              pin_to_memory=pin)
        work += allocation.work

        compiled, codegen_work = generate(lir, allocation, self.target)
        work += codegen_work
        compiled.jit_work = work
        compiled.jit_analysis_work = analysis_work
        compiled.jit_pass_work = pass_work
        compiled.jit_time = time.perf_counter() - start
        compiled.tier2_hint = self._wants_tier2(module, name)
        compiled.osr_hint = (True if self.options.osr is None
                             else bool(self.options.osr))
        return compiled

    def _wants_tier2(self, module: BytecodeModule, name: str) -> bool:
        """The tier-2 promotion gate: an explicit ``JITOptions.tier2``
        wins; otherwise promote exactly the functions whose hotness
        annotation clears the adaptive threshold (unprofiled functions
        stay on the block tier — promotion wants positive evidence)."""
        if self.options.tier2 is not None:
            return self.options.tier2
        weight = module.max_hotness(name)
        if weight is None:
            return False
        from repro.flows import ADAPTIVE_HOTNESS_THRESHOLD
        return weight >= ADAPTIVE_HOTNESS_THRESHOLD

    def _wants_online_analysis(self, module: BytecodeModule,
                               name: str) -> bool:
        """The adaptive gate: with a hotness threshold set, spend the
        online analysis budget only on functions profiled at least that
        hot.  Unprofiled functions count as hot (nothing argues they
        are cold)."""
        threshold = self.options.hotness_threshold
        if threshold is None:
            return True
        annotations = module.annotations_for(name, HotnessAnnotation)
        if not annotations:
            return True
        return max(a.weight for a in annotations) >= threshold

    def _annotation_priorities(self, module: BytecodeModule, name: str,
                               lir) -> Optional[Dict[int, int]]:
        """Map a RegAllocAnnotation's (params + locals) ranking onto the
        LIR's virtual registers.  Cheap validation: a length mismatch
        (stale annotation) is ignored rather than trusted."""
        annotations = module.annotations_for(name, RegAllocAnnotation)
        if not annotations:
            return None
        ranking = annotations[0].priorities
        expected = len(lir.params) + len(getattr(lir, "local_regs", []))
        if len(ranking) != expected:
            return None
        priorities: Dict[int, int] = {}
        for reg, rank in zip(list(lir.params) + list(lir.local_regs),
                             ranking):
            priorities[reg.id] = rank
        return priorities


def compile_for_target(module: BytecodeModule, target,
                       flow="split"):
    """One-call deployment: compile ``module`` for ``target`` (a
    descriptor or a registered name) under a flow (a registered name
    or a :class:`repro.flows.Flow`).

    Dispatches through the target's registered
    :class:`~repro.targets.registry.Backend`, so a non-native target
    (e.g. the ``wasm32`` stack machine) compiles with its own codegen
    — the native register-machine JIT above is just the default
    backend's implementation.
    """
    from repro.flows import as_flow
    from repro.targets.registry import as_target, backend_for
    target = as_target(target)
    return backend_for(target).compile(module, target, as_flow(flow))
