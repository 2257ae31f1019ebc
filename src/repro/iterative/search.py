"""Search over optimization configurations, evaluated by simulation.

The space is the cross product of the offline pipeline's knobs::

    unroll    in {1, 2, 4, 8}
    vectorize in {off, on}
    licm      in {off, on}
    cse       in {off, on}
    strength  in {off, on}
    ifconvert in {off, on}

128 points — small enough to enumerate for one kernel, large enough
that the fixed "-O2" default is beaten somewhere, which is the point
of the experiment (S4b).  Random sampling and hill climbing are
provided for when the space grows (they are what [21] calls
"quick and practical" evaluation).

Every candidate is a :class:`repro.flows.PipelineSpec` under the hood:
a :class:`Configuration` is just a point in the knob cube that renders
to a spec, and the *registered flows'* pipeline specs join the search
space automatically (``search_space()``), so a custom
``register_flow(...)`` is immediately a candidate the search will
evaluate — no private pass list to keep in sync with ``repro.opt``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import List, Tuple, Union

from repro.bytecode.emit import emit_module
from repro.flows import (
    Flow, PipelineSpec, as_flow, registered_flows, run_pipeline,
)
from repro.frontend import lower_source
from repro.jit import compile_for_target
from repro.semantics import Memory
from repro.targets.registry import Targetish, as_target, backend_for
from repro.workloads.kernels import Kernel

UNROLL_CHOICES = (1, 2, 4, 8)

#: anything the search can evaluate
Candidate = Union["Configuration", PipelineSpec, Flow, str]


@dataclass(frozen=True)
class Configuration:
    unroll: int = 1
    vectorize: bool = True
    licm: bool = True
    cse: bool = True
    strength: bool = True
    ifconvert: bool = True

    def label(self) -> str:
        flags = "".join(flag for flag, on in [
            ("V", self.vectorize), ("L", self.licm), ("C", self.cse),
            ("S", self.strength), ("I", self.ifconvert)] if on)
        return f"u{self.unroll}{flags or '-'}"

    def pipeline(self) -> PipelineSpec:
        """Render the knob point as a declarative pipeline spec."""
        names = ["constfold", "copyprop"]
        if self.cse:
            names.append("cse")
        names += ["dce", "simplify-cfg"]
        if self.ifconvert:
            names.append("if-convert")
        if self.licm:
            names.append("licm")
        if self.strength:
            names.append("strength")
        names += ["constfold.2", "copyprop.2"]
        if self.cse:
            names.append("cse.2")
        names += ["dce.2", "simplify-cfg.2"]
        return PipelineSpec(passes=tuple(names), unroll=self.unroll,
                            vectorize=self.vectorize,
                            annotate_regalloc=False, annotate_hw=False)


def default_configuration() -> Configuration:
    """What the fixed -O2-style pipeline does (no unrolling)."""
    return Configuration()


def all_configurations() -> List[Configuration]:
    points = []
    for unroll_factor, vec, licm_on, cse_on, strength_on, ifc in \
            itertools.product(UNROLL_CHOICES, (False, True),
                              (False, True), (False, True),
                              (False, True), (False, True)):
        points.append(Configuration(unroll_factor, vec, licm_on, cse_on,
                                    strength_on, ifc))
    return points


def _compile_key(spec: PipelineSpec) -> tuple:
    """What actually distinguishes candidates to ``compile_with`` —
    the annotation knobs do not apply there."""
    return (spec.passes, spec.unroll, spec.vectorize)


def search_space() -> List[Candidate]:
    """The knob cube plus every registered flow's pipeline spec.

    Flows whose pipelines compile identically to a cube point (all the
    built-in flows, typically) are not duplicated; a custom flow with
    a genuinely new pipeline joins as its own candidate.
    """
    space: List[Candidate] = list(all_configurations())
    seen = {_compile_key(config.pipeline()) for config in space}
    for flow in registered_flows():
        key = _compile_key(flow.pipeline)
        if key not in seen:
            space.append(flow)
            seen.add(key)
    return space


def pipeline_of(candidate: Candidate) -> PipelineSpec:
    if isinstance(candidate, Configuration):
        return candidate.pipeline()
    if isinstance(candidate, PipelineSpec):
        return candidate
    return as_flow(candidate).pipeline


def label_of(candidate: Candidate) -> str:
    if isinstance(candidate, str):
        candidate = as_flow(candidate)
    if isinstance(candidate, Flow):
        return f"flow:{candidate.name}"
    return candidate.label()


def compile_with(kernel: Kernel, candidate: Candidate,
                 target: Targetish):
    """Offline-compile ``kernel`` under ``candidate`` for ``target``
    (a descriptor or a registered name, on any backend)."""
    spec = pipeline_of(candidate)
    module = lower_source(kernel.source)
    for func in module:
        run_pipeline(func, spec)
    bytecode, _ = emit_module(module)
    return compile_for_target(bytecode, as_target(target), "split")


def evaluate(kernel: Kernel, candidate: Candidate, target: Targetish,
             n: int = 256, seed: int = 13) -> int:
    """Cycles for one run of ``kernel`` under ``candidate``."""
    target = as_target(target)
    compiled = compile_with(kernel, candidate, target)
    memory = Memory(1 << 21)
    run = kernel.prepare(memory, n, seed)
    result = backend_for(target).executor(compiled, memory).run(
        kernel.entry, run.args)
    return result.cycles


@dataclass
class SearchResult:
    best: Candidate
    best_cycles: int
    default_cycles: int
    evaluations: int
    history: List[Tuple[Candidate, int]] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Speedup of best-found over the fixed default pipeline."""
        return self.default_cycles / self.best_cycles

    @property
    def best_label(self) -> str:
        return label_of(self.best)


def _search(kernel: Kernel, target: Targetish,
            candidates: List[Candidate], n: int,
            seed: int) -> SearchResult:
    default_cycles = evaluate(kernel, default_configuration(), target,
                              n, seed)
    best: Candidate = default_configuration()
    best_cycles = default_cycles
    history: List[Tuple[Candidate, int]] = []
    for config in candidates:
        cycles = evaluate(kernel, config, target, n, seed)
        history.append((config, cycles))
        if cycles < best_cycles:
            best, best_cycles = config, cycles
    return SearchResult(best=best, best_cycles=best_cycles,
                        default_cycles=default_cycles,
                        evaluations=len(candidates) + 1,
                        history=history)


def random_search(kernel: Kernel, target: Targetish, budget: int = 24,
                  n: int = 256, seed: int = 13) -> SearchResult:
    rng = random.Random(seed)
    space = search_space()
    candidates = rng.sample(space, min(budget, len(space)))
    return _search(kernel, target, candidates, n, seed)


def hill_climb(kernel: Kernel, target: Targetish, budget: int = 24,
               n: int = 256, seed: int = 13) -> SearchResult:
    """Greedy neighbourhood descent from the default configuration."""
    current = default_configuration()
    current_cycles = evaluate(kernel, current, target, n, seed)
    default_cycles = current_cycles
    evaluations = 1
    history: List[Tuple[Candidate, int]] = [(current, current_cycles)]

    improved = True
    while improved and evaluations < budget:
        improved = False
        for neighbour in _neighbours(current):
            if evaluations >= budget:
                break
            cycles = evaluate(kernel, neighbour, target, n, seed)
            evaluations += 1
            history.append((neighbour, cycles))
            if cycles < current_cycles:
                current, current_cycles = neighbour, cycles
                improved = True
                break
    return SearchResult(best=current, best_cycles=current_cycles,
                        default_cycles=default_cycles,
                        evaluations=evaluations, history=history)


def _neighbours(config: Configuration) -> List[Configuration]:
    out = []
    index = UNROLL_CHOICES.index(config.unroll)
    if index + 1 < len(UNROLL_CHOICES):
        out.append(replace(config, unroll=UNROLL_CHOICES[index + 1]))
    if index > 0:
        out.append(replace(config, unroll=UNROLL_CHOICES[index - 1]))
    for flag in ("vectorize", "licm", "cse", "strength", "ifconvert"):
        out.append(replace(config, **{flag: not getattr(config, flag)}))
    return out
