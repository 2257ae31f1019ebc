"""First-class deployment flows: the registry the whole stack consumes.

The paper's claim is that one portable artifact serves many deployment
flows on heterogeneous targets.  A :class:`Flow` makes a deployment
configuration *data* instead of code: the offline pipeline spec (pass
names plus vectorize/annotation knobs), the online :class:`JITOptions`,
and which bytecode flavour ships to the device.  The global flow
:class:`~repro.registry.Registry` holds the three paper flows plus two
extended ones, and every layer — ``core.offline`` / ``core.online``,
``compare_flows``, the JIT facade, the iterative search and the
compilation service — resolves flows through it.  Adding a flow is one
:func:`register_flow` call; it immediately appears in flow comparisons,
the search space and the service cache, with no edits elsewhere.

Flows and pipeline specs are plain frozen dataclasses: hashable,
picklable and JSON-describable (the service cache keys on
:meth:`Flow.cache_key`).  Picklability is what lets a flow cross the
``ProcessExecutor`` seam — the service's process-pool deployment
backend ships ``Flow`` objects to worker processes verbatim, and
replicates the registry into workers at pool start (see
:mod:`repro.service.executors`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Tuple, Union

from repro.jit import JITOptions
from repro.opt import (
    PassManager, PassStats, STANDARD_PASS_NAMES, resolve_passes,
)
from repro.registry import Registry, UnknownNameError

#: bytecode flavours a flow may ship (see ``OfflineArtifact``)
BYTECODE_FLAVOURS = ("vector", "scalar")


class UnknownFlowError(UnknownNameError):
    """A flow name that is not registered."""
    what = "flow"


@dataclass(frozen=True)
class PipelineSpec:
    """Declarative description of the offline (µproc-independent) side.

    ``passes`` are names resolved through :func:`repro.opt.resolve_passes`
    (a ``.N`` suffix marks a repeated invocation); ``unroll`` and
    ``vectorize`` run after the pass pipeline, exactly as the iterative
    search orders them.  The annotation knobs decide what the offline
    compiler attaches to the vector bytecode.

    A spec validates when it is built, so one that exists is valid:
    every pass name resolves (else :class:`~repro.opt.UnknownPassError`),
    ``unroll`` is an int >= 1 and the flags are bools (else
    ``ValueError``; nothing is coerced).  :meth:`from_dict` is the one
    parser of the JSON form :meth:`to_dict` writes.
    """
    passes: Tuple[str, ...] = STANDARD_PASS_NAMES
    unroll: int = 1
    vectorize: bool = True
    annotate_regalloc: bool = True
    annotate_hw: bool = True

    def __post_init__(self):
        if not isinstance(self.passes, tuple) or \
                not all(isinstance(name, str) for name in self.passes):
            raise ValueError(f"pipeline field 'passes' must be a tuple of "
                             f"pass names (a list in the dict form), "
                             f"got {self.passes!r}")
        resolve_passes(self.passes)
        if type(self.unroll) is not int or self.unroll < 1:
            raise ValueError(f"pipeline field 'unroll' must be an int "
                             f">= 1, got {self.unroll!r}")
        for flag in ("vectorize", "annotate_regalloc", "annotate_hw"):
            if type(getattr(self, flag)) is not bool:
                raise ValueError(f"pipeline field {flag!r} must be a "
                                 f"bool, got {getattr(self, flag)!r}")

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PipelineSpec":
        """The spec of a :meth:`to_dict` form; an absent field takes
        its default.  ``ValueError`` on a field the spec does not have
        or a value of the wrong type."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown pipeline fields {sorted(unknown)}")
        data = dict(data)
        if isinstance(data.get("passes"), list):
            data["passes"] = tuple(data["passes"])
        return cls(**data)

    def to_dict(self) -> Dict[str, object]:
        return {"passes": list(self.passes), "unroll": self.unroll,
                "vectorize": self.vectorize,
                "annotate_regalloc": self.annotate_regalloc,
                "annotate_hw": self.annotate_hw}

    def to_json(self) -> str:
        """:meth:`to_dict` as canonical JSON, which every artifact key
        hashes.  Memoized on the (frozen) spec, as
        :meth:`Flow.cache_key` is."""
        cached = self.__dict__.get("_json")
        if cached is None:
            cached = json.dumps(self.to_dict(), sort_keys=True)
            object.__setattr__(self, "_json", cached)
        return cached

    def label(self) -> str:
        """Compact tag for search histories and reports."""
        bits = [f"p{len(self.passes)}"]
        if self.unroll > 1:
            bits.append(f"u{self.unroll}")
        if self.vectorize:
            bits.append("V")
        return "".join(bits)


#: the -O2-like default the paper flows share
DEFAULT_PIPELINE = PipelineSpec()


def run_pipeline(func, spec: PipelineSpec,
                 verify: bool = False) -> PassStats:
    """Run one function through a pipeline spec, fully instrumented.

    The returned :class:`PassStats` covers the pass pipeline plus the
    ``unroll`` and ``vectorize`` stages (recorded as pseudo-passes), so
    its total work is exactly the offline analysis effort spent on
    ``func``.
    """
    from repro.opt.unroll import unroll as unroll_pass

    manager = PassManager(resolve_passes(spec.passes), verify=verify)
    stats = manager.run(func)
    if spec.unroll > 1:
        size = sum(1 for _ in func.instructions())
        start = time.perf_counter()
        result = unroll_pass(func, spec.unroll)
        after = sum(1 for _ in func.instructions())
        stats.record("unroll", result.work, time.perf_counter() - start,
                     result.changed, size, after)
        if result.changed and spec.passes:
            # Rerun the pipeline over the unrolled body — this is the
            # point of unrolling offline: LICM/CSE/folding across what
            # used to be separate iterations, before vectorization.
            post = PassManager(resolve_passes(spec.passes),
                               verify=verify).run(func)
            for record in post.records:
                stats.record(f"post:{record.name}", record.work,
                             record.time, record.changed,
                             record.ir_before, record.ir_after)
    if spec.vectorize:
        vectorize_stage(func, stats)
    return stats


def vectorize_stage(func, stats: PassStats) -> None:
    """The last stage of :func:`run_pipeline`, recorded in ``stats`` as
    the pseudo-pass ``vectorize``.  The offline driver runs it apart
    from the stages before it: the scalar bytecode flavour is emitted
    in between."""
    from repro.opt.vectorize import vectorize as vectorize_pass

    size = sum(1 for _ in func.instructions())
    start = time.perf_counter()
    result = vectorize_pass(func)
    stats.record("vectorize", result.work, time.perf_counter() - start,
                 result.changed, size,
                 sum(1 for _ in func.instructions()))


@dataclass(frozen=True)
class Flow:
    """One deployment flow: offline spec + online options + flavour."""
    name: str
    pipeline: PipelineSpec = DEFAULT_PIPELINE
    jit: JITOptions = field(default_factory=JITOptions)
    #: which bytecode flavour ships to the device: 'vector' (annotated,
    #: vectorized) or 'scalar' (the portable baseline)
    bytecode: str = "vector"
    description: str = ""

    @property
    def charges_offline(self) -> bool:
        """Does this flow's deployment benefit from the offline
        analyses (and therefore charge ``offline_work`` to its
        budget report)?  Shipping the annotated vector flavour is
        what moves the analysis results across."""
        return self.bytecode == "vector"

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "pipeline": self.pipeline.to_dict(),
                "jit": asdict(self.jit), "bytecode": self.bytecode}

    def cache_key(self) -> str:
        """Stable identity for service memo keys: the name plus a
        digest of the full configuration, so re-registering a name
        with different knobs can never alias a cached image.

        Memoized on the (frozen, therefore immutable) flow, as
        ``TargetDesc.cache_key`` is: the edge's coalescing key and the
        deployment memo compute it on every request, and the digest
        walk (``asdict`` + JSON + sha256) is not free."""
        cached = self.__dict__.get("_cache_key")
        if cached is None:
            payload = json.dumps(self.to_dict(), sort_keys=True)
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            cached = f"{self.name}#{digest[:12]}"
            object.__setattr__(self, "_cache_key", cached)
        return cached

    def validate(self) -> "Flow":
        if self.bytecode not in BYTECODE_FLAVOURS:
            raise ValueError(
                f"flow {self.name!r}: bytecode flavour must be one of "
                f"{BYTECODE_FLAVOURS}, got {self.bytecode!r}")
        return self


#: the process-wide registry every layer resolves flows through
REGISTRY = Registry(Flow, UnknownFlowError, Flow.validate)


def register_flow(flow: Flow, replace: bool = False) -> Flow:
    """Register a flow globally; it is immediately deployable, appears
    in ``compare_flows``, the iterative search space, and is cached
    under its own key by the compilation service."""
    return REGISTRY.register(flow, replace=replace)


def unregister_flow(name: str) -> None:
    REGISTRY.unregister(name)


def as_flow(flow: Union[str, Flow]) -> Flow:
    """Accept either a registered name or a Flow object (every public
    entry point's contract)."""
    return REGISTRY.get(flow)


def flow_names() -> Tuple[str, ...]:
    return REGISTRY.names()


def registered_flows() -> Tuple[Flow, ...]:
    return REGISTRY.values()


# ---------------------------------------------------------------------------
# the built-in flows
# ---------------------------------------------------------------------------

#: hotness weight at or above which the adaptive flow spends online
#: analysis on a function (unannotated functions count as hot), and
#: at or above which both engines promote a function to tier 2 (see
#: :func:`promotes_to_tier2`).
ADAPTIVE_HOTNESS_THRESHOLD = 1


def promotes_to_tier2(module, name: str) -> bool:
    """The tier-2 hint of function ``name``: its hotness annotation in
    ``module`` clears :data:`ADAPTIVE_HOTNESS_THRESHOLD`.  The JIT
    stamps it on machine code and the VM reads it off the bytecode.
    Unlike the analysis gate, an *unprofiled* function is not
    promoted: tier-2 spends host memory per function, so it wants
    positive evidence.  Advisory only: results are identical either
    way."""
    weight = module.max_hotness(name)
    return weight is not None and weight >= ADAPTIVE_HOTNESS_THRESHOLD


register_flow(Flow(
    "offline-only",
    jit=JITOptions(use_annotations=False),
    bytecode="scalar",
    description="portable baseline: scalar bytecode through the cheap "
                "JIT, no annotations, no online analysis"))

register_flow(Flow(
    "online-only",
    jit=JITOptions(use_annotations=False, online_optimize=True,
                   online_vectorize=True),
    bytecode="scalar",
    description="the JIT re-derives everything at run time — best "
                "code, heaviest compile budget"))

register_flow(Flow(
    "split",
    jit=JITOptions(use_annotations=True),
    bytecode="vector",
    description="the paper's flow: offline analyses shipped as "
                "annotations, the JIT just trusts them"))

register_flow(Flow(
    "split-O3",
    pipeline=PipelineSpec(unroll=2),
    jit=JITOptions(use_annotations=True),
    bytecode="vector",
    description="split with an aggressive offline pipeline: 2x loop "
                "unrolling, then the pass pipeline rerun over the "
                "unrolled body (cross-iteration LICM/CSE) before "
                "vectorization"))

register_flow(Flow(
    "adaptive",
    jit=JITOptions(use_annotations=True, online_vectorize=True,
                   hotness_threshold=ADAPTIVE_HOTNESS_THRESHOLD),
    bytecode="scalar",
    description="hotness-gated online vectorization: the JIT spends "
                "its analysis budget only on functions profiled hot; "
                "the same hotness annotations drive the engines' "
                "tier-2 whole-function promotion"))
