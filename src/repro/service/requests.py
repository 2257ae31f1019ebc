"""Batch request/response types for the compilation service.

A :class:`CompileRequest` is the unit of work a client submits: one
program plus the set of targets it must land on.  The service answers
with a :class:`DeployResult` that carries the compiled images *and*
the observability data a serving layer needs — which stages were cache
hits, and how long each took.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.offline import OfflineArtifact
from repro.flows import Flow, as_flow
from repro.service.cache import artifact_key
from repro.targets.machine import TargetDesc
from repro.targets.registry import Targetish, as_target


@dataclass(frozen=True)
class CompileRequest:
    """One program headed for one or more targets under one flow.

    ``targets`` are descriptors or registered target names (mixed
    freely) and ``flow`` is a registered flow name or a
    :class:`~repro.flows.Flow` object; the flow's offline pipeline
    spec feeds the artifact cache key, so two flows with different
    pipelines never share an artifact entry.  Unknown target or flow
    names fail the request up front with the unified
    ``UnknownTargetError`` / ``UnknownFlowError``.

    Frozen, so what it resolves to (:meth:`resolved`) and the artifact
    key hashed from its source (:meth:`artifact_key`) are memoized on
    it: the edge's coalescing key and the service's lookups share one
    registry lookup per name and one hash of the source.
    """
    source: str
    name: str = "module"
    targets: Sequence[Targetish] = ()
    flow: Union[str, Flow] = "split"
    #: offline options, keyed as ``offline_compile``'s keywords:
    #: 'pipeline' (a spec or its dict form; overrides the flow's own
    #: spec) and 'hotness' (function name -> integer weight)
    options: Optional[Dict[str, object]] = None
    #: when True, a target whose JIT raises is *recorded* (its
    #: :class:`TargetDeployment` carries the error and no image)
    #: instead of failing the whole request — partial fan-out
    #: semantics for a serving layer that should degrade, not drop
    tolerate_failures: bool = False

    def resolved(self) -> Tuple[Flow, Tuple[TargetDesc, ...]]:
        """The request's flow and targets as registered objects;
        raises ``UnknownFlowError`` / ``UnknownTargetError`` on an
        unknown name.  Memoized."""
        cached = self.__dict__.get("_resolved")
        if cached is None:
            cached = (as_flow(self.flow),
                      tuple(as_target(target) for target in self.targets))
            object.__setattr__(self, "_resolved", cached)
        return cached

    def offline_options(self) -> Dict[str, object]:
        """The offline options this request actually compiles under:
        its own options, with its flow's pipeline spec filled in
        unless they name one (this is what joins the artifact cache
        key)."""
        options = dict(self.options or {})
        options.setdefault("pipeline", self.resolved()[0].pipeline)
        return options

    def artifact_key(self) -> str:
        """The artifact cache key of this request.  Memoized, so the
        edge's coalescing key and the service's cache lookup share one
        hash of the source; raises ``ValueError`` on unknown options."""
        cached = self.__dict__.get("_artifact_key")
        if cached is None:
            cached = artifact_key(self.source, self.name,
                                  self.offline_options())
            object.__setattr__(self, "_artifact_key", cached)
        return cached


@dataclass
class CompileOutcome:
    """The offline half of a request: the (possibly cached) artifact."""
    artifact: OfflineArtifact
    key: str                    # content address in the artifact cache
    cache_hit: bool
    latency: float              # seconds spent in this call


@dataclass
class TargetDeployment:
    """One target's share of a deployment fan-out."""
    target: str
    compiled: object            # the backend's image type (None on error)
    memo_hit: bool              # image reused from the deployment memo
    latency: float
    #: the exception the JIT raised for this target, when the request
    #: tolerated failures; ``None`` on success
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class DeployResult:
    """Everything the service produced for one request."""
    name: str
    artifact_key: str
    artifact_cache_hit: bool
    offline_latency: float
    deployments: Dict[str, TargetDeployment] = field(default_factory=dict)
    total_latency: float = 0.0
    #: which flow served the request (flow name)
    flow: str = "split"
    #: offline analysis work by pass for the served artifact — the
    #: per-pass instrumentation of the flow's offline pipeline
    offline_pass_work: Dict[str, int] = field(default_factory=dict)

    def image_for(self, target_name: str):
        deployment = self.deployments[target_name]
        if deployment.error is not None:
            raise deployment.error
        return deployment.compiled

    @property
    def target_names(self) -> List[str]:
        return list(self.deployments)

    @property
    def failed_targets(self) -> List[str]:
        """Targets whose deployment errored (tolerated failures)."""
        return [name for name, d in self.deployments.items()
                if d.error is not None]

    @property
    def errors(self) -> Dict[str, BaseException]:
        return {name: d.error for name, d in self.deployments.items()
                if d.error is not None}

    @property
    def fully_cached(self) -> bool:
        """Did this request cost zero compilation anywhere?

        A deployment that *errored* is not cached work — a failed
        target means the request cannot be fully cached, whatever the
        memo said on the way in.
        """
        return self.artifact_cache_hit and \
            all(d.memo_hit and d.error is None
                for d in self.deployments.values())
