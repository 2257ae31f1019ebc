"""Batch request/response types for the compilation service.

A :class:`CompileRequest` is the unit of work a client submits: one
program plus the set of targets it must land on.  The service answers
with a :class:`DeployResult` that carries the compiled images *and*
the observability data a serving layer needs — which stages were cache
hits, and how long each took.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.offline import OfflineArtifact
from repro.flows import Flow
from repro.targets.registry import Targetish


@dataclass
class CompileRequest:
    """One program headed for one or more targets under one flow.

    ``targets`` are descriptors or registered target names (mixed
    freely) and ``flow`` is a registered flow name or a
    :class:`~repro.flows.Flow` object; the flow's offline pipeline
    spec feeds the artifact cache key, so two flows with different
    pipelines never share an artifact entry.  Unknown target or flow
    names fail the request up front with the unified
    ``UnknownTargetError`` / ``UnknownFlowError``.
    """
    source: str
    name: str = "module"
    targets: Sequence[Targetish] = ()
    flow: Union[str, Flow] = "split"
    #: offline_compile keyword options (see DEFAULT_OFFLINE_OPTIONS);
    #: a 'pipeline' entry here overrides the flow's own pipeline spec
    options: Optional[Dict[str, object]] = None
    #: when True, a target whose JIT raises is *recorded* (its
    #: :class:`TargetDeployment` carries the error and no image)
    #: instead of failing the whole request — partial fan-out
    #: semantics for a serving layer that should degrade, not drop
    tolerate_failures: bool = False


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


@dataclass
class ServiceStats:
    """Aggregate service-level counters (snapshot, not live).

    Aggregates roll up from the sharded artifact cache (per-shard
    counters in ``artifact_shards``) and the deployment executor
    (per-executor counters in ``deploy_executors``); ``as_dict()`` is
    the machine-readable form the benches emit into ``BENCH_*.json``.
    """
    artifact_hits: int = 0
    artifact_disk_hits: int = 0
    artifact_misses: int = 0
    artifact_stores: int = 0
    artifact_evictions: int = 0
    artifact_corrupt_entries: int = 0
    #: persist-side I/O failures (unreadable or unwritable entries) —
    #: distinct from decode corruption: the entry may be fine, the
    #: filesystem is not, so nothing is self-healed
    artifact_io_errors: int = 0
    deploy_compiles: int = 0
    deploy_memo_hits: int = 0
    deploy_evictions: int = 0
    requests: int = 0
    #: requests whose offline half joined a compile another request
    #: already had in flight (the offline single-flight's joiners)
    coalesced_requests: int = 0
    total_offline_latency: float = 0.0
    total_deploy_latency: float = 0.0
    #: wall clock spent by coalesced requests *waiting* on work some
    #: other request was already doing — kept out of the latency
    #: totals above so those reflect real compilation effort
    total_coalesced_wait: float = 0.0
    #: warn-severity admission-lint findings surfaced at deploy time
    #: (one entry per finding, ``LintFinding.as_dict()`` form; each
    #: artifact's findings are recorded once, however many targets it
    #: fans out to).  ``error`` findings never appear here — they
    #: reject the deployment with ``AdmissionError`` and are counted
    #: in ``lint_rejections``.
    lint_findings: List[Dict[str, object]] = field(default_factory=list)
    #: deployments refused by the admission gate (error findings)
    lint_rejections: int = 0
    #: deployment traffic per flow name: {flow: {"compiles": n,
    #: "memo_hits": m}} — registered custom flows appear here the
    #: moment they are first deployed
    deploy_by_flow: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: per-shard artifact cache counters, in shard order
    artifact_shards: List[Dict[str, object]] = field(default_factory=list)
    #: per-executor deployment counters: {executor name: counters}
    deploy_executors: Dict[str, Dict[str, object]] = \
        field(default_factory=dict)

    @property
    def artifact_hit_rate(self) -> float:
        lookups = (self.artifact_hits + self.artifact_disk_hits +
                   self.artifact_misses)
        if lookups == 0:
            return 0.0
        return (self.artifact_hits + self.artifact_disk_hits) / lookups

    @property
    def deploy_hit_rate(self) -> float:
        total = self.deploy_compiles + self.deploy_memo_hits
        if total == 0:
            return 0.0
        return self.deploy_memo_hits / total

    def as_dict(self) -> Dict[str, object]:
        """The full snapshot as plain JSON-able data (bench output,
        dashboards, log lines)."""
        return {
            "requests": self.requests,
            "coalesced_requests": self.coalesced_requests,
            "artifact": {
                "hits": self.artifact_hits,
                "disk_hits": self.artifact_disk_hits,
                "misses": self.artifact_misses,
                "stores": self.artifact_stores,
                "evictions": self.artifact_evictions,
                "corrupt_entries": self.artifact_corrupt_entries,
                "io_errors": self.artifact_io_errors,
                "hit_rate": self.artifact_hit_rate,
                "shards": list(self.artifact_shards),
            },
            "deploy": {
                "compiles": self.deploy_compiles,
                "memo_hits": self.deploy_memo_hits,
                "evictions": self.deploy_evictions,
                "hit_rate": self.deploy_hit_rate,
                "by_flow": {name: dict(entry) for name, entry
                            in self.deploy_by_flow.items()},
                "executors": {name: dict(entry) for name, entry
                              in self.deploy_executors.items()},
            },
            "lint": {
                "findings": [dict(entry) for entry in
                             self.lint_findings],
                "rejections": self.lint_rejections,
            },
            "latency": {
                "offline_s": self.total_offline_latency,
                "deploy_s": self.total_deploy_latency,
                "coalesced_wait_s": self.total_coalesced_wait,
            },
        }
