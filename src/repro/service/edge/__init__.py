"""The multi-tenant HTTP/JSON serving edge.

The network boundary of the compilation service: stdlib-asyncio HTTP
in front of :class:`~repro.service.asyncio.AsyncCompilationService`,
with API-key tenancy and token-bucket quotas (:mod:`.auth`), bounded
admission (:mod:`.admission`), adaptive cold/warm executor routing
(:mod:`.routing`), a strict JSON wire schema (:mod:`.wire`), the
server itself (:mod:`.server`, also the ``pvi-serve`` console script)
and a matching client (:mod:`.client`).
"""

from repro.service.edge.admission import (
    AdmissionController, AdmissionDecision)
from repro.service.edge.auth import (
    AuthError, Tenant, TenantTable, TokenBucket, anonymous_tenant,
)
from repro.service.edge.client import EdgeClient
from repro.service.edge.routing import AdaptiveExecutor
from repro.service.edge.server import EdgeConfig, EdgeServer
from repro.service.edge.wire import (
    WireError, error_wire, parse_compile_request, parse_deploy_request,
)

__all__ = [
    "AdmissionController", "AdmissionDecision",
    "AuthError", "Tenant", "TenantTable", "TokenBucket",
    "anonymous_tenant",
    "EdgeClient",
    "AdaptiveExecutor",
    "EdgeConfig", "EdgeServer",
    "WireError", "error_wire", "parse_compile_request",
    "parse_deploy_request",
]
