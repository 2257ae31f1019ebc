"""Tenancy at the edge: API keys and token-bucket quotas.

The separation-kernel framing the edge borrows (Quest-V, PAPERS.md)
is *partitioned capacity*: each tenant owns a slice of the edge's
throughput, enforced before any shared resource is touched, so one
misbehaving client saturates its own bucket and nothing else.  The
admission queue downstream is the shared resource; the quota here is
the per-partition gate in front of it.  What each tenant cost is
counted by the edge, under a ``tenant`` label (``EdgeServer.counts``).

Buckets take an injectable clock so refill timing is testable without
sleeping; everything else is plain arithmetic on the event loop (one
thread — no locks needed).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Optional

from repro.service.edge.wire import WireError

__all__ = ["AuthError", "TokenBucket", "Tenant", "TenantTable"]


class AuthError(WireError):
    """401 (who are you) or 403 (you, specifically, may not)."""


class TokenBucket:
    """The classic shaper: ``burst`` capacity, ``rate`` tokens/sec.

    ``rate=None`` means unlimited (the anonymous tenant of an open
    server).  Refill happens lazily on every ``try_take`` from the
    injected ``clock``, so an idle bucket costs nothing.
    """

    def __init__(self, rate: Optional[float], burst: float = 1.0,
                 clock: Callable[[], float] = time.monotonic):
        if rate is not None and rate <= 0:
            raise ValueError("token rate must be positive (or None "
                             "for unlimited)")
        if burst <= 0:
            raise ValueError("burst capacity must be positive")
        self.rate = rate
        self.burst = float(burst)
        self.clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self.clock()
        if self.rate is not None and now > self._stamp:
            self._tokens = min(self.burst,
                               self._tokens +
                               (now - self._stamp) * self.rate)
        self._stamp = now

    def try_take(self, tokens: float = 1.0) -> bool:
        if self.rate is None:
            return True
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available (0 if now)."""
        if self.rate is None:
            return 0.0
        self._refill()
        deficit = tokens - self._tokens
        return max(0.0, deficit / self.rate)

    @property
    def available(self) -> float:
        self._refill()
        return self._tokens if self.rate is not None else float("inf")


class Tenant:
    """One paying (or at least authenticated) consumer of the edge."""

    def __init__(self, name: str, api_key: Optional[str],
                 rate: Optional[float] = None, burst: float = 8.0,
                 enabled: bool = True,
                 clock: Callable[[], float] = time.monotonic,
                 bucket: Optional[TokenBucket] = None):
        self.name = name
        self.api_key = api_key
        self.enabled = enabled
        self.bucket = bucket if bucket is not None \
            else TokenBucket(rate, burst, clock)

    def charge(self) -> None:
        """Debit one request from the quota or raise the 429."""
        if not self.bucket.try_take():
            wait = self.bucket.retry_after()
            raise WireError(
                429, "quota_exhausted",
                f"tenant {self.name!r} is over its request quota",
                retry_after=wait, detail={"tenant": self.name})


#: the tenant an *open* edge (no table configured) serves — unlimited
#: bucket, no key; a deliberate dev/bench convenience, never the
#: production shape
def anonymous_tenant() -> Tenant:
    return Tenant("anonymous", api_key=None, rate=None)


class TenantTable:
    """API-key -> :class:`Tenant` resolution with 401/403 semantics.

    Keys authenticate, tenants authorize: an unknown or missing key is
    a 401 (the edge has no idea who is asking), a known key whose
    tenant is disabled is a 403 (it knows exactly who — and the answer
    is no).  Disabling is the operator's kill switch for a tenant
    whose traffic must stop *now* without rotating keys.
    """

    def __init__(self, tenants: Iterable[Tenant] = ()):
        self._by_key: Dict[str, Tenant] = {}
        self._by_name: Dict[str, Tenant] = {}
        for tenant in tenants:
            self.add(tenant)

    def add(self, tenant: Tenant) -> Tenant:
        if tenant.api_key is None:
            raise ValueError("a table-managed tenant needs an api_key")
        if tenant.api_key in self._by_key:
            raise ValueError(f"duplicate api key for tenant "
                             f"{tenant.name!r}")
        if tenant.name in self._by_name:
            raise ValueError(f"duplicate tenant name {tenant.name!r}")
        self._by_key[tenant.api_key] = tenant
        self._by_name[tenant.name] = tenant
        return tenant

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self):
        return iter(self._by_name.values())

    def authenticate(self, api_key: Optional[str]) -> Tenant:
        if api_key is None:
            raise AuthError(401, "unauthorized",
                            "missing API key (send X-Api-Key or "
                            "Authorization: Bearer <key>)")
        tenant = self._by_key.get(api_key)
        if tenant is None:
            raise AuthError(401, "unauthorized", "unknown API key")
        if not tenant.enabled:
            raise AuthError(403, "forbidden",
                            f"tenant {tenant.name!r} is disabled",
                            detail={"tenant": tenant.name})
        return tenant

    @classmethod
    def from_config(cls, config,
                    clock: Callable[[], float] = time.monotonic) \
            -> "TenantTable":
        """Build a table from plain data (the ``--tenants`` JSON file):
        ``{"tenants": [{"name": ..., "api_key": ..., "rate": ...,
        "burst": ..., "enabled": ...}, ...]}`` — ``rate`` in
        requests/second (omit for unlimited), ``burst`` the bucket
        capacity."""
        entries = config.get("tenants", config) \
            if isinstance(config, dict) else config
        table = cls()
        for entry in entries:
            unknown = set(entry) - {"name", "api_key", "rate", "burst",
                                    "enabled"}
            if unknown:
                raise ValueError(f"unknown tenant fields "
                                 f"{sorted(unknown)}")
            table.add(Tenant(
                name=entry["name"], api_key=entry["api_key"],
                rate=entry.get("rate"),
                burst=float(entry.get("burst", 8.0)),
                enabled=bool(entry.get("enabled", True)),
                clock=clock))
        return table
