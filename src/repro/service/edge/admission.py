"""Admission control: the edge says no *before* the system says ouch.

A serving tier absorbing "millions of users" protects its latency by
bounding the work it lets in: a bounded queue in front of the worker
pool, plus an estimated-wait gate derived from an EWMA of recent
queued jobs' service times.  Everything past the gate gets predictable
latency; everything shed gets an immediate, structured 503 with a
honest ``Retry-After`` — the overload story of the separation-kernel
papers (fail loudly at the boundary, never degrade everyone a little).

The controller is pure bookkeeping — the actual ``asyncio.Queue``
lives in the server; this module decides and accounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["AdmissionDecision", "AdmissionController"]


@dataclass
class AdmissionDecision:
    """What the gate said, and why — the 503 body is built from it."""
    admitted: bool
    reason: Optional[str] = None          # "queue_full" | "overload"
    queue_depth: int = 0
    estimated_wait_s: float = 0.0


class AdmissionController:
    """Bounded-queue admission with an estimated-wait overload gate.

    ``capacity`` bounds how many admitted requests may be queued
    (in-service requests are tracked separately); ``max_wait_s``
    bounds the *estimated* time a newly admitted request would wait
    before service starts — ``(queued + in_service) * ewma / workers``
    — so under a sustained overload the edge sheds by latency promise,
    not just by memory bound.  The EWMA (``alpha=0.2``) tracks the
    recent service-time mix of queued work only: a resident
    ``/deploy`` is answered before the gate and never reaches it.
    Until the first completion it is 0 and only the depth bound
    applies.
    """

    def __init__(self, capacity: int, max_wait_s: float,
                 workers: int):
        if capacity < 1:
            raise ValueError("admission capacity must be >= 1")
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self.capacity = capacity
        self.max_wait_s = max_wait_s
        self.workers = workers
        self.queued = 0
        self.in_service = 0
        self.ewma_service_s = 0.0
        self._alpha = 0.2

    # -- the gate -----------------------------------------------------------

    def estimated_wait_s(self) -> float:
        backlog = self.queued + self.in_service
        if backlog == 0 or self.ewma_service_s == 0.0:
            return 0.0
        return backlog * self.ewma_service_s / self.workers

    def evaluate(self) -> AdmissionDecision:
        """Decide one arrival (does not enqueue — the caller does,
        then reports through ``on_enqueue``)."""
        wait = self.estimated_wait_s()
        if self.queued >= self.capacity:
            return AdmissionDecision(False, "queue_full",
                                     self.queued, wait)
        if self.max_wait_s is not None and wait > self.max_wait_s:
            return AdmissionDecision(False, "overload",
                                     self.queued, wait)
        return AdmissionDecision(True, None, self.queued, wait)

    # -- lifecycle accounting ----------------------------------------------

    def on_enqueue(self) -> None:
        self.queued += 1

    def on_start(self) -> None:
        self.queued -= 1
        self.in_service += 1

    def on_finish(self, elapsed_s: float) -> None:
        self.in_service -= 1
        if self.ewma_service_s == 0.0:
            self.ewma_service_s = elapsed_s
        else:
            self.ewma_service_s += self._alpha * \
                (elapsed_s - self.ewma_service_s)

    def as_dict(self) -> Dict[str, object]:
        return {
            "depth": self.queued,
            "capacity": self.capacity,
            "in_service": self.in_service,
            "workers": self.workers,
            "max_wait_s": self.max_wait_s,
            "ewma_service_ms": round(self.ewma_service_s * 1e3, 3),
            "estimated_wait_ms": round(
                self.estimated_wait_s() * 1e3, 3),
        }
