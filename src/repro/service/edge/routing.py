"""Adaptive executor routing: cold fan-outs to processes, warm to threads.

The executor redesign (PR 5) set out the two substrates' economics:
worker *processes* for cold JIT fan-out (many distinct compiles can
run past the GIL, at a serialize/pickle toll per job — a win no
committed bench row shows yet, DESIGN.md §5), worker *threads* for
warm traffic (no seam toll; the GIL is irrelevant for the rare
single compile a warm artifact still needs).  A serving
edge sees both mixes at once, so :class:`AdaptiveExecutor` routes per
submission instead of making the operator pick one:

* an artifact never compiled through this executor before is **cold**
  — its whole first fan-out goes to the process route;
* an artifact with at least one *completed* compile is **warm** — a
  straggler target arriving later rides the thread route.

Memoized images never reach any executor (the pool's memo sits above
this seam), so "warm traffic" here is precisely the residual compile
work warm artifacts still generate.  Per-route counters are the
policy's proof — the edge surfaces them in ``/stats`` and the bench
asserts cold traffic landed on the process route and warm traffic on
the thread route.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict

from concurrent.futures import Future

from repro.service.cache import artifact_fingerprint
from repro.service.executors import (
    DeployExecutor, Executorish, as_executor,
)

__all__ = ["AdaptiveExecutor"]

#: remembered fingerprints — enough for any realistic working set of
#: hot artifacts; falling out of the window just means one fan-out is
#: re-classified cold (a conservative mistake: processes still work)
_SEEN_CAP = 1024


class AdaptiveExecutor(DeployExecutor):
    """Route each JIT compile to the substrate its temperature wants.

    ``cold``/``warm`` accept executor names or instances (default
    ``process`` / ``thread``); tests inject ``inline`` for both and
    still get the routing counters.  The adaptive layer's own
    :class:`ExecutorStats` aggregates both routes (that is what
    ``ServiceStats.deploy_executors`` reports for the pool), and
    :meth:`route_counters` breaks the traffic down per route.
    """

    name = "adaptive"

    def __init__(self, cold: Executorish = "process",
                 warm: Executorish = "thread"):
        super().__init__()
        self.cold = as_executor(cold)
        self.warm = as_executor(warm)
        #: fingerprints with >= 1 completed compile (bounded LRU);
        #: guarded by ``_route_lock`` — submissions come from caller
        #: threads, completions from executor worker threads
        self._seen: "OrderedDict[str, bool]" = OrderedDict()
        self._route_lock = threading.Lock()
        self._route_submits = {"cold": 0, "warm": 0}

    # -- classification -----------------------------------------------------

    def classify(self, artifact) -> str:
        """``"warm"`` iff this artifact has completed a compile here
        before.  Completion-based (not submission-based) so every
        target of the *first* fan-out classifies cold together — the
        fan-out is the unit the process pool wins on."""
        fingerprint = artifact_fingerprint(artifact)
        with self._route_lock:
            if fingerprint in self._seen:
                self._seen.move_to_end(fingerprint)
                return "warm"
        return "cold"

    def _mark_seen(self, fingerprint: str) -> None:
        with self._route_lock:
            self._seen[fingerprint] = True
            self._seen.move_to_end(fingerprint)
            while len(self._seen) > _SEEN_CAP:
                self._seen.popitem(last=False)

    # -- DeployExecutor protocol --------------------------------------------

    def submit(self, compile_fn: Callable, artifact, target,
               flow) -> Future:
        route = self.classify(artifact)
        executor = self.cold if route == "cold" else self.warm
        with self._route_lock:
            self._route_submits[route] += 1
        fingerprint = artifact_fingerprint(artifact)
        future = executor.submit(compile_fn, artifact, target, flow)

        def _done(settled: Future) -> None:
            if not settled.cancelled() and \
                    settled.exception() is None:
                self._mark_seen(fingerprint)

        future.add_done_callback(_done)
        return self._track(future)

    def shutdown(self, wait: bool = True) -> None:
        self.cold.shutdown(wait=wait)
        self.warm.shutdown(wait=wait)

    # -- observability ------------------------------------------------------

    def route_counters(self) -> Dict[str, object]:
        """The policy's proof: per-route submission counts plus each
        route's executor identity and live stats."""
        with self._route_lock:
            cold_n = self._route_submits["cold"]
            warm_n = self._route_submits["warm"]
            known = len(self._seen)
        return {
            "policy": "first-fanout-cold",
            "cold": {"executor": self.cold.name,
                     "submitted": cold_n,
                     "stats": self.cold.stats.as_dict()},
            "warm": {"executor": self.warm.name,
                     "submitted": warm_n,
                     "stats": self.warm.stats.as_dict()},
            "known_artifacts": known,
        }
