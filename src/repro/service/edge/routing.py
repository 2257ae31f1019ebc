"""Adaptive executor routing: cold requests to processes, warm to threads.

The two substrates' economics (DESIGN.md §5): worker *processes* for
cold requests, whose offline compile and JIT fan-out run past the
serving process's GIL at a pickle toll per job — on the 2-core
``edge_cold`` rows, +33 % throughput over keeping the offline compile
in the serving process; worker *threads* for warm traffic (no seam
toll; the GIL is irrelevant for the rare single compile a warm
artifact still needs).  A serving edge sees both mixes at once, so
:class:`AdaptiveExecutor` routes per fan-out instead of making the
operator pick one:

* an offline compile is **cold** by definition — the artifact does
  not exist yet — and goes to the process route;
* an artifact never compiled through this executor before is **cold**
  — its whole first fan-out goes to the process route;
* an artifact with at least one *completed* compile is **warm** — a
  straggler target arriving later rides the thread route.

The temperature is decided once per fan-out, when the pool opens it
(:meth:`AdaptiveExecutor.fan_out`), so a first fan-out whose first
image lands before its last target is submitted still goes to one
route.  Memoized images never reach any executor (the pool's memo
sits above this seam), so "warm traffic" here is precisely the
residual compile work warm artifacts still generate.  Per-route
counters are the policy's proof — the edge surfaces them in
``/stats`` and the bench asserts cold traffic landed on the process
route and warm traffic on the thread route.
"""

from __future__ import annotations

import functools
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
    """Route each compile, offline or JIT, to the substrate its
    temperature wants.

    ``cold``/``warm`` accept executor names or instances (default
    ``process`` / ``thread``); tests inject ``inline`` for both and
    still get the routing counters.  The adaptive layer counts each
    job once, labelled by its ``route``: its ``stats()`` (what the
    pool reports under ``deploy.executors``) is the total over both
    routes, and :meth:`route_counters` is the split.
    """

    name = "adaptive"

    def __init__(self, cold: Executorish = "process",
                 warm: Executorish = "thread"):
        super().__init__()
        self.cold = as_executor(cold)
        self.warm = as_executor(warm)
        #: fingerprints with >= 1 completed compile (bounded LRU);
        #: submissions come from caller threads, completions from
        #: executor worker threads
        self._seen: "OrderedDict[str, bool]" = OrderedDict()
        self._seen_lock = threading.Lock()

    # -- classification -----------------------------------------------------

    def classify(self, artifact) -> str:
        """``"warm"`` iff this artifact has completed a compile here
        before.  Completion-based (not submission-based) so a second
        fan-out of an artifact whose first is still compiling is cold
        too — the fan-out is the unit the process pool wins on."""
        fingerprint = artifact_fingerprint(artifact)
        with self._seen_lock:
            if fingerprint in self._seen:
                self._seen.move_to_end(fingerprint)
                return "warm"
        return "cold"

    def _mark_seen(self, fingerprint: str) -> None:
        with self._seen_lock:
            self._seen[fingerprint] = True
            self._seen.move_to_end(fingerprint)
            while len(self._seen) > _SEEN_CAP:
                self._seen.popitem(last=False)

    # -- DeployExecutor protocol --------------------------------------------

    def submit(self, compile_fn: Callable, artifact, target,
               flow) -> Future:
        return self._submit_on(self.classify(artifact), compile_fn,
                               artifact, target, flow)

    def fan_out(self, artifact) -> Callable[..., Future]:
        """Every job of the fan-out takes the route the artifact's
        temperature picks now."""
        return functools.partial(self._submit_on, self.classify(artifact))

    def offline(self, source: str, name: str, options,
                key: str) -> Future:
        return self._track(self.cold.offline(source, name, options, key),
                           "offline_", route="cold")

    def _submit_on(self, route: str, compile_fn: Callable, artifact,
                   target, flow) -> Future:
        executor = self.cold if route == "cold" else self.warm
        fingerprint = artifact_fingerprint(artifact)
        future = executor.submit(compile_fn, artifact, target, flow)

        def _done(settled: Future) -> None:
            if not settled.cancelled() and \
                    settled.exception() is None:
                self._mark_seen(fingerprint)

        future.add_done_callback(_done)
        return self._track(future, route=route)

    def shutdown(self, wait: bool = True) -> None:
        self.cold.shutdown(wait=wait)
        self.warm.shutdown(wait=wait)

    # -- observability ------------------------------------------------------

    def route_counters(self) -> Dict[str, object]:
        """The policy's proof: per-route submission counts plus each
        route's executor identity and live stats."""
        rows = self.counts.split("route")
        with self._seen_lock:
            known = len(self._seen)
        counters: Dict[str, object] = {"policy": "first-fanout-cold",
                                       "known_artifacts": known}
        for route, executor in (("cold", self.cold), ("warm", self.warm)):
            counters[route] = {
                "executor": executor.name,
                "submitted": rows.get(route, {}).get("submitted", 0),
                "stats": executor.stats()}
        return counters
