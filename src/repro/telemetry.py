"""One set of books for the service plane: labelled counters and
latency histograms.

Every owner of service-plane state — the artifact cache, the
deployment pool, each executor, the adaptive router, the compilation
service and the serving edge — keeps one :class:`Counters` and counts
each event exactly once, labelled by what the event is about
(``flow``, ``route``, ``tenant``).  A total and a per-label split are
then two reads of the same counts, so they cannot disagree: the edge's
``/stats`` totals are the sum of its per-tenant rows by construction.
The owners turn the counts into their ``stats()`` views; no counter is
kept anywhere else.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple

__all__ = ["Counters", "LatencyHistogram"]


class Counters:
    """Thread-safe event counts under declared names and free labels.

    The names are fixed at construction — ``add`` of any other name is
    a ``KeyError``, and ``snapshot`` reports every name, zero or not.
    ``add("accepted", tenant="acme")`` counts one event; ``n`` may be a
    float (summed seconds are counted the same way).
    """

    __slots__ = ("_series", "_lock")

    def __init__(self, *names: str):
        #: name -> {sorted label items: count}
        self._series: Dict[str, Dict[Tuple, float]] = \
            {name: {} for name in names}
        self._lock = threading.Lock()

    def add(self, name: str, n: float = 1, **labels) -> None:
        key = tuple(sorted(labels.items())) if labels else ()
        with self._lock:
            series = self._series[name]
            series[key] = series.get(key, 0) + n

    def total(self, name: str) -> float:
        """``name`` summed over every label set."""
        with self._lock:
            return sum(self._series[name].values())

    def split(self, label: str) -> Dict[object, Dict[str, float]]:
        """One row per value ``label`` was counted under: every name's
        count among the events carrying that value.  Events counted
        without ``label`` appear only in the totals."""
        rows: Dict[object, Dict[str, float]] = {}
        with self._lock:
            for name, series in self._series.items():
                for key, n in series.items():
                    for item, value in key:
                        if item == label:
                            row = rows.get(value)
                            if row is None:
                                row = rows[value] = \
                                    dict.fromkeys(self._series, 0)
                            row[name] += n
        return rows

    def snapshot(self) -> Dict[str, float]:
        """Every name's total, as a plain dict (one consistent read)."""
        with self._lock:
            return {name: sum(series.values())
                    for name, series in self._series.items()}


class LatencyHistogram:
    """Log-spaced latency histogram with percentile estimation.

    Buckets double from 100 µs up to ~200 s (22 buckets), with an
    overflow bucket above; percentiles interpolate linearly inside the
    winning bucket, which is plenty for p50/p99 dashboards (the error
    is bounded by the 2x bucket ratio).  Not locked: the edge observes
    from its event loop only.
    """

    BASE_S = 1e-4
    BUCKETS = 22

    def __init__(self):
        self.counts: List[int] = [0] * (self.BUCKETS + 1)
        self.total = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    @classmethod
    def merged(cls, parts: Iterable["LatencyHistogram"]) \
            -> "LatencyHistogram":
        """One histogram holding every observation of ``parts``."""
        out = cls()
        for part in parts:
            out.counts = [a + b for a, b in zip(out.counts, part.counts)]
            out.total += part.total
            out.sum_s += part.sum_s
            out.max_s = max(out.max_s, part.max_s)
        return out

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, seconds)
        index = 0
        upper = self.BASE_S
        while seconds > upper and index < self.BUCKETS:
            upper *= 2.0
            index += 1
        self.counts[index] += 1
        self.total += 1
        self.sum_s += seconds
        self.max_s = max(self.max_s, seconds)

    def percentile(self, p: float) -> float:
        """p in [0, 1] -> estimated seconds (0.0 when empty)."""
        if self.total == 0:
            return 0.0
        threshold = p * self.total
        seen = 0
        lower, upper = 0.0, self.BASE_S
        for index, count in enumerate(self.counts):
            if seen + count >= threshold:
                if count == 0:
                    return upper
                fraction = (threshold - seen) / count
                return lower + fraction * (upper - lower)
            seen += count
            lower = upper
            upper = upper * 2.0 if index < self.BUCKETS else upper
        return self.max_s

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.total,
            "mean_ms": round(self.mean_s * 1e3, 3),
            "p50_ms": round(self.percentile(0.50) * 1e3, 3),
            "p99_ms": round(self.percentile(0.99) * 1e3, 3),
            "max_ms": round(self.max_s * 1e3, 3),
        }
