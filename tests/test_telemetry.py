"""The service plane's one counter type and its histogram."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.telemetry import Counters, LatencyHistogram


def test_total_split_and_snapshot_read_the_same_counts():
    counts = Counters("requests", "failed")
    counts.add("requests", tenant="a")
    counts.add("requests", 2, tenant="b")
    counts.add("failed", tenant="b")
    counts.add("requests")                  # no tenant: totals only
    assert counts.total("requests") == 4
    assert counts.snapshot() == {"requests": 4, "failed": 1}
    assert counts.split("tenant") == {"a": {"requests": 1, "failed": 0},
                                      "b": {"requests": 2, "failed": 1}}
    assert counts.split("route") == {}
    with pytest.raises(KeyError):
        counts.add("typo")


def test_concurrent_adds_are_never_lost():
    """More threads than cores and a short switch interval: a lost
    update in ``add`` shows up as a total or a row short."""
    counts = Counters("n")
    threads, rounds = 16, 20000

    def worker(index):
        for _ in range(rounds):
            counts.add("n", label=index % 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(i,))
                for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
    assert counts.total("n") == threads * rounds
    half = threads // 2 * rounds
    assert counts.split("label") == {0: {"n": half}, 1: {"n": half}}


def test_merged_histogram_holds_every_observation():
    fast, slow = LatencyHistogram(), LatencyHistogram()
    for _ in range(3):
        fast.observe(0.001)
    slow.observe(2.0)
    merged = LatencyHistogram.merged([fast, slow])
    assert merged.total == 4
    assert merged.max_s == 2.0
    assert merged.sum_s == pytest.approx(2.003)
    assert merged.counts == [a + b for a, b in
                             zip(fast.counts, slow.counts)]
    assert LatencyHistogram.merged([]).as_dict()["count"] == 0


class TestPercentileEdges:
    def test_empty_leading_bucket_and_past_the_top(self):
        """A percentile that lands on an empty bucket is that bucket's
        upper edge; one past every sample is the largest seen."""
        hist = LatencyHistogram()
        hist.observe(0.5)
        assert hist.percentile(0.0) == LatencyHistogram.BASE_S
        assert hist.percentile(2.0) == 0.5
