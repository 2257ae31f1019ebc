"""Single-flight: one key -> :class:`~concurrent.futures.Future` map.

The split economics need two jobs done exactly once under any amount
of concurrency: the offline compile per artifact key and the JIT per
``(artifact, target, flow)``.  Both sit behind a memo the caller owns
(the artifact cache, the pool's image memo); :class:`SingleFlight`
covers the window in which the memo does not yet hold the value — the
first caller runs the work, callers arriving meanwhile join its
future, and nothing is retained once it lands, so a failure is never
cached and the key re-runs on the next request.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, Dict, Hashable, Optional, Tuple

__all__ = ["SingleFlight", "run_settled"]


def run_settled(fn: Callable, *args) -> Future:
    """Run ``fn(*args)`` in the calling thread; its outcome as an
    already-settled future."""
    future: Future = Future()
    future.set_running_or_notify_cancel()
    try:
        result = fn(*args)
    except BaseException as exc:
        future.set_exception(exc)
    else:
        future.set_result(result)
    return future


class SingleFlight:
    """Thread-safe in-flight dedup in front of a caller-owned memo."""

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, Future] = {}

    def fly(self, key: Hashable,
            peek: Callable[[], Optional[object]],
            start: Callable[[], Future],
            store: Callable[[object], None]) -> Tuple[Future, bool]:
        """``(future, joined)`` for ``key``; ``peek`` is the memo
        lookup (``None`` on a miss).

        ``joined`` is True when this call triggered no work.  The
        winner calls ``start()`` for a future of the work (it may run
        anywhere, or already be settled) and never blocks on it; when
        the work lands its value goes through ``store`` into the memo.
        """
        with self._lock:
            future = self._flights.get(key)
            if future is not None:
                return future, True
            future = Future()
            future.set_running_or_notify_cancel()
            self._flights[key] = future
        # Won the slot.  Look (again) only now: a previous winner
        # stores before it releases, so whoever owns the slot and
        # still misses is the one caller that must run the work — a
        # lost race costs a ``peek``, never a second run.
        value = peek()
        if value is not None:
            self._land(key, future, value)
            return future, True

        def landed(done: Future) -> None:
            try:
                value = done.result()
                store(value)
            except BaseException as exc:
                self._land(key, future, error=exc)
            else:
                self._land(key, future, value)

        try:
            work = start()
        except BaseException as exc:     # e.g. executor shut down
            self._land(key, future, error=exc)
        else:
            work.add_done_callback(landed)
        return future, False

    def _land(self, key: Hashable, future: Future, value=None,
              error: Optional[BaseException] = None) -> None:
        # Release before settling: a caller that arrives after a
        # failure must start a fresh flight, never be handed the
        # stale exception.
        with self._lock:
            del self._flights[key]
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)
