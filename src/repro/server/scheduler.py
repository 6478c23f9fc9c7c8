"""Bounded admission with single-flight request coalescing.

The serving runtime funnels every backend query through one
:class:`RequestScheduler`.  Two properties fall out:

* **admission control** — at most ``max_workers`` queries execute on the
  backend simultaneously; the rest wait on a semaphore, and the
  scheduler records how long callers waited end to end,
* **single-flight coalescing** — concurrent requests for the same key
  (the middleware uses ``<backend>::<sql>``) share ONE execution: the
  first arrival becomes the *leader* and runs the work **on its own
  thread**, every overlapping arrival becomes a *follower* that waits on
  the leader's future.  Under a crossfilter storm where eight dashboards
  fire the same query, the backend runs it once.

The scheduler owns no threads: a request runs on the thread that
received it (a serving tier's handler thread, or the caller itself), so
draining in-flight work is the job of whoever owns those threads.

The scheduler is deliberately ignorant of caching and SQL — it maps a
string key to a zero-argument callable.  The middleware composes it with
the server cache so that the published result is visible in the cache
*before* the in-flight entry is retired (no re-execution window).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.metrics import Counters

T = TypeVar("T")


@dataclass(frozen=True)
class SingleFlightOutcome:
    """What one ``run()`` call observed."""

    #: The executed callable's return value (shared among coalesced callers).
    value: object
    #: True when this caller attached to an execution it did not start.
    coalesced: bool
    #: Wall-clock seconds this caller spent waiting for the value.
    wait_seconds: float


class RequestScheduler:
    """Runs keyed requests on their callers' threads, at most
    ``max_workers`` at once, coalescing duplicates.

    Parameters
    ----------
    max_workers:
        Concurrent executions admitted — the backend's admission limit.
    """

    def __init__(self, max_workers: int = 4) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        #: ``submitted`` = ``executed`` (leaders) + ``coalesced``
        #: (followers), each pair added in one update; ``failed``
        #: executions re-raise in every caller; ``total_wait_seconds``
        #: sums each caller's time in :meth:`run`.
        self.stats = Counters(
            "submitted", "executed", "coalesced", "failed",
            "peak_in_flight", "total_wait_seconds",
        )
        self._slots = threading.BoundedSemaphore(max_workers)
        self._lock = threading.Lock()
        self._in_flight: dict[str, Future] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    def run(self, key: str, fn: Callable[[], T]) -> SingleFlightOutcome:
        """Execute ``fn`` (or wait on an identical in-flight execution).

        Blocks until the value is available; exceptions raised by ``fn``
        propagate to the leader *and* every coalesced follower.
        """
        start = time.perf_counter()
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is shut down")
            future = self._in_flight.get(key)
            coalesced = future is not None
            if coalesced:
                self.stats.add(submitted=1, coalesced=1)
            else:
                future = Future()
                self._in_flight[key] = future
                self.stats.add(submitted=1, executed=1)
                self.stats.peak(peak_in_flight=len(self._in_flight))
        try:
            value = future.result() if coalesced else self._lead(key, fn, future)
        finally:
            wait = time.perf_counter() - start
            self.stats.add(total_wait_seconds=wait)
        return SingleFlightOutcome(value=value, coalesced=coalesced, wait_seconds=wait)

    def _lead(self, key: str, fn: Callable[[], T], future: Future) -> T:
        """Run ``fn`` within the admission bound, retire the key, then
        resolve the future for the followers.

        The in-flight entry is removed *before* the result is set: any
        caller whose ``result()`` already returned is guaranteed a fresh
        execution on its next submission (coalescing never outlives the
        flight), while followers already holding the future still resolve
        normally.  Work that must be visible to later requests — the
        middleware publishes to its server cache — happens inside ``fn``,
        i.e. strictly before the key retires.
        """
        try:
            with self._slots:
                value = fn()
        except BaseException as exc:
            with self._lock:
                self.stats.add(failed=1)
                self._in_flight.pop(key, None)
            future.set_exception(exc)
            raise
        with self._lock:
            self._in_flight.pop(key, None)
        future.set_result(value)
        return value

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, float]:
        """A consistent copy of the counters (see :attr:`stats`)."""
        return self.stats.snapshot()

    def shutdown(self) -> dict[str, float]:
        """Stop admitting new requests and return :meth:`snapshot`.

        Idempotent.  Requests already inside :meth:`run` finish on their
        own threads; whoever owns those threads drains them first when
        the returned counters must be final.
        """
        with self._lock:
            self._closed = True
        return self.stats.snapshot()
