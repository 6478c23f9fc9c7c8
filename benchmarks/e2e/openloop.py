"""Open-loop load generation: arrivals on a schedule, latency from the scheduled time.

Request *k* of a rung is due at ``start + k / rate`` whether or not
earlier requests have finished, so a slow tier accumulates backlog
instead of quietly receiving less load.  Each request is timed from when
it was *due* (sojourn), which charges a stall to every request it
delayed; how late the generator itself ran is reported as lag.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Awaitable, Callable, Sequence
from dataclasses import dataclass, field


@dataclass
class Rung:
    """Everything one fixed-rate rung measured (times in seconds)."""

    rate: float
    attempted: int = 0
    #: sojourn = completion - scheduled send time, per completed request.
    sojourns: list[float] = field(default_factory=list)
    #: lag = actual - scheduled send time, per request.
    lags: list[float] = field(default_factory=list)
    #: (request index, rows) of completed requests, for the oracle.
    results: list[tuple[int, object]] = field(default_factory=list)
    #: (request index, repr(exception)) of failed or refused requests.
    errors: list[tuple[int, str]] = field(default_factory=list)
    #: first scheduled send to last completion.
    wall: float = 0.0
    #: last completion minus last scheduled send (backlog left to drain).
    drain: float = 0.0

    @property
    def completed_per_second(self) -> float:
        return len(self.sojourns) / self.wall if self.wall > 0 else 0.0

    def sojourns_in_send_order(self) -> list[float]:
        """Sojourns by request index (``sojourns`` is in completion order)."""
        indices = [index for index, _ in self.results]
        return [sojourn for _, sojourn in sorted(zip(indices, self.sojourns))]


def pooled(rungs: Sequence[Rung]) -> Rung:
    """Several segments sent at one rate as a single rung: samples pooled,
    walls summed, the longest drain (``results`` stay with the segments)."""
    return Rung(
        rate=rungs[0].rate,
        attempted=sum(rung.attempted for rung in rungs),
        sojourns=[sojourn for rung in rungs for sojourn in rung.sojourns],
        lags=[lag for rung in rungs for lag in rung.lags],
        errors=[error for rung in rungs for error in rung.errors],
        wall=sum(rung.wall for rung in rungs),
        drain=max(rung.drain for rung in rungs),
    )


async def run_rung(
    execute: Callable[[str, str], Awaitable[object]],
    requests: Sequence[tuple[str, str]],
    rate: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> Rung:
    """Send ``requests`` (``(session_id, sql)``) at ``rate`` per second.

    ``execute`` returns an object with ``.rows``; reading it is part of
    the operation.  ``clock``/``sleep`` are injectable for the unit test.
    """
    rung = Rung(rate=rate, attempted=len(requests))
    start = clock()

    async def issue(index: int, session_id: str, sql: str, scheduled: float) -> None:
        rung.lags.append(clock() - scheduled)
        try:
            rows = (await execute(session_id, sql)).rows
        except Exception as exc:  # refusals and shard errors count as failures
            rung.errors.append((index, repr(exc)))
            return
        rung.sojourns.append(clock() - scheduled)
        rung.results.append((index, rows))

    tasks = []
    for index, (session_id, sql) in enumerate(requests):
        scheduled = start + index / rate
        delay = scheduled - clock()
        if delay > 0:
            await sleep(delay)
        tasks.append(asyncio.ensure_future(issue(index, session_id, sql, scheduled)))
    await asyncio.gather(*tasks)
    end = clock()
    rung.wall = end - start
    rung.drain = max(0.0, end - (start + (len(requests) - 1) / rate)) if requests else 0.0
    return rung
