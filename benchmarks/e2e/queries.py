"""Seeded request generators: every workload's inputs, as pure functions of a seed.

A :class:`Query` is a small structured description of one SQL request.
The system under test only ever receives ``query.sql``; the benchmark's
own oracle (:mod:`benchmarks.e2e.oracle`) evaluates the same description
with numpy, so every response can be checked without a second engine.

Traps found while sizing the workloads, avoided here on purpose:

* brush bounds are drawn inside the column's *observed* range (the
  in-tree ``sliding_brush`` scenario walks ``dep_delay >= 950`` on a
  -30..300 column and measures empty results),
* session ids are chosen so ``shard_for(id, n_shards)`` splits evenly
  (``user-0..15`` splits 10/6 over two shards).
"""

from __future__ import annotations

import zlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

#: ``dep_delay`` range of the flights schema; brushes stay inside it.
DEP_DELAY_RANGE = (-30.0, 300.0)
#: ``distance`` range of the flights schema.
DISTANCE_RANGE = (50.0, 4500.0)

_DECOMPOSABLE = (
    ("COUNT", "*", "n"),
    ("SUM", "distance", "total_distance"),
    ("AVG", "distance", "avg_distance"),
)
_EXTREMA = (("COUNT", "*", "n"), ("MIN", "delay", "min_delay"), ("MAX", "delay", "max_delay"))
_FLOAT_AVG = (("COUNT", "*", "n"), ("AVG", "delay", "avg_delay"))


@dataclass(frozen=True)
class Query:
    """One request: ``WHERE`` ranges, then a grouped, distinct or raw select.

    ``keys`` are the GROUP BY / DISTINCT columns (grouped and distinct
    shapes) or the ORDER BY columns (raw fetch, when ``columns`` is set).
    Every shape carries a total ORDER BY, so results compare in order.
    """

    where: tuple[tuple[str, str, float], ...]
    keys: tuple[str, ...]
    aggs: tuple[tuple[str, str, str], ...] = ()
    columns: tuple[str, ...] = ()

    @property
    def sql(self) -> str:
        order = ", ".join(self.keys)
        if self.columns:
            select, group = ", ".join(self.columns), ""
        elif self.aggs:
            items = [f"{fn}({arg}) AS {alias}" for fn, arg, alias in self.aggs]
            select, group = ", ".join([*self.keys, *items]), f" GROUP BY {order}"
        else:
            select, group = f"DISTINCT {order}", ""
        where = " AND ".join(f"{column} {op} {value!r}" for column, op, value in self.where)
        return f"SELECT {select} FROM flights WHERE {where}{group} ORDER BY {order}"


def window(column: str, low: float, high: float) -> tuple[tuple[str, str, float], ...]:
    """Half-open range predicate; bounds rounded so SQL text and oracle agree."""
    return ((column, ">=", round(low, 4)), (column, "<", round(high, 4)))


def date_window(
    rng: np.random.Generator, dates: tuple[float, float], share: float
) -> tuple[tuple[str, str, float], ...]:
    """A window covering ``share`` of the table's date range, placed by the seed."""
    first, last = dates
    low = first + float(rng.uniform(0.0, 1.0 - share)) * (last - first)
    return window("date", low, low + share * (last - first))


# --------------------------------------------------------------------------- #
# brush_ivm
# --------------------------------------------------------------------------- #
#: Brush width and mean step, as shares of the ``dep_delay`` range.
BRUSH_WIDTH_SHARE = 0.10
BRUSH_STEP_SHARE = 0.004


def brush_windows(rng: np.random.Generator) -> Iterator[tuple[float, float]]:
    """An endless brush drag on ``dep_delay``: fixed-width window, jittered
    steps, reversing at the ends."""
    low_end, high_end = DEP_DELAY_RANGE
    extent = high_end - low_end
    width = BRUSH_WIDTH_SHARE * extent
    low = low_end + float(rng.uniform(0.0, extent - width))
    direction = 1.0 if rng.random() < 0.5 else -1.0
    while True:
        low += direction * BRUSH_STEP_SHARE * extent * float(rng.uniform(0.5, 1.5))
        if low + width > high_end:
            low, direction = high_end - width, -1.0
        elif low < low_end:
            low, direction = low_end, 1.0
        yield low, low + width


def brush_step(low: float, high: float) -> list[Query]:
    """The two linked-view queries one brush move triggers (both IVM-eligible)."""
    where = window("dep_delay", low, high)
    return [Query(where, ("carrier",), _DECOMPOSABLE), Query(where, ("carrier",), _EXTREMA)]


# --------------------------------------------------------------------------- #
# scan_embedded / scan_sqlite
# --------------------------------------------------------------------------- #
def scan_refresh(rng: np.random.Generator, dates: tuple[float, float]) -> list[Query]:
    """One dashboard refresh: four shapes IVM declines (float AVG, DISTINCT, raw rows)."""
    # The unprunable shape keeps more than half the table, so a refresh
    # costs about the same whatever the seed draws.
    limit = round(float(rng.uniform(2500.0, DISTANCE_RANGE[1])), 4)
    return [
        Query(date_window(rng, dates, 0.05), ("carrier", "cancelled"), _FLOAT_AVG),
        Query(date_window(rng, dates, 0.05), ("carrier", "origin")),
        Query((("distance", "<=", limit),), ("origin",), _FLOAT_AVG),
        Query(
            date_window(rng, dates, 0.01),
            ("date", "dep_delay"),
            columns=("date", "dep_delay", "carrier", "origin", "distance", "air_time"),
        ),
    ]


# --------------------------------------------------------------------------- #
# cache_zipf
# --------------------------------------------------------------------------- #
def carrier_pool(rng: np.random.Generator, size: int) -> list[Query]:
    """``size`` distinct carrier-dashboard queries, popularity order permuted by the seed."""
    low_end, high_end = DEP_DELAY_RANGE
    thresholds = np.linspace(low_end, high_end - 30.0, size)
    pool = [
        Query((("dep_delay", ">=", round(float(t), 4)),), ("carrier",), _FLOAT_AVG)
        for t in thresholds
    ]
    return [pool[i] for i in rng.permutation(size)]


def zipf_ranks(rng: np.random.Generator, pool_size: int) -> Iterator[int]:
    """Endless Zipf(1.0) draws over ranks ``0..pool_size-1`` (rank 0 most popular)."""
    weights = 1.0 / np.arange(1, pool_size + 1)
    cumulative = np.cumsum(weights / weights.sum())
    while True:
        for rank in np.searchsorted(cumulative, rng.random(4096)):
            yield min(int(rank), pool_size - 1)


# --------------------------------------------------------------------------- #
# serving_mix
# --------------------------------------------------------------------------- #
def balanced_session_ids(n_sessions: int, n_shards: int) -> list[str]:
    """``n_sessions`` ids whose CRC-32 routing (``repro.server.shard.shard_for``)
    puts the same number on every shard."""
    per_shard = n_sessions // n_shards
    counts = [0] * n_shards
    ids: list[str] = []
    candidate = 0
    while len(ids) < per_shard * n_shards:
        session_id = f"user-{candidate}"
        shard = zlib.crc32(session_id.encode("utf-8")) % n_shards
        if counts[shard] < per_shard:
            counts[shard] += 1
            ids.append(session_id)
        candidate += 1
    return ids


#: Shared overview queries every session re-issues (the cacheable quarter).
OVERVIEW_POOL = tuple(
    Query((("dep_delay", ">=", threshold),), keys, _FLOAT_AVG)
    for keys in (("carrier",), ("cancelled",), ("carrier", "cancelled"))
    for threshold in (0.0, 60.0)
)


def serving_requests(
    rng: np.random.Generator, session_ids: list[str], dates: tuple[float, float]
) -> Iterator[tuple[str, Query]]:
    """Endless arrival stream: round-robin over sessions, per-session traffic mix.

    Half of a session's requests continue its own brush drag (alternating
    the two linked views), a quarter come from :data:`OVERVIEW_POOL`, a
    quarter are ad-hoc GROUP BYs over a date window no other request shares.
    """
    brushes = {sid: brush_windows(rng) for sid in session_ids}
    pending: dict[str, list[Query]] = {sid: [] for sid in session_ids}
    while True:
        for session_id in session_ids:
            kind = float(rng.random())
            if kind < 0.5:
                if not pending[session_id]:
                    pending[session_id] = brush_step(*next(brushes[session_id]))
                yield session_id, pending[session_id].pop(0)
            elif kind < 0.75:
                yield session_id, OVERVIEW_POOL[int(rng.integers(len(OVERVIEW_POOL)))]
            else:
                where = date_window(rng, dates, 0.05)
                yield session_id, Query(where, ("carrier", "cancelled"), _FLOAT_AVG)
