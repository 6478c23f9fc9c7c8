"""Unit tests of the benchmark's own arithmetic (run: ``python -m pytest benchmarks/e2e``)."""

from __future__ import annotations

import asyncio
import itertools

import numpy as np
import pytest

from benchmarks.e2e import queries
from benchmarks.e2e.openloop import Rung, pooled, run_rung
from benchmarks.e2e.oracle import Oracle, rows_match, rows_match_unordered
from benchmarks.e2e.stats import median, p95, relative_spread, window_medians
from benchmarks.e2e.trace import Span, Tracer, self_times, spans_under
from benchmarks.e2e.workloads import Checker
from repro.server.shard import shard_for


# --------------------------------------------------------------------------- #
# The percentile rule: at least 10 samples beyond p95, or no p95
# --------------------------------------------------------------------------- #
def test_p95_needs_200_samples():
    samples = [float(value) for value in range(1, 201)]
    assert p95(samples) == pytest.approx(np.percentile(samples, 95))
    assert sum(sample > p95(samples) for sample in samples) >= 10


def test_p95_is_never_replaced_by_a_lower_level():
    assert p95(list(range(199))) is None
    assert p95([]) is None


def test_relative_spread_is_iqr_over_median():
    assert relative_spread([10.0] * 10) == 0.0
    values = [8, 9, 10, 10, 10, 10, 10, 10, 11, 12]
    assert 0.0 < relative_spread(values) < 0.2


def test_window_medians_cover_every_sample_and_shrug_off_a_stall():
    assert window_medians([1, 2, 3, 4, 5, 6, 7], 3) == [2.0, 5.5]  # the tail joins the last
    assert window_medians([1.0, 2.0], 5) == [1.5]  # fewer samples than a window: one window
    quiet = [0.010] * 320
    stalled = quiet[:100] + [0.050] * 40 + quiet[140:]  # an eighth of the run, 5x slower
    windows = window_medians(stalled, 20)
    assert max(windows) == pytest.approx(0.050) and median(windows) == pytest.approx(0.010)


# --------------------------------------------------------------------------- #
# Self time on a hand-built span tree
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "operation", 0.0, 10.0, None, 7),
        Span(1, "a", 1.0, 4.0, 0, 7),
        Span(2, "b", 3.0, 6.0, 0, 7),   # overlaps a: [1, 6] is covered once
        Span(3, "a.child", 2.0, 3.0, 1, 7),
        Span(4, "late", 9.0, 12.0, 0, 7),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_tracer_nests_instrumented_calls_and_can_be_switched_off():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def inner(self):
            return "value"

        def outer(self):
            return self.inner()

    layer = Layer()
    tracer.instrument(layer, "outer", "outer")
    tracer.instrument(layer, "inner", "inner")
    with tracer.span("operation"):
        assert layer.outer() == "value"
    names = [(span.name, span.parent) for span in tracer.spans]
    assert names == [("operation", None), ("outer", 0), ("inner", 1)]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(
        tracer.spans[0].end - tracer.spans[0].start
    )
    tracer.enabled = False
    assert layer.outer() == "value"
    assert len(tracer.spans) == 3
    with tracer.span("setup"):
        pass
    assert [span.name for span in spans_under(tracer.spans, "operation")] == [
        "operation", "outer", "inner",
    ]


# --------------------------------------------------------------------------- #
# Open-loop accounting with a fake clock
# --------------------------------------------------------------------------- #
def test_open_loop_charges_stalls_to_later_requests():
    now = [0.0]

    async def sleep(delay):
        now[0] += delay
        await asyncio.sleep(0)

    class Reply:
        rows = [{"n": 1}]

    async def execute(session_id, sql):
        if sql == "boom":
            raise RuntimeError("refused")
        now[0] += 0.25  # service time, longer than the 0.1 s arrival interval
        return Reply()

    requests = [("u", "q0"), ("u", "q1"), ("u", "q2"), ("u", "boom")]
    rung = asyncio.run(run_rung(execute, requests, rate=10.0, clock=lambda: now[0], sleep=sleep))
    # Request k was due at k/10 s; the generator only yields while it sleeps,
    # so request 0 starts 0.1 s late and each later one waits for the stall.
    assert rung.lags == pytest.approx([0.1, 0.25, 0.4, 0.55])
    assert rung.sojourns == pytest.approx([0.35, 0.5, 0.65])
    assert [index for index, _ in rung.results] == [0, 1, 2]
    assert rung.errors == [(3, "RuntimeError('refused')")]
    assert rung.attempted == 4
    assert rung.wall == pytest.approx(0.85)
    assert rung.drain == pytest.approx(0.85 - 0.3)
    assert rung.completed_per_second == pytest.approx(3 / 0.85)


def test_segments_pool_into_one_rung_and_sojourns_sort_by_send_order():
    first = Rung(rate=200.0, attempted=3, sojourns=[0.3, 0.1, 0.2], lags=[0.0] * 3,
                 results=[(2, "c"), (0, "a"), (1, "b")], wall=1.0, drain=0.1)
    second = Rung(rate=200.0, attempted=2, sojourns=[0.5], lags=[0.01, 0.02],
                  results=[(0, "d")], errors=[(1, "boom")], wall=0.5, drain=0.3)
    assert first.sojourns_in_send_order() == [0.1, 0.2, 0.3]
    both = pooled([first, second])
    assert (both.rate, both.attempted, both.wall, both.drain) == (200.0, 5, 1.5, 0.3)
    assert both.sojourns == [0.3, 0.1, 0.2, 0.5] and both.errors == [(1, "boom")]
    assert both.completed_per_second == pytest.approx(4 / 1.5)


# --------------------------------------------------------------------------- #
# Generators are pure functions of the seed
# --------------------------------------------------------------------------- #
def _take(iterator, n):
    return list(itertools.islice(iterator, n))


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    def draw(seed):
        rng = np.random.default_rng(seed)
        return (
            _take(queries.zipf_ranks(rng, 512), 50),
            _take(queries.brush_windows(rng), 50),
            [q.sql for q in queries.scan_refresh(rng, (0.0, 1000.0))],
            [q.sql for q in queries.carrier_pool(rng, 16)],
            [(s, q.sql) for s, q in _take(queries.serving_requests(rng, ["a", "b"], (0.0, 1000.0)), 40)],
        )

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)


def test_zipf_head_is_hot_and_ranks_stay_in_the_pool():
    ranks = _take(queries.zipf_ranks(np.random.default_rng(0), 512), 20_000)
    assert min(ranks) == 0 and max(ranks) < 512
    counts = np.bincount(ranks, minlength=512)
    assert counts[0] > counts[9] > counts[99]
    assert len(set(ranks)) > 32 + 128  # the pool outgrows both cache levels


def test_brush_stays_inside_the_observed_range_and_every_step_is_new():
    low_end, high_end = queries.DEP_DELAY_RANGE
    windows = _take(queries.brush_windows(np.random.default_rng(1)), 3_000)
    assert all(low_end <= low and high <= high_end + 1e-9 for low, high in windows)
    steps = [queries.brush_step(*window)[0].sql for window in windows]
    assert len(set(steps)) > 0.99 * len(steps)
    lows = np.array([low for low, _ in windows])
    assert (np.diff(lows) > 0).any() and (np.diff(lows) < 0).any()  # it reverses


def test_session_ids_split_evenly_over_shards():
    ids = queries.balanced_session_ids(16, 2)
    assert len(set(ids)) == 16
    assert sorted(shard_for(session_id, 2) for session_id in ids) == [0] * 8 + [1] * 8


# --------------------------------------------------------------------------- #
# Oracle and row comparison
# --------------------------------------------------------------------------- #
ROWS = [
    {"delay": 5.0, "distance": 100.0, "dep_delay": 1.0, "carrier": "B", "date": 3.0},
    {"delay": None, "distance": 200.0, "dep_delay": 2.0, "carrier": "A", "date": 1.0},
    {"delay": 7.0, "distance": 300.0, "dep_delay": 3.0, "carrier": "A", "date": 2.0},
    {"delay": 9.0, "distance": 400.0, "dep_delay": 9.0, "carrier": "B", "date": 4.0},
]


def test_oracle_groups_skip_nulls_and_order_by_key():
    query = queries.Query(
        queries.window("dep_delay", 0.0, 5.0),
        ("carrier",),
        (("COUNT", "*", "n"), ("AVG", "delay", "avg"), ("MIN", "delay", "lo"), ("SUM", "distance", "s")),
    )
    assert Oracle(ROWS).rows(query) == [
        {"carrier": "A", "n": 2, "avg": 7.0, "lo": 7.0, "s": 500.0},
        {"carrier": "B", "n": 1, "avg": 5.0, "lo": 5.0, "s": 100.0},
    ]


def test_oracle_distinct_and_ordered_fetch():
    oracle = Oracle(ROWS)
    assert oracle.rows(queries.Query((("dep_delay", "<=", 3.0),), ("carrier",))) == [
        {"carrier": "A"}, {"carrier": "B"},
    ]
    fetch = queries.Query(
        queries.window("date", 1.0, 4.0), ("date",), columns=("date", "carrier", "delay")
    )
    assert oracle.rows(fetch) == [
        {"date": 1.0, "carrier": "A", "delay": None},
        {"date": 2.0, "carrier": "A", "delay": 7.0},
        {"date": 3.0, "carrier": "B", "delay": 5.0},
    ]


def test_row_comparison_tolerance_and_order():
    want = [{"k": "a", "v": 1.0}, {"k": "b", "v": 2.0}]
    assert rows_match([{"k": "a", "v": 1}, {"k": "b", "v": 2.0 * (1 + 1e-12)}], want)
    assert not rows_match([{"k": "a", "v": 1.0}, {"k": "b", "v": 2.0 * (1 + 1e-6)}], want)
    assert not rows_match(list(reversed(want)), want)
    assert rows_match_unordered(list(reversed(want)), want)
    assert not rows_match_unordered(want[:1], want)
    assert not rows_match([{"k": "a"}, {"k": "b"}], want)


def test_selftest_corruption_is_noticed():
    checker = Checker(corrupt_one=True)
    checker.check("q", [{"k": "a", "v": 1}], [{"k": "a", "v": 1}])
    checker.check("q", [{"k": "a", "v": 1}], [{"k": "a", "v": 1}])
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "corrupted-by-selftest" in checker.first_failure
