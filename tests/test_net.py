"""Tests for serialization codecs, the network model, caches and middleware."""

import pytest

from repro.net import (
    ArrowCodec,
    JsonCodec,
    MiddlewareServer,
    NetworkModel,
    QueryCache,
)
from repro.net.cache import MAX_CACHED_RESULT_BYTES, SERVER_CACHE_ENTRIES
from repro.storage.table import Table


ROWS = [{"a": float(i), "b": f"value-{i}"} for i in range(200)]
RESULT = Table.from_rows(ROWS)
EMPTY = Table.from_rows([])


# --------------------------------------------------------------------------- #
# Codecs
# --------------------------------------------------------------------------- #


def test_json_payload_larger_than_arrow():
    json_estimate = JsonCodec().estimate_result(RESULT)
    arrow_estimate = ArrowCodec().estimate_result(RESULT)
    assert json_estimate.payload_bytes > arrow_estimate.payload_bytes
    assert json_estimate.decode_seconds > arrow_estimate.decode_seconds


def test_codec_payload_scales_with_rows():
    codec = ArrowCodec()
    small = codec.estimate_result(Table.from_rows(ROWS[:10])).payload_bytes
    large = codec.estimate_result(RESULT).payload_bytes
    # Per-row payload grows 20x (framing overhead is constant).
    assert large - codec.framing_bytes > (small - codec.framing_bytes) * 15


def test_codec_empty_result():
    assert JsonCodec().estimate_result(EMPTY).payload_bytes >= 2
    arrow = ArrowCodec().estimate_result(EMPTY)
    assert arrow.num_rows == 0 and arrow.payload_bytes == ArrowCodec.framing_bytes


# --------------------------------------------------------------------------- #
# Network model
# --------------------------------------------------------------------------- #


def test_network_transfer_cost_components():
    network = NetworkModel(rtt_seconds=0.01, bandwidth_bytes_per_second=1_000_000)
    cost = network.transfer(500_000)
    assert cost.seconds == pytest.approx(0.01 + 0.5)
    assert network.transfer(0, round_trips=3).seconds == pytest.approx(0.03)


def test_network_profiles_ordering():
    payload = 1_000_000
    localhost = NetworkModel.localhost().transfer(payload).seconds
    lan = NetworkModel.lan().transfer(payload).seconds
    wan = NetworkModel.wan().transfer(payload).seconds
    assert localhost < lan < wan


@pytest.mark.parametrize(
    ("preset", "rtt", "bandwidth"),
    [
        (NetworkModel.localhost, 0.0002, 5e9),
        (NetworkModel.lan, 0.004, 500e6 / 8),
        (NetworkModel.wan, 0.05, 50e6 / 8),
    ],
    ids=["localhost", "lan", "wan"],
)
def test_network_preset_transfer_math(preset, rtt, bandwidth):
    """Each preset's transfer cost is exactly rtt * round_trips + bytes/bw."""
    network = preset()
    assert network.rtt_seconds == pytest.approx(rtt)
    assert network.bandwidth_bytes_per_second == pytest.approx(bandwidth)
    payload = 2_000_000
    for round_trips in (1, 2, 5):
        cost = network.transfer(payload, round_trips=round_trips)
        assert cost.payload_bytes == payload
        assert cost.round_trips == round_trips
        assert cost.seconds == pytest.approx(round_trips * rtt + payload / bandwidth)
    # An empty payload still pays the round-trip latency.
    assert network.transfer(0).seconds == pytest.approx(rtt)


# --------------------------------------------------------------------------- #
# Query cache
# --------------------------------------------------------------------------- #


def test_cache_hit_miss_statistics():
    cache = QueryCache(max_entries=4)
    assert cache.get("q1") is None
    cache.put("q1", Table.from_rows(ROWS[:5]), payload_bytes=100)
    assert cache.get("q1").result.to_rows() == ROWS[:5]
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_cache_fifo_eviction():
    # With no reads in between, least recently used is first inserted.
    cache = QueryCache(max_entries=2)
    cache.put("q1", EMPTY, 10)
    cache.put("q2", EMPTY, 10)
    cache.put("q3", EMPTY, 10)
    assert cache.peek("q1") is None
    assert cache.peek("q2") is not None and cache.peek("q3") is not None
    assert cache.stats.evictions == 1
    assert len(cache) == 2


def test_cache_rejects_large_results_and_duplicates():
    cache = QueryCache(max_entries=4)
    assert cache.put("big", EMPTY, payload_bytes=MAX_CACHED_RESULT_BYTES + 1) is False
    assert cache.stats.rejected_too_large == 1
    assert cache.put("q", EMPTY, 10) is True
    assert cache.put("q", EMPTY, 10) is False  # duplicate check
    assert len(cache) == 1


def test_cache_invalid_capacity():
    with pytest.raises(ValueError):
        QueryCache(max_entries=0)


def test_cache_lru_policy_keeps_recently_used_entries():
    cache = QueryCache(max_entries=2)
    cache.put("q1", EMPTY, 10)
    cache.put("q2", EMPTY, 10)
    assert cache.get("q1") is not None  # refresh q1's recency
    cache.put("q3", EMPTY, 10)  # evicts q2, the least recently used
    assert cache.peek("q1") is not None and cache.peek("q3") is not None
    assert cache.peek("q2") is None
    assert cache.stats.evictions == 1
    cache.put("q4", EMPTY, 10)  # no read since: q1 is now the oldest use
    assert cache.peek("q1") is None
    assert cache.peek("q3") is not None and cache.peek("q4") is not None
    assert len(cache) == 2 and cache.stats.evictions == 2


def test_cache_byte_accounting_follows_evictions():
    cache = QueryCache(max_entries=2)
    cache.put("a", EMPTY, 40)
    cache.put("b", EMPTY, 60)
    assert cache.stats.current_bytes == 100
    cache.put("c", EMPTY, 30)  # the third entry evicts "a"
    assert cache.peek("a") is None
    assert cache.stats.current_bytes == 90
    assert cache.stats.evictions == 1
    assert cache.stats.evicted_bytes == 40
    cache.clear()
    assert cache.stats.current_bytes == 0


def test_cache_statistics_expose_policy_and_budget():
    # The entry budget and the result-size cap are constants; what the
    # statistics expose is their effect: bytes held, evictions, rejections.
    cache = QueryCache(max_entries=1)
    cache.put("q", EMPTY, 123)
    assert cache.stats.current_bytes == 123
    assert cache.peek("q") is not None
    assert cache.stats.hits == 0 and cache.stats.misses == 0  # peek is silent
    cache.put("r", EMPTY, 7)  # over the one-entry budget: evicts "q"
    assert cache.stats.evictions == 1
    assert cache.stats.evicted_bytes == 123
    assert cache.stats.current_bytes == 7
    assert cache.put("big", EMPTY, MAX_CACHED_RESULT_BYTES + 1) is False
    assert cache.stats.rejected_too_large == 1
    assert cache.stats.insertions == 2


def test_cache_is_thread_safe_under_contention():
    import threading

    cache = QueryCache(max_entries=8)
    errors = []

    def hammer(worker: int) -> None:
        try:
            for i in range(300):
                key = f"q{(worker + i) % 12}"
                cache.put(key, EMPTY, 30 + (i % 3) * 20)
                cache.get(key)
        except BaseException as exc:  # corrupt OrderedDict raises here
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(cache) <= 8
    # Byte accounting stays exact while puts of mixed sizes race the
    # eviction loop: the counter equals the sum over resident entries.
    with cache._lock:
        resident = sum(entry.payload_bytes for entry in cache._entries.values())
    assert cache.stats.current_bytes == resident
    stats = cache.stats
    assert stats.insertions - stats.evictions == len(cache)


# --------------------------------------------------------------------------- #
# Middleware
# --------------------------------------------------------------------------- #


@pytest.fixture()
def middleware(flights_db):
    return MiddlewareServer(flights_db)


def test_middleware_executes_and_reports_costs(middleware):
    response = middleware.execute("SELECT carrier, COUNT(*) AS n FROM flights GROUP BY carrier")
    assert response.rows
    assert response.payload_bytes > 0
    assert response.server_seconds > 0
    assert response.network_seconds > 0
    assert not response.from_cache
    assert response.total_seconds > 0


def test_middleware_cache_levels(middleware):
    sql = "SELECT COUNT(*) AS n FROM flights"
    first = middleware.execute(sql)
    second = middleware.execute(sql)
    assert not first.from_cache
    assert second.cache_level == "client"
    assert second.server_seconds == 0
    assert second.network_seconds == 0
    assert middleware.stats.queries_executed == 1
    assert middleware.client_cache.stats.hit_rate > 0


def test_middleware_server_cache_after_client_reset(middleware):
    sql = "SELECT COUNT(*) AS n FROM flights"
    middleware.execute(sql)
    middleware.client_cache.clear()
    response = middleware.execute(sql)
    assert response.cache_level == "server"
    assert response.network_seconds > 0  # still one round trip


def test_middleware_cache_disabled(flights_db):
    middleware = MiddlewareServer(flights_db, enable_cache=False)
    sql = "SELECT COUNT(*) AS n FROM flights"
    middleware.execute(sql)
    response = middleware.execute(sql)
    assert not response.from_cache
    assert middleware.stats.queries_executed == 2


def test_middleware_server_cache_evicts_least_recently_used(middleware):
    """A server-cache entry read after insertion outlives a newer, unread one."""
    queries = [
        f"SELECT COUNT(*) AS n FROM flights WHERE distance > {i}"
        for i in range(SERVER_CACHE_ENTRIES + 1)
    ]
    read, unread = queries[:2]
    middleware.serve(read)  # no client cache: every repeat reaches the server
    middleware.serve(unread)
    assert middleware.serve(read).cache_level == "server"
    for sql in queries[2:]:
        middleware.serve(sql)
    assert middleware.server_cache.stats.evictions == 1
    assert middleware.server_cache.peek(middleware.cache_key(unread)) is None
    assert middleware.serve(read).cache_level == "server"


def test_middleware_reset_caches(middleware):
    sql = "SELECT COUNT(*) AS n FROM flights"
    middleware.execute(sql)
    middleware.reset_caches()
    response = middleware.execute(sql)
    assert not response.from_cache
