"""The one counter type and its merge."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import PEAK_PREFIX, SHARES, Counters, merge

#: Counter names of every layer's kinds: counts, shares' terms and peaks.
NAMES = (
    "hits", "misses", "submitted", "coalesced", "shed",
    "total_wait_seconds", "evictions", "peak_in_flight", "peak_queued",
)


@st.composite
def snapshots(draw):
    """A ``Counters.snapshot()`` over some of :data:`NAMES`, with a nested
    one under ``"scheduler"`` the way a serving stack reports."""

    def flat():
        names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=len(NAMES)))
        counters = Counters(*names)
        for name in names:
            value = draw(st.integers(0, 10**6) | st.floats(0.0, 1e3))
            if name.startswith(PEAK_PREFIX):
                counters.peak(**{name: value})
            else:
                counters.add(**{name: value})
        return counters.snapshot()

    snapshot = flat()
    snapshot["scheduler"] = flat()
    return snapshot


def assert_close(actual: dict, expected: dict) -> None:
    assert set(actual) == set(expected)
    for name, value in expected.items():
        if isinstance(value, dict):
            assert_close(actual[name], value)
        else:
            assert actual[name] == pytest.approx(value, rel=1e-9, abs=1e-9), name


@given(st.lists(snapshots(), min_size=1, max_size=5), st.randoms())
def test_merge_is_order_independent(parts, random):
    shuffled = list(parts)
    random.shuffle(shuffled)
    assert_close(merge(shuffled), merge(parts))


@given(snapshots())
def test_merging_one_snapshot_returns_it(snapshot):
    assert merge([snapshot]) == snapshot


@given(st.lists(snapshots(), min_size=1, max_size=5))
def test_merged_values_are_sums_maxima_and_recomputed_shares(parts):
    merged = merge(part["scheduler"] for part in parts)
    flat = [part["scheduler"] for part in parts]
    for name in {name for part in flat for name in part}:
        values = [part[name] for part in flat if name in part]
        if name in SHARES:
            numerator, terms = SHARES[name]
            whole = sum(merged[term] for term in terms)
            expected = merged[numerator] / whole if whole else 0.0
        elif name.startswith(PEAK_PREFIX):
            expected = max(values)
        else:
            expected = sum(values)
        assert merged[name] == pytest.approx(expected, rel=1e-9, abs=1e-9), name
    for share, (numerator, terms) in SHARES.items():
        assert (share in merged) == all(n in merged for n in (numerator, *terms))


def test_counters_read_by_attribute_and_reject_unknown_names():
    counters = Counters("hits", "misses", "peak_queued")
    counters.add(hits=3, misses=1)
    counters.peak(peak_queued=4)
    counters.peak(peak_queued=2)
    assert counters.hits == 3
    assert counters.peak_queued == 4
    assert counters.hit_rate == pytest.approx(0.75)
    assert counters.snapshot() == {
        "hits": 3, "misses": 1, "peak_queued": 4, "hit_rate": 0.75,
    }
    with pytest.raises(AttributeError):
        counters.evictions
    with pytest.raises(AttributeError):
        counters.shed_rate  # a share whose counts this component lacks
    with pytest.raises(KeyError):
        counters.add(evictions=1)


def test_counters_lose_no_increments_across_threads():
    counters = Counters("n", "peak_n")
    n_threads, per_thread = 8, 2_000

    def work(index):
        for step in range(per_thread):
            counters.add(n=1)
            counters.peak(peak_n=index * per_thread + step)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counters.n == n_threads * per_thread
    assert counters.peak_n == n_threads * per_thread - 1
