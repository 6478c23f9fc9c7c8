"""One counter type for every layer, and one way to merge them.

Every cumulative count the system keeps — the engine's, a cache's, the
middleware's, the single-flight scheduler's, admission control's and the
cardinality feedback store's — is a :class:`Counters`: named numbers
under one lock.  A :meth:`Counters.snapshot` is a plain ``dict`` that
crosses process boundaries as data, and :func:`merge` combines the
snapshots of several serving stacks (the shards of a tier) into one.

A snapshot holds three kinds of value, told apart by name:

* a **count** (the default) sums when merged; a gauge that moves both
  ways (bytes held, requests queued) is a count too, and its merged value
  is the total over the stacks;
* a **peak** (a name starting with :data:`PEAK_PREFIX`) keeps the max:
  the merged peak of two shards is the higher one, not their sum;
* a **share** (a name in :data:`SHARES`) is derived from counts: it is
  recomputed from the merged sums, never summed itself.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping

#: Counters whose name starts with this keep the highest value recorded.
PEAK_PREFIX = "peak_"

#: Derived values: name → (numerator, denominator terms).  A snapshot
#: carries a share when it carries every count the share is made of.
SHARES: dict[str, tuple[str, tuple[str, ...]]] = {
    "hit_rate": ("hits", ("hits", "misses")),
    "coalescing_rate": ("coalesced", ("submitted",)),
    "mean_wait_seconds": ("total_wait_seconds", ("submitted",)),
    "shed_rate": ("shed", ("submitted",)),
}


class Counters:
    """Named cumulative counters of one component, updated under one lock.

    The names are fixed at construction: updating an unknown name raises
    ``KeyError``, reading one raises ``AttributeError``.  A counter (or a
    share it makes up) reads as an attribute, ``counters.evictions``.
    """

    def __init__(self, *names: str) -> None:
        self._counts: dict[str, float] = dict.fromkeys(names, 0.0)
        self._lock = threading.Lock()

    def add(self, **deltas: float) -> None:
        """Add each delta to the counter it is named after."""
        with self._lock:
            for name, delta in deltas.items():
                self._counts[name] += delta

    def peak(self, **values: float) -> None:
        """Raise each peak counter to ``value`` when ``value`` is higher."""
        with self._lock:
            for name, value in values.items():
                if value > self._counts[name]:
                    self._counts[name] = value

    def snapshot(self) -> dict[str, float]:
        """Every counter plus the shares they make up, as a flat dict."""
        with self._lock:
            counts = dict(self._counts)
        return _with_shares(counts)

    def __getattr__(self, name: str) -> float:
        if not name.startswith("_"):
            with self._lock:
                value = self._counts.get(name)
            if value is not None:
                return value
            if name in SHARES:
                share = self.snapshot().get(name)
                if share is not None:
                    return share
        raise AttributeError(f"{type(self).__name__} has no counter {name!r}")


def merge(snapshots: Iterable[Mapping[str, object]]) -> dict[str, object]:
    """One snapshot of several: counts sum, peaks keep the max, shares are
    recomputed from the merged counts, and a nested snapshot (a stack's
    ``scheduler`` or ``server_cache``) merges name by name."""
    merged: dict[str, object] = {}
    nested: dict[str, list[Mapping[str, object]]] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, Mapping):
                nested.setdefault(name, []).append(value)
            elif name in SHARES:
                continue
            elif name not in merged:
                merged[name] = value
            elif name.startswith(PEAK_PREFIX):
                merged[name] = max(merged[name], value)
            else:
                merged[name] += value
    merged.update((name, merge(parts)) for name, parts in nested.items())
    return _with_shares(merged)


def _with_shares(counts: dict) -> dict:
    """``counts`` plus every share whose terms it holds (0 over nothing)."""
    for share, (part, whole) in SHARES.items():
        if part in counts and all(term in counts for term in whole):
            total = sum(counts[term] for term in whole)
            counts[share] = counts[part] / total if total else 0.0
    return counts
