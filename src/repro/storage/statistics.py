"""Table and column statistics for cardinality estimation.

The VegaPlus optimizer estimates query cardinalities from DBMS statistics
(Section 3 of the paper).  The catalog computes simple statistics per
table — row counts, distinct-value estimates, min/max, null counts — which
the plan encoder (:mod:`repro.core.encoder`) combines into the estimated
cardinalities of each candidate plan's queries.

Static statistics drift: selectivity heuristics assume uniformity, group
counts assume independence, and the data itself may change under a live
session.  :class:`CardinalityFeedback` is the correction layer: executed
dashboards record *observed* VDT result cardinalities keyed by structural
shape (literals stripped, so one key covers a whole crossfilter family),
and the plan encoder blends its static estimate with the
exponentially-weighted observed value, weighting the observation by how
often the shape has actually been seen.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.storage.column import Column
from repro.storage.table import Table


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics for a single column."""

    name: str
    num_values: int
    num_nulls: int
    num_distinct: int
    minimum: float | None = None
    maximum: float | None = None

    def selectivity_equals(self) -> float:
        """Estimated selectivity of an equality predicate on this column."""
        if self.num_distinct <= 0:
            return 1.0
        return 1.0 / self.num_distinct

    def selectivity_range(self, low: float | None, high: float | None) -> float:
        """Estimated selectivity of a range predicate assuming uniformity."""
        if self.minimum is None or self.maximum is None:
            return 0.3
        span = self.maximum - self.minimum
        if span <= 0:
            return 1.0
        lo = self.minimum if low is None else max(low, self.minimum)
        hi = self.maximum if high is None else min(high, self.maximum)
        if hi <= lo:
            return 0.0
        return float(min(1.0, (hi - lo) / span))


@dataclass
class TableStatistics:
    """Statistics for a table: row count plus per-column summaries."""

    table_name: str
    num_rows: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics | None:
        """Statistics for ``name`` or ``None`` when unknown."""
        return self.columns.get(name)


@dataclass
class _ShapeObservation:
    """Running EWMA of observed cardinalities for one query shape."""

    ewma_rows: float = 0.0
    observations: int = 0


#: EWMA smoothing weight of the *newest* cardinality observation.
FEEDBACK_ALPHA = 0.5

#: Observations after which the blend weights the observed EWMA and the
#: static estimate equally (``w = n / (n + FEEDBACK_CONFIDENCE)``); a shape
#: seen many times is trusted almost entirely.
FEEDBACK_CONFIDENCE = 2.0


class CardinalityFeedback:
    """Observed-cardinality corrections for the encoder's static estimates.

    Thread-safe: systems sharing one store may record observations from
    several threads while another optimizes.
    """

    def __init__(self) -> None:
        self._shapes: dict[str, _ShapeObservation] = {}
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    def observe(self, shape_key: str, actual_rows: float) -> None:
        """Record one observed result cardinality for ``shape_key``."""
        rows = max(float(actual_rows), 0.0)
        with self._lock:
            entry = self._shapes.get(shape_key)
            if entry is None:
                self._shapes[shape_key] = _ShapeObservation(rows, 1)
                return
            entry.ewma_rows = FEEDBACK_ALPHA * rows + (1.0 - FEEDBACK_ALPHA) * entry.ewma_rows
            entry.observations += 1

    def correct(self, shape_key: str, estimated_rows: float) -> float:
        """Blend a static estimate with the observed EWMA for this shape.

        Unobserved shapes return the estimate unchanged; observed shapes
        return ``(1 - w) * estimate + w * ewma`` with
        ``w = n / (n + FEEDBACK_CONFIDENCE)``.
        """
        with self._lock:
            entry = self._shapes.get(shape_key)
            if entry is None:
                return estimated_rows
            weight = entry.observations / (entry.observations + FEEDBACK_CONFIDENCE)
            return (1.0 - weight) * estimated_rows + weight * entry.ewma_rows

    def observed_rows(self, shape_key: str) -> float | None:
        """The current EWMA for a shape, or ``None`` when never observed."""
        with self._lock:
            entry = self._shapes.get(shape_key)
            return None if entry is None else entry.ewma_rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._shapes)

    def snapshot(self) -> dict[str, float]:
        """Flat counters for reporting."""
        with self._lock:
            observations = sum(e.observations for e in self._shapes.values())
            return {
                "shapes_tracked": float(len(self._shapes)),
                "observations": float(observations),
            }


# --------------------------------------------------------------------------- #
# Zone maps (per-partition pruning statistics)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ColumnZone:
    """Pruning summary of one column within one partition.

    ``minimum``/``maximum`` are only populated for numeric columns with at
    least one non-NULL value; string columns (and all-NULL slices) carry
    ``None`` bounds and can only be pruned through their null counts.
    """

    num_rows: int
    null_count: int
    minimum: float | None = None
    maximum: float | None = None

    @property
    def non_null(self) -> int:
        """Number of non-NULL values in this partition's column slice."""
        return self.num_rows - self.null_count

    def may_contain_range(
        self,
        low: float | None,
        high: float | None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> bool:
        """Whether any row of this zone *may* satisfy a range predicate.

        Conservative: returns True whenever pruning cannot be proven safe
        (unknown bounds, string columns).  A comparison never matches a
        NULL (three-valued logic), so a slice with no non-NULL values is
        always prunable.
        """
        if self.non_null == 0:
            return False
        if low is not None and high is not None:
            if low > high or (low == high and not (low_inclusive and high_inclusive)):
                return False
        if self.minimum is None or self.maximum is None:
            return True
        if low is not None and (
            self.maximum < low or (self.maximum == low and not low_inclusive)
        ):
            return False
        if high is not None and (
            self.minimum > high or (self.minimum == high and not high_inclusive)
        ):
            return False
        return True

    def range_fraction(self, low: float | None, high: float | None) -> float:
        """Estimated fraction of this zone's rows inside ``[low, high]``.

        Assumes uniformity *within* the zone's own span — far tighter than
        whole-table uniformity when the data is clustered (time-ordered
        arrival), which is exactly when partitioning pays off.
        """
        if self.num_rows == 0 or self.non_null == 0:
            return 0.0
        if not self.may_contain_range(low, high):
            return 0.0
        base = self.non_null / self.num_rows
        if self.minimum is None or self.maximum is None:
            return base * 0.3
        span = self.maximum - self.minimum
        if span <= 0:
            return base
        lo = self.minimum if low is None else max(low, self.minimum)
        hi = self.maximum if high is None else min(high, self.maximum)
        if hi < lo:
            return 0.0
        return base * min(1.0, max(hi - lo, 0.0) / span)


@dataclass(frozen=True)
class ZoneMap:
    """Per-column :class:`ColumnZone` summaries of one partition."""

    num_rows: int
    columns: dict[str, ColumnZone] = field(default_factory=dict)

    def column(self, name: str) -> ColumnZone | None:
        """Zone of ``name`` or ``None`` when unknown."""
        return self.columns.get(name)


def compute_zone_map(table: Table) -> ZoneMap:
    """Compute the zone map of one partition (min/max/null-count per column).

    Deliberately cheaper than :func:`compute_table_statistics`: no
    distinct counts, one ``nanmin``/``nanmax`` pass per numeric column.
    """
    zones: dict[str, ColumnZone] = {}
    for column in table.columns():
        n = len(column)
        nulls = int(column.null_mask().sum())
        minimum: float | None = None
        maximum: float | None = None
        if column.is_numeric() and nulls < n:
            with np.errstate(invalid="ignore"):
                minimum = float(np.nanmin(column.values))
                maximum = float(np.nanmax(column.values))
        zones[column.name] = ColumnZone(n, nulls, minimum, maximum)
    return ZoneMap(num_rows=table.num_rows, columns=zones)


def zone_maps_range_rows(
    zone_maps: Sequence[ZoneMap], column: str, low: float | None, high: float | None
) -> float | None:
    """Estimated matching rows of a range predicate, summed per partition.

    Returns ``None`` when no partition carries a zone for ``column`` (the
    caller should fall back to whole-table statistics).  Partitions whose
    zone excludes the range contribute zero — so the estimate directly
    reflects zone-map pruning.
    """
    known = False
    rows = 0.0
    for zone_map in zone_maps:
        zone = zone_map.column(column)
        if zone is None:
            continue
        known = True
        rows += zone.num_rows * zone.range_fraction(low, high)
    return rows if known else None


def compute_column_statistics(column: Column, sample_limit: int = 100_000) -> ColumnStatistics:
    """Compute statistics for one column.

    Distinct counts on very large string columns are estimated from a
    prefix sample to bound analysis time; for benchmark-scale data this is
    exact in practice because categorical cardinalities are small.
    """
    n = len(column)
    nulls = int(column.null_mask().sum())
    if column.is_numeric():
        values = column.values[~np.isnan(column.values)]
        if values.size == 0:
            return ColumnStatistics(column.name, n, nulls, 0, None, None)
        distinct = int(np.unique(values[:sample_limit]).size)
        return ColumnStatistics(
            column.name,
            n,
            nulls,
            distinct,
            float(values.min()),
            float(values.max()),
        )
    if column.codes is not None:
        present = np.unique(column.codes[:sample_limit])
        distinct = int((present < len(column.dictionary)).sum())
    else:
        distinct = len({v for v in column.values[:sample_limit] if v is not None})
    return ColumnStatistics(column.name, n, nulls, distinct, None, None)


def compute_table_statistics(table: Table, sample_limit: int = 100_000) -> TableStatistics:
    """Compute :class:`TableStatistics` for every column of ``table``."""
    stats = TableStatistics(table_name=table.name, num_rows=table.num_rows)
    for column in table.columns():
        stats.columns[column.name] = compute_column_statistics(column, sample_limit)
    return stats
