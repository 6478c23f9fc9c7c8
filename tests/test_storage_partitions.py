"""Partitioned storage: PartitionedTable, zone maps, catalog."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CatalogError
from repro.storage import (
    Catalog,
    Column,
    ColumnZone,
    PartitionedTable,
    Table,
    compute_zone_map,
)
from repro.storage.statistics import RangeInterval, sorted_columns, zone_maps_range_rows

from helpers import table_from_columns


def _table(n: int = 100) -> Table:
    return table_from_columns(
        {
            "t": [float(i) for i in range(n)],
            "v": [None if i % 10 == 0 else float(i % 7) for i in range(n)],
            "g": [None if i % 9 == 0 else "ab"[i % 2] for i in range(n)],
        },
        name="data",
    )


# --------------------------------------------------------------------------- #
# PartitionedTable
# --------------------------------------------------------------------------- #


class TestPartitionedTable:
    def test_from_table_splits_into_row_ranges(self):
        table = PartitionedTable.from_table(_table(100), target_rows=30)
        assert table.num_partitions == 4
        assert table.row_ranges([0]) + table.row_ranges([1, 3]) == [
            (0, 30), (30, 60), (90, 100)
        ]
        assert table.num_rows == 100
        assert [table.partition(i).num_rows for i in range(4)] == [30, 30, 30, 10]

    def test_partitions_concatenate_back_to_the_table(self):
        base = _table(57)
        table = PartitionedTable.from_table(base, target_rows=10)
        merged = [row for part in table.partitions() for row in part.to_rows()]
        assert merged == base.to_rows()

    def test_partition_views_are_zero_copy(self):
        table = PartitionedTable.from_table(_table(40), target_rows=10)
        part = table.partition(1)
        assert part.column("t").values.base is not None
        assert np.shares_memory(part.column("t").values, table.column("t").values)

    def test_behaves_like_a_table(self):
        table = PartitionedTable.from_table(_table(20), target_rows=6)
        assert table.column_names() == ["t", "v", "g"]
        filtered = table.take(np.flatnonzero(table.column("t").values < 5.0))
        assert filtered.num_rows == 5
        assert not isinstance(filtered, PartitionedTable)

    def test_repartition_and_renamed_preserve_structure(self):
        table = PartitionedTable.from_table(_table(100), target_rows=50)
        finer = PartitionedTable.from_table(table, 10)
        assert finer.num_partitions == 10
        renamed = finer.renamed("other")
        assert isinstance(renamed, PartitionedTable)
        assert renamed.name == "other"
        assert renamed.row_ranges([1, 3]) == finer.row_ranges([1, 3]) == [(10, 20), (30, 40)]

    def test_empty_table_is_one_empty_partition(self):
        table = PartitionedTable.from_table(table_from_columns({"a": [], "b": []}), target_rows=10)
        assert table.num_partitions == 1
        assert table.partition(0).num_rows == 0

    def test_invalid_boundaries_rejected(self):
        base = _table(10)
        with pytest.raises(ValueError):
            PartitionedTable(base.columns(), boundaries=[0, 5])  # must end at n
        with pytest.raises(ValueError):
            PartitionedTable(base.columns(), boundaries=[0, 5, 5, 10])
        with pytest.raises(ValueError):
            PartitionedTable.from_table(base, target_rows=0)


# --------------------------------------------------------------------------- #
# Zone maps
# --------------------------------------------------------------------------- #


class TestZoneMaps:
    def test_compute_zone_map_numeric_and_string(self):
        zone_map = compute_zone_map(_table(50))
        t = zone_map.column("t")
        assert (t.minimum, t.maximum, t.null_count) == (0.0, 49.0, 0)
        g = zone_map.column("g")
        assert g.minimum is None and g.maximum is None
        assert g.null_count == sum(1 for i in range(50) if i % 9 == 0)

    def test_all_null_column_zone(self):
        zone_map = compute_zone_map(table_from_columns({"x": [None, None]}))
        zone = zone_map.column("x")
        assert zone.minimum is None and zone.non_null == 0
        assert not zone.may_contain_range(RangeInterval("t", 0.0, 10.0))
        assert not zone.may_contain_range(RangeInterval("t", None, None))

    def test_may_contain_range_boundaries(self):
        zone = ColumnZone(num_rows=10, null_count=0, minimum=10.0, maximum=20.0)
        assert zone.may_contain_range(RangeInterval("t", None, None))
        assert zone.may_contain_range(RangeInterval("t", 20.0, None))
        assert not zone.may_contain_range(RangeInterval("t", 20.0, None, low_inclusive=False))
        assert zone.may_contain_range(RangeInterval("t", None, 10.0))
        assert not zone.may_contain_range(RangeInterval("t", None, 10.0, high_inclusive=False))
        assert not zone.may_contain_range(RangeInterval("t", 21.0, None))
        assert not zone.may_contain_range(RangeInterval("t", None, 9.0))
        # Empty interval (low > high) can never match.
        assert not zone.may_contain_range(RangeInterval("t", 15.0, 12.0))

    def test_range_fraction_uses_zone_span(self):
        zone = ColumnZone(num_rows=100, null_count=0, minimum=0.0, maximum=100.0)
        assert zone.range_fraction(RangeInterval("t", 0.0, 50.0)) == pytest.approx(0.5)
        assert zone.range_fraction(RangeInterval("t", 200.0, 300.0)) == 0.0
        nullish = ColumnZone(num_rows=100, null_count=50, minimum=0.0, maximum=100.0)
        assert nullish.range_fraction(RangeInterval("t", None, None)) == pytest.approx(0.5)

    def test_zone_maps_range_rows_sums_partitions(self):
        table = PartitionedTable.from_table(_table(100), target_rows=25)
        zone_maps = [compute_zone_map(part) for part in table.partitions()]
        # t is 0..99 uniformly: a quarter-span window ~ 25 rows.
        rows = zone_maps_range_rows(zone_maps, "t", 0.0, 24.0)
        assert rows == pytest.approx(24.0, abs=3.0)
        assert zone_maps_range_rows(zone_maps, "missing", 0.0, 1.0) is None

    def test_sorted_columns_are_those_whose_zones_come_in_order(self):
        """A NULL-free numeric column that never decreases: its zones come
        in order under any partitioning.  ``v`` holds NULLs, ``g`` is text,
        and a single decrease disqualifies a column."""
        assert sorted_columns(_table(100)) == ["t"]
        ties = table_from_columns({"a": [1.0, 1.0, 2.0], "b": [1.0, 3.0, 2.0]})
        assert sorted_columns(ties) == ["a"]
        partitioned = PartitionedTable.from_table(_table(100), target_rows=7)
        zones = [compute_zone_map(part).column("t") for part in partitioned.partitions()]
        assert all(z.maximum <= nxt.minimum for z, nxt in zip(zones, zones[1:]))
        assert sorted_columns(partitioned) == ["t"]


# --------------------------------------------------------------------------- #
# Catalog integration
# --------------------------------------------------------------------------- #


class TestCatalogZoneMaps:
    def test_partitioned_registration_preserved(self):
        catalog = Catalog()
        catalog.register("data", PartitionedTable.from_table(_table(60), 20))
        stored = catalog.get("data")
        assert isinstance(stored, PartitionedTable)
        assert stored.num_partitions == 3
        assert stored.name == "data"

    def test_zone_maps_cached_and_invalidated(self):
        catalog = Catalog()
        catalog.register("data", PartitionedTable.from_table(_table(60), 20))
        first = catalog.zone_maps("data")
        assert first is not None and len(first) == 3
        assert catalog.zone_maps("data") is first  # cached
        catalog.register("data", PartitionedTable.from_table(_table(60), 10), replace=True)
        second = catalog.zone_maps("data")
        assert second is not first and len(second) == 6

    def test_plain_tables_have_no_zone_maps(self):
        catalog = Catalog()
        catalog.register("data", _table(10))
        assert catalog.zone_maps("data") is None
        with pytest.raises(CatalogError):
            catalog.zone_maps("unknown")

    def test_zone_map_column_type(self):
        zone = compute_zone_map(
            Table([Column.from_values("x", [1.0, None, 3.0])])
        ).column("x")
        assert zone == ColumnZone(num_rows=3, null_count=1, minimum=1.0, maximum=3.0)
