"""Tests for columns, tables, catalog and statistics."""

import numpy as np
import pytest

from repro.errors import CatalogError
from repro.storage import Catalog, Column, ColumnType, Table, compute_table_statistics
from repro.storage.column import (
    canonical_pylist,
    factorize_array,
    infer_column_type,
    sort_rank_key,
)
from repro.storage.statistics import compute_column_statistics
from repro.storage.table import group_segments

from helpers import table_from_columns


# --------------------------------------------------------------------------- #
# Column
# --------------------------------------------------------------------------- #


def test_column_type_inference_numeric():
    column = Column.from_values("x", [1, 2.5, None, 4])
    assert column.ctype is ColumnType.NUMERIC
    assert column.to_pylist() == [1, 2.5, None, 4]


def test_column_type_inference_string():
    column = Column.from_values("x", ["a", None, "b"])
    assert column.ctype is ColumnType.STRING
    assert column.to_pylist() == ["a", None, "b"]


def test_column_null_mask():
    column = Column.from_values("x", [1, None, 3])
    assert list(column.null_mask()) == [False, True, False]


def test_factorize_numeric_puts_null_last():
    codes, uniques = factorize_array(np.array([2.0, np.nan, 1.0, 2.0, np.nan]))
    assert uniques == [1.0, 2.0, None]
    assert codes.tolist() == [1, 2, 0, 1, 2]


def test_factorize_strings_ranks_numbers_before_strings_before_null():
    values = np.array(["b", None, "a", 3.5, "b", None], dtype=object)
    codes, uniques = factorize_array(values)
    assert uniques == [3.5, "a", "b", None]
    assert codes.tolist() == [2, 3, 1, 0, 2, 3]


def test_factorize_empty_and_column_helper():
    codes, uniques = factorize_array(np.array([], dtype=np.float64))
    assert codes.tolist() == [] and uniques == []
    codes, uniques = factorize_array(Column.from_values("x", ["a", "a", None]).values)
    assert uniques == ["a", None]
    assert codes.tolist() == [0, 0, 1]


def test_sort_rank_key_total_order():
    ranked = sorted([None, "b", 2.0, "a", 1.5, None], key=sort_rank_key)
    assert ranked == [1.5, 2.0, "a", "b", None, None]


def test_group_segments_orders_groups_and_rows():
    codes = [np.array([1, 0, 1, 0, 2], dtype=np.int64)]
    order, starts, ends = group_segments(codes, 5)
    groups = [order[s:e].tolist() for s, e in zip(starts, ends)]
    assert groups == [[1, 3], [0, 2], [4]]


def test_group_segments_no_keys_is_single_segment():
    order, starts, ends = group_segments([], 3)
    assert order.tolist() == [0, 1, 2]
    assert starts.tolist() == [0] and ends.tolist() == [3]
    _order, starts, ends = group_segments([], 0)
    assert starts.tolist() == [0] and ends.tolist() == [0]


def test_table_distinct_indices_first_occurrence_order():
    table = table_from_columns({"a": [1, 2, 1, None, 2, None], "b": ["x", "y", "x", "z", "y", "z"]})
    assert table.distinct_indices().tolist() == [0, 1, 3]
    assert table.distinct_indices(subset=["b"]).tolist() == [0, 1, 3]
    empty = table_from_columns({"a": []})
    assert empty.distinct_indices().tolist() == []


def test_column_take_and_filter():
    column = Column.from_values("x", [10, 20, 30, 40])
    assert column.take(np.array([3, 0])).to_pylist() == [40, 10]
    assert column.take(np.flatnonzero(np.array([True, False, True, False]))).to_pylist() == [10, 30]


def test_column_rename_and_nbytes():
    column = Column.from_values("x", [1.0, 2.0])
    assert column.rename("y").name == "y"
    assert Table([column]).nbytes == 16


def test_numpy_booleans_are_numeric():
    """A comparison result fed back through from_values must not become objects."""
    flags = [np.bool_(True), np.bool_(False)]
    assert infer_column_type(flags) is ColumnType.NUMERIC
    column = Column.from_values("flag", flags + [None])
    assert column.ctype is ColumnType.NUMERIC
    assert column.to_pylist() == [1, 0, None]
    assert sort_rank_key(np.bool_(True)) == (0, 1.0)


def test_object_column_nan_is_null_everywhere():
    """Grouping always put a NaN inside an object array in the NULL group;
    null_mask / to_pylist / the byte rule must agree with it."""
    encoded = Column("x", np.array(["a", float("nan")], dtype=object), ColumnType.STRING)
    mixed = Column("x", np.array(["a", 2.5, float("nan")], dtype=object), ColumnType.STRING)
    assert encoded.null_mask().tolist() == [False, True]
    assert encoded.to_pylist() == ["a", None]
    assert Table([encoded]).nbytes == (1 + 4) + 4
    assert mixed.codes is None
    assert mixed.null_mask().tolist() == [False, False, True]
    assert mixed.to_pylist() == ["a", 2.5, None]
    assert factorize_array(mixed.values)[0].tolist() == [1, 0, 2]


def test_from_values_fast_path_never_parses_numeric_looking_strings():
    assert Column.from_values("x", [1, 2.5, True]).values.tolist() == [1.0, 2.5, 1.0]
    assert Column.from_values("x", []).ctype is ColumnType.NUMERIC
    assert Column.from_values("x", [None, None]).ctype is ColumnType.NUMERIC
    for values in (["1.5", "2"], [1.0, "1.5"], ["1.5", None]):
        column = Column.from_values("x", values)
        assert column.ctype is ColumnType.STRING
        assert column.to_pylist() == values
    numpy_scalars = Column.from_values("x", [np.float64(1.5), np.int64(2), None])
    assert numpy_scalars.ctype is ColumnType.NUMERIC
    assert numpy_scalars.to_pylist() == [1.5, 2, None]


def test_canonical_pylist_matches_per_value_rule():
    values = np.array([1.0, -0.0, 2.5, np.nan, 2.0**53, -(2.0**70), np.inf, -np.inf, 1e300])
    expected = [
        None if np.isnan(v) else int(v) if float(v).is_integer() else float(v)
        for v in values
    ]
    result = canonical_pylist(values)
    assert result == expected
    assert [type(v) for v in result] == [type(v) for v in expected]
    assert canonical_pylist(np.array([], dtype=np.float64)) == []
    assert canonical_pylist(np.array(["a", None], dtype=object)) == ["a", None]


# --------------------------------------------------------------------------- #
# Dictionary-encoded string columns
# --------------------------------------------------------------------------- #


def _object_twin(values: list[object]) -> Column:
    """``values`` in the plain object representation (un-encoded)."""
    twin = Column("s", np.array(values, dtype=object), ColumnType.STRING)
    twin.codes = twin.dictionary = None
    return twin


def test_dictionary_round_trip_equals_object_representation():
    values = ["pear", None, "apple", "pear", "", None, "apple"]
    column = Column.from_values("s", values)
    twin = _object_twin(values)
    assert column.dictionary.tolist() == ["", "apple", "pear"]  # sorted = rank order
    assert column.codes.dtype == np.uint8
    assert column.codes.tolist() == [2, 3, 1, 2, 0, 3, 1]  # NULL = len(dictionary)
    assert column.values.tolist() == values
    assert column.values.dtype == object
    assert column.to_pylist() == twin.to_pylist() == values
    assert column.null_mask().tolist() == twin.null_mask().tolist()
    assert Table([column]).nbytes == Table([twin]).nbytes
    assert len(column) == len(values)
    assert column.group_codes().tolist() == twin.group_codes().tolist()
    assert factorize_array(column.values)[1] == factorize_array(twin.values)[1] == ["", "apple", "pear", None]
    # The constructor takes the same decision from an object array.
    built = Column("s", np.array(values, dtype=object), ColumnType.STRING)
    assert built.codes.tolist() == column.codes.tolist()


def test_dictionary_code_width_follows_cardinality():
    wide = Column.from_values("s", [f"k{i:05d}" for i in range(300)])
    assert wide.codes.dtype == np.uint16
    assert wide.to_pylist()[299] == "k00299"


def test_dictionary_filter_take_slice_share_the_dictionary():
    column = Column.from_values("s", ["b", "a", None, "c", "a"])
    filtered = column.take(np.flatnonzero(np.array([True, False, True, False, True])))
    taken = column.take(np.array([3, 3, 0]))
    window = column.slice(1, 4)
    renamed = column.rename("t")
    for derived in (filtered, taken, window, renamed):
        assert derived.dictionary is column.dictionary
    assert filtered.to_pylist() == ["b", None, "a"]
    assert taken.to_pylist() == ["c", "c", "b"]
    assert window.to_pylist() == ["a", None, "c"]
    assert np.shares_memory(window.codes, column.codes)  # zero-copy view
    # Sparse codes after a filter: only present values come back.
    codes, uniques = factorize_array(filtered.values)
    assert codes.tolist() == [1, 2, 0] and uniques == ["a", "b", None]
    table = Table([column, Column.from_values("n", [1, 2, 3, 4, 5])])
    assert table.slice(1, 2).column("s").dictionary is column.dictionary
    assert table.slice(1, 2).to_rows() == [{"s": "a", "n": 2}, {"s": None, "n": 3}]


def test_all_null_and_empty_string_columns():
    all_null = Column("s", np.array([None, None], dtype=object), ColumnType.STRING)
    assert all_null.codes.tolist() == [0, 0] and len(all_null.dictionary) == 0
    assert all_null.null_mask().tolist() == [True, True]
    assert all_null.to_pylist() == [None, None]
    assert factorize_array(all_null.values)[1] == [None]
    empty = Column("s", np.array([], dtype=object), ColumnType.STRING)
    assert len(empty) == 0 and empty.to_pylist() == [] and Table([empty]).nbytes == 0
    assert empty.null_mask().tolist() == []
    assert Table([empty]).distinct_indices().tolist() == []


def test_mixed_type_string_columns_stay_unencoded():
    values = ["a", 3.5, None, "b", 7]
    column = Column.from_values("s", values)
    assert column.ctype is ColumnType.STRING and column.codes is None
    assert column.to_pylist() == values
    assert column.take(np.array([4, 0])).to_pylist() == [7, "a"]
    assert column.slice(1, 3).to_pylist() == [3.5, None]
    assert factorize_array(column.values)[1] == [3.5, 7, "a", "b", None]
    unhashable = Column("s", np.array([["x"], None], dtype=object), ColumnType.STRING)
    assert unhashable.codes is None and unhashable.null_mask().tolist() == [False, True]


def test_column_pickles_compactly():
    import pickle

    big = Column.from_values("s", [f"k{i}" for i in range(1000)])
    one = pickle.loads(pickle.dumps(big.take(np.array([7]))))
    assert one.to_pylist() == ["k7"] and len(one.dictionary) == 1


# --------------------------------------------------------------------------- #
# Table
# --------------------------------------------------------------------------- #


def test_table_from_rows_and_back(tiny_table_rows):
    table = Table.from_rows(tiny_table_rows)
    assert table.num_rows == 5
    assert table.column_names() == ["category", "value", "weight"]
    assert table.to_rows()[0] == {"category": "a", "value": 10, "weight": 1}


def test_table_from_columns_and_select():
    table = table_from_columns({"a": [1, 2], "b": ["x", "y"]})
    selected = table.select(["b"])
    assert selected.column_names() == ["b"]
    assert selected.to_rows() == [{"b": "x"}, {"b": "y"}]


def test_table_rejects_mismatched_columns():
    with pytest.raises(ValueError):
        Table([Column.from_values("a", [1]), Column.from_values("b", [1, 2])])
    with pytest.raises(ValueError):
        Table([Column.from_values("a", [1]), Column.from_values("a", [2])])


def test_table_filter_take_slice(tiny_table_rows):
    table = Table.from_rows(tiny_table_rows)
    filtered = table.take(np.flatnonzero(np.array([True, False, True, False, True])))
    assert filtered.num_rows == 3
    taken = table.take(np.array([4, 0]))
    assert taken.to_rows()[0]["category"] == "c"
    assert table.slice(1, 2).num_rows == 2


def test_table_with_column_and_rename(tiny_table_rows):
    table = Table.from_rows(tiny_table_rows)
    extended = table.with_column(Column.from_values("double", [2.0] * 5))
    assert "double" in extended.column_names()
    replaced = extended.with_column(table.column("value").rename("double"))
    assert replaced.column_names() == ["category", "value", "weight", "double"]
    assert replaced.column("double").to_pylist() == table.column("value").to_pylist()


def test_table_missing_column_error(tiny_table_rows):
    table = Table.from_rows(tiny_table_rows, name="tiny")
    with pytest.raises(CatalogError):
        table.column("nope")


def test_table_missing_keys_become_null():
    table = Table.from_rows([{"a": 1}, {"b": 2}])
    rows = table.to_rows()
    assert rows[0]["b"] is None
    assert rows[1]["a"] is None


def test_empty_table():
    table = table_from_columns({"a": [], "b": []})
    assert table.num_rows == 0
    assert table.column_names() == ["a", "b"]


# --------------------------------------------------------------------------- #
# Catalog
# --------------------------------------------------------------------------- #


def test_catalog_register_and_get(tiny_table_rows):
    catalog = Catalog()
    catalog.register("tiny", Table.from_rows(tiny_table_rows))
    assert catalog.has("tiny")
    assert catalog.get("tiny").num_rows == 5
    assert catalog.table_names() == ["tiny"]


def test_catalog_duplicate_and_replace(tiny_table_rows):
    catalog = Catalog()
    catalog.register("tiny", Table.from_rows(tiny_table_rows))
    with pytest.raises(CatalogError):
        catalog.register("tiny", Table.from_rows(tiny_table_rows))
    catalog.register("tiny", Table.from_rows(tiny_table_rows[:2]), replace=True)
    assert catalog.get("tiny").num_rows == 2


def test_catalog_drop_and_missing(tiny_table_rows):
    catalog = Catalog()
    catalog.register("tiny", Table.from_rows(tiny_table_rows))
    catalog.drop("tiny")
    assert not catalog.has("tiny")
    with pytest.raises(CatalogError):
        catalog.get("tiny")
    with pytest.raises(CatalogError):
        catalog.drop("tiny")
    with pytest.raises(CatalogError):
        catalog.register("", Table.from_rows(tiny_table_rows))


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #


def test_column_statistics_numeric(tiny_table_rows):
    table = Table.from_rows(tiny_table_rows)
    stats = compute_column_statistics(table.column("value"))
    assert stats.num_values == 5
    assert stats.num_nulls == 1
    assert stats.minimum == 10
    assert stats.maximum == 50
    assert stats.num_distinct == 4


def test_column_statistics_string(tiny_table_rows):
    table = Table.from_rows(tiny_table_rows)
    stats = compute_column_statistics(table.column("category"))
    assert stats.num_distinct == 3
    assert stats.selectivity_equals() == pytest.approx(1 / 3)


def test_table_statistics_and_range_selectivity(tiny_table_rows):
    table = Table.from_rows(tiny_table_rows, name="tiny")
    stats = compute_table_statistics(table)
    assert stats.num_rows == 5
    value_stats = stats.column("value")
    assert value_stats.selectivity_range(10, 30) == pytest.approx(0.5)
    assert value_stats.selectivity_range(None, 1000) == 1.0
    assert value_stats.selectivity_range(100, 200) == 0.0
    assert stats.column("missing") is None
