"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    DatasetGenerator,
    FieldType,
    available_datasets,
    flights_schema,
    generate_dataset,
)
from repro.datasets.generators import get_schema
from repro.datasets.schema import DatasetSchema, FieldSpec


def test_available_datasets_lists_all_five():
    assert available_datasets() == ["flights", "movies", "stocks", "taxi", "weather"]


def test_generate_dataset_row_count_and_columns():
    rows = generate_dataset("flights", 100, seed=1)
    assert len(rows) == 100
    assert set(rows[0]) == {spec.name for spec in flights_schema().fields}


def test_generate_dataset_is_deterministic():
    first = generate_dataset("movies", 50, seed=3)
    second = generate_dataset("movies", 50, seed=3)
    assert first == second


def test_generate_dataset_different_seed_differs():
    first = generate_dataset("movies", 50, seed=3)
    second = generate_dataset("movies", 50, seed=4)
    assert first != second


def test_generate_dataset_unknown_name_raises():
    with pytest.raises(KeyError):
        generate_dataset("does-not-exist", 10)


def test_quantitative_values_respect_bounds():
    schema = flights_schema()
    rows = generate_dataset("flights", 300, seed=0)
    spec = schema.field("distance")
    values = [r["distance"] for r in rows if r["distance"] is not None]
    assert min(values) >= spec.minimum
    assert max(values) <= spec.maximum


def test_null_rate_produces_some_nulls():
    rows = generate_dataset("flights", 2000, seed=0)
    nulls = sum(1 for r in rows if r["delay"] is None)
    assert 0 < nulls < 200


def test_categorical_values_come_from_schema():
    schema = get_schema("taxi")
    rows = generate_dataset("taxi", 200, seed=5)
    allowed = set(schema.field("pickup_borough").categories)
    assert {r["pickup_borough"] for r in rows} <= allowed


def test_categorical_skew_most_common_first():
    """Zipf-like skew: the first category should be the most frequent."""
    schema = get_schema("weather")
    rows = generate_dataset("weather", 3000, seed=2)
    counts = {}
    for row in rows:
        counts[row["condition"]] = counts.get(row["condition"], 0) + 1
    first_category = schema.field("condition").categories[0]
    assert counts[first_category] == max(counts.values())


def test_columns_returns_numpy_arrays():
    generator = DatasetGenerator(flights_schema(), seed=1)
    columns = generator.columns(10)
    assert isinstance(columns["delay"], np.ndarray)
    assert len(columns["carrier"]) == 10


def test_negative_rows_rejected():
    generator = DatasetGenerator(flights_schema(), seed=1)
    with pytest.raises(ValueError):
        generator.columns(-1)


def test_schema_field_lookup_and_types():
    schema = flights_schema()
    assert schema.field("carrier").ftype is FieldType.CATEGORICAL
    assert "delay" in schema.quantitative_fields()
    assert schema.field("date").ftype is FieldType.TEMPORAL
    with pytest.raises(KeyError):
        schema.field("nope")


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec("bad", FieldType.CATEGORICAL)
    with pytest.raises(ValueError):
        FieldSpec("bad", FieldType.QUANTITATIVE, minimum=10, maximum=0)
    with pytest.raises(ValueError):
        FieldSpec("bad", FieldType.QUANTITATIVE, null_rate=1.5)


def test_dataset_schema_field_names_order():
    schema = DatasetSchema(
        name="demo",
        fields=[
            FieldSpec("x", FieldType.QUANTITATIVE, 0, 1),
            FieldSpec("y", FieldType.QUANTITATIVE, 0, 1),
        ],
    )
    assert [spec.name for spec in schema.fields] == ["x", "y"]
