"""Seeded synthetic dataset generators.

Each generator mirrors one of the five datasets used in the paper's
benchmark (flights, movies, weather, taxi, stocks).  Generators are
deterministic given a seed and a row count, so experiments are repeatable.

Rows are produced as plain dictionaries (the representation the dataflow
runtime consumes) and can be loaded into the SQL engine via
``Database.register_rows``.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.schema import DatasetSchema, FieldSpec, FieldType

#: Seconds in a day, used when generating temporal fields.
_DAY = 86_400

#: Epoch seconds for 1987-01-01 and 2008-12-31 (flights data range).
_FLIGHTS_START = 536_457_600
_FLIGHTS_END = 1_230_681_600


def flights_schema() -> DatasetSchema:
    """Schema modelled after the US commercial flights dataset (1987-2008)."""
    airlines = tuple(f"AL{i:02d}" for i in range(18))
    origins = tuple(f"APT{i:03d}" for i in range(120))
    return DatasetSchema(
        name="flights",
        fields=[
            FieldSpec("delay", FieldType.QUANTITATIVE, -60.0, 600.0, null_rate=0.02),
            FieldSpec("distance", FieldType.QUANTITATIVE, 50.0, 4500.0, integer=True),
            FieldSpec("air_time", FieldType.QUANTITATIVE, 20.0, 600.0, integer=True),
            FieldSpec("dep_delay", FieldType.QUANTITATIVE, -30.0, 300.0),
            FieldSpec("carrier", FieldType.CATEGORICAL, categories=airlines),
            FieldSpec("origin", FieldType.CATEGORICAL, categories=origins),
            FieldSpec("cancelled", FieldType.CATEGORICAL, categories=("yes", "no")),
            FieldSpec("date", FieldType.TEMPORAL, _FLIGHTS_START, _FLIGHTS_END),
        ],
    )


def movies_schema() -> DatasetSchema:
    """Schema modelled after the IMDB/vega-datasets movies dataset."""
    genres = (
        "Action", "Adventure", "Comedy", "Drama", "Horror", "Musical",
        "Romance", "Thriller", "Western", "Documentary",
    )
    ratings = ("G", "PG", "PG-13", "R", "NC-17", "Not Rated")
    return DatasetSchema(
        name="movies",
        fields=[
            FieldSpec("imdb_rating", FieldType.QUANTITATIVE, 1.0, 10.0, null_rate=0.05),
            FieldSpec("rotten_rating", FieldType.QUANTITATIVE, 0.0, 100.0, integer=True),
            FieldSpec("budget", FieldType.QUANTITATIVE, 1e4, 3e8),
            FieldSpec("gross", FieldType.QUANTITATIVE, 0.0, 8e8),
            FieldSpec("major_genre", FieldType.CATEGORICAL, categories=genres),
            FieldSpec("mpaa_rating", FieldType.CATEGORICAL, categories=ratings),
            FieldSpec("release_date", FieldType.TEMPORAL, 0, 1_230_681_600),
        ],
    )


def weather_schema() -> DatasetSchema:
    """Schema modelled after the Seattle/NYC weather dataset."""
    conditions = ("sun", "rain", "fog", "snow", "drizzle")
    stations = tuple(f"ST{i:02d}" for i in range(40))
    return DatasetSchema(
        name="weather",
        fields=[
            FieldSpec("temp_max", FieldType.QUANTITATIVE, -10.0, 40.0),
            FieldSpec("temp_min", FieldType.QUANTITATIVE, -20.0, 30.0),
            FieldSpec("precipitation", FieldType.QUANTITATIVE, 0.0, 60.0),
            FieldSpec("wind", FieldType.QUANTITATIVE, 0.0, 20.0),
            FieldSpec("condition", FieldType.CATEGORICAL, categories=conditions),
            FieldSpec("station", FieldType.CATEGORICAL, categories=stations),
            FieldSpec("date", FieldType.TEMPORAL, 1_262_304_000, 1_420_070_400),
        ],
    )


def taxi_schema() -> DatasetSchema:
    """Schema modelled after the NYC taxi trips dataset."""
    boroughs = ("Manhattan", "Brooklyn", "Queens", "Bronx", "Staten Island")
    payment = ("card", "cash", "dispute", "no charge")
    return DatasetSchema(
        name="taxi",
        fields=[
            FieldSpec("trip_distance", FieldType.QUANTITATIVE, 0.1, 60.0),
            FieldSpec("fare", FieldType.QUANTITATIVE, 2.5, 250.0),
            FieldSpec("tip", FieldType.QUANTITATIVE, 0.0, 60.0),
            FieldSpec("passengers", FieldType.QUANTITATIVE, 1, 6, integer=True),
            FieldSpec("pickup_borough", FieldType.CATEGORICAL, categories=boroughs),
            FieldSpec("payment_type", FieldType.CATEGORICAL, categories=payment),
            FieldSpec("pickup_time", FieldType.TEMPORAL, 1_356_998_400, 1_388_534_400),
        ],
    )


def stocks_schema() -> DatasetSchema:
    """Schema modelled after a daily stock price dataset."""
    symbols = tuple(
        f"SYM{i:02d}" for i in range(25)
    )
    sectors = ("tech", "energy", "health", "finance", "consumer")
    return DatasetSchema(
        name="stocks",
        fields=[
            FieldSpec("price", FieldType.QUANTITATIVE, 1.0, 1500.0),
            FieldSpec("volume", FieldType.QUANTITATIVE, 1e3, 1e8, integer=True),
            FieldSpec("change", FieldType.QUANTITATIVE, -20.0, 20.0),
            FieldSpec("symbol", FieldType.CATEGORICAL, categories=symbols),
            FieldSpec("sector", FieldType.CATEGORICAL, categories=sectors),
            FieldSpec("date", FieldType.TEMPORAL, 946_684_800, 1_420_070_400),
        ],
    )


_SCHEMAS = {
    "flights": flights_schema,
    "movies": movies_schema,
    "weather": weather_schema,
    "taxi": taxi_schema,
    "stocks": stocks_schema,
}


def available_datasets() -> list[str]:
    """Names of the datasets the benchmark can generate."""
    return sorted(_SCHEMAS)


class DatasetGenerator:
    """Deterministic generator of synthetic rows for a schema.

    Parameters
    ----------
    schema:
        The dataset schema to generate rows for.
    seed:
        Seed for the underlying numpy random generator.  The same
        ``(schema, seed, n_rows)`` triple always yields the same rows.
    """

    def __init__(self, schema: DatasetSchema, seed: int = 0) -> None:
        self.schema = schema
        self.seed = seed

    def columns(self, n_rows: int) -> dict[str, np.ndarray]:
        """Generate ``n_rows`` values per field as numpy arrays.

        Categorical columns are returned as object arrays of Python
        strings; quantitative/temporal columns as float arrays with
        ``np.nan`` for nulls.
        """
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        rng = np.random.default_rng(self.seed)
        out: dict[str, np.ndarray] = {}
        for spec in self.schema.fields:
            out[spec.name] = self._generate_field(spec, n_rows, rng)
        return out

    def rows(self, n_rows: int) -> list[dict[str, object]]:
        """Generate ``n_rows`` rows as a list of plain dictionaries.

        ``np.nan`` values become ``None`` so that downstream consumers see
        ordinary Python missing values.
        """
        cols = self.columns(n_rows)
        names = list(cols)
        out: list[dict[str, object]] = []
        for i in range(n_rows):
            row: dict[str, object] = {}
            for name in names:
                value = cols[name][i]
                if isinstance(value, float) and np.isnan(value):
                    row[name] = None
                elif isinstance(value, np.floating):
                    row[name] = float(value)
                elif isinstance(value, np.integer):
                    row[name] = int(value)
                else:
                    row[name] = value
            out.append(row)
        return out

    def _generate_field(
        self, spec: FieldSpec, n_rows: int, rng: np.random.Generator
    ) -> np.ndarray:
        if spec.ftype is FieldType.CATEGORICAL:
            values = self._categorical(spec, n_rows, rng)
        elif spec.ftype is FieldType.TEMPORAL:
            values = rng.uniform(spec.minimum, spec.maximum, size=n_rows)
            values = np.floor(values)
        else:
            values = self._quantitative(spec, n_rows, rng)
        if spec.null_rate > 0 and spec.ftype is not FieldType.CATEGORICAL:
            mask = rng.random(n_rows) < spec.null_rate
            values = values.astype(float)
            values[mask] = np.nan
        return values

    @staticmethod
    def _categorical(spec: FieldSpec, n_rows: int, rng: np.random.Generator) -> np.ndarray:
        categories = np.array(spec.categories, dtype=object)
        # Zipf-like skew: real categorical data (carriers, genres, boroughs)
        # is heavily skewed, which matters for group-by result cardinality.
        ranks = np.arange(1, len(categories) + 1, dtype=float)
        weights = 1.0 / ranks
        weights /= weights.sum()
        idx = rng.choice(len(categories), size=n_rows, p=weights)
        return categories[idx]

    @staticmethod
    def _quantitative(spec: FieldSpec, n_rows: int, rng: np.random.Generator) -> np.ndarray:
        span = spec.maximum - spec.minimum
        # Mixture of a central normal mass and a uniform tail roughly mimics
        # delay/fare/rating distributions (most values near the mode, long tail).
        center = spec.minimum + 0.3 * span
        scale = max(span / 8.0, 1e-9)
        normal_part = rng.normal(center, scale, size=n_rows)
        uniform_part = rng.uniform(spec.minimum, spec.maximum, size=n_rows)
        pick_tail = rng.random(n_rows) < 0.2
        values = np.where(pick_tail, uniform_part, normal_part)
        values = np.clip(values, spec.minimum, spec.maximum)
        if spec.integer:
            values = np.round(values)
        return values


def generate_dataset(name: str, n_rows: int, seed: int = 0) -> list[dict[str, object]]:
    """Generate rows for one of the named benchmark datasets.

    Parameters
    ----------
    name:
        One of :func:`available_datasets`.
    n_rows:
        Number of rows to generate.
    seed:
        Random seed; defaults to 0 for reproducible experiments.
    """
    try:
        schema = _SCHEMAS[name]()
    except KeyError as exc:
        raise KeyError(
            f"unknown dataset {name!r}; expected one of {available_datasets()}"
        ) from exc
    return DatasetGenerator(schema, seed=seed).rows(n_rows)


def get_schema(name: str) -> DatasetSchema:
    """Return the :class:`DatasetSchema` for a named benchmark dataset."""
    try:
        return _SCHEMAS[name]()
    except KeyError as exc:
        raise KeyError(
            f"unknown dataset {name!r}; expected one of {available_datasets()}"
        ) from exc
