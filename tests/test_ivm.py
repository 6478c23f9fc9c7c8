"""Incremental view maintenance: the brush-sequence differential harness.

The IVM contract is *bit-identity*: every query answered from a
maintained view must return exactly the rows (``==``, no tolerance) a
full re-execution returns.  The hypothesis suites here drive random
brush trajectories — monotone ascending, descending, and jumping, with
brushes that empty out and refill — over random datasets and group keys,
comparing an IVM-enabled engine against an IVM-disabled one row for row
at every step, on every backend.

Also covered: brushing out a MIN/MAX is an ordinary hit (with pinned
:attr:`~repro.sql.engine.SQLBackend.metrics` counters), concurrent
sessions brushing one view, catalog invalidation on re-register/drop,
suffix replay (HAVING / ORDER BY / LIMIT) and eligibility negatives.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import backend_names, create_backend
from repro.datasets.generators import generate_dataset
from repro.sql import Database
from repro.sql.ivm import MAX_VIEWS, IVMManager
from repro.sql.parser import parse_sql
from repro.sql.planner import build_logical_plan, ivm_template

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=30
)
settings.load_profile("repro")


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

# Integer-valued aggregate arguments keep SUM/AVG views eligible (exact
# summation); the brush dimension shares the integer grid so brush edges
# frequently land exactly on data values — the interesting boundary case.
_row = st.fixed_dictionaries(
    {
        "g": st.sampled_from(["a", "b", "c", None]),
        "v": st.integers(min_value=-1_000, max_value=1_000),
        "b": st.integers(min_value=-20, max_value=20),
    }
)
_rows = st.lists(_row, min_size=1, max_size=50)

# Thresholds deliberately overshoot the data range on both sides, so
# trajectories include brushes that select nothing and then refill.
_thresholds = st.lists(st.integers(min_value=-25, max_value=25), min_size=2, max_size=8)

_order = st.sampled_from(["asc", "desc", "jump"])

_ALL_AGGREGATES = (
    "COUNT(*) AS n, SUM(v) AS s, AVG(v) AS mean, MIN(v) AS lo, MAX(v) AS hi"
)

#: SELECT lists the embedded trajectories draw from: bare aggregates, and
#: arithmetic over them.
_ITEMS = st.sampled_from(
    [
        _ALL_AGGREGATES,
        "-SUM(v) AS neg, SUM(v) / COUNT(*) AS ratio, MAX(v) - MIN(v) + 1 AS span",
    ]
)


def _ordered(thresholds: list[int], order: str) -> list[int]:
    if order == "asc":
        return sorted(thresholds)
    if order == "desc":
        return sorted(thresholds, reverse=True)
    return thresholds


def _assert_differential(queries: list[str], rows: list[dict], backend: str = "embedded"):
    """Every query must return identical rows with and without IVM."""
    ivm_backend = create_backend(backend)
    plain = create_backend(backend, ivm=False)
    try:
        for db in (ivm_backend, plain):
            db.register_rows("t", rows, column_order=["g", "v", "b"])
        for sql in queries:
            assert ivm_backend.execute(sql).to_rows() == plain.execute(sql).to_rows(), sql
        return ivm_backend.metrics.snapshot()
    finally:
        ivm_backend.close()
        plain.close()


# --------------------------------------------------------------------------- #
# Hypothesis: brush-trajectory differential (the tentpole harness)
# --------------------------------------------------------------------------- #


@given(rows=_rows, thresholds=_thresholds, order=_order, items=_ITEMS)
def test_brush_trajectory_differential(rows, thresholds, order, items):
    """One-sided brush sweeps: IVM rows == re-scan rows at every step."""
    queries = [
        f"SELECT g, {items} FROM t WHERE b >= {t} GROUP BY g"
        for t in _ordered(thresholds, order)
    ]
    metrics = _assert_differential(queries, rows)
    # The maintenance path must actually have served the trajectory.
    assert metrics["ivm_hits"] >= len(queries) - 2


@given(
    rows=_rows, thresholds=_thresholds, order=_order, width=st.integers(1, 10), items=_ITEMS
)
def test_brush_interval_differential(rows, thresholds, order, width, items):
    """Two-sided (BETWEEN) brushes, including empty and refilled windows."""
    queries = [
        f"SELECT g, {items} FROM t "
        f"WHERE b BETWEEN {t} AND {t + width} GROUP BY g"
        for t in _ordered(thresholds, order)
    ]
    metrics = _assert_differential(queries, rows)
    assert metrics["ivm_hits"] >= len(queries) - 2


@given(rows=_rows, thresholds=_thresholds, items=_ITEMS)
def test_global_aggregate_differential(rows, thresholds, items):
    """No GROUP BY: the view emits exactly one row even over empty brushes."""
    queries = [f"SELECT {items} FROM t WHERE b >= {t}" for t in thresholds]
    metrics = _assert_differential(queries, rows)
    assert metrics["ivm_hits"] >= len(queries) - 2


@settings(max_examples=15)
@pytest.mark.parametrize("backend", backend_names())
@given(rows=_rows, thresholds=_thresholds, order=_order)
def test_brush_trajectory_differential_backends(backend, rows, thresholds, order):
    """Both backends: strict-mode shapes (ORDER BY over the full group key,
    no NULL keys) maintain identically to their own re-execution."""
    rows = [dict(row, g=row["g"] or "z") for row in rows]
    queries = [
        f"SELECT g, {_ALL_AGGREGATES} FROM t WHERE b >= {t} "
        "GROUP BY g ORDER BY g"
        for t in _ordered(thresholds, order)
    ]
    metrics = _assert_differential(queries, rows, backend=backend)
    assert metrics["ivm_hits"] >= len(queries) - 2


# --------------------------------------------------------------------------- #
# Range forms: the one range analysis behind the IVM brush and zone-map pruning
# --------------------------------------------------------------------------- #

#: WHERE clauses over a brush threshold ``t``.  Every form is read by
#: ``repro.sql.planner.range_interval``, which both ``ivm_template`` and
#: ``pruning_conjuncts`` consume.
RANGE_FORMS = {
    "col_ge": "b >= {t}",
    "col_gt": "b > {t}",
    "col_le": "b <= {t}",
    "col_lt": "b < {t}",
    "flipped_le": "{t} <= b",
    "flipped_gt": "{t} > b",
    "equal": "b = {t}",
    "between": "b BETWEEN {t} AND {t5}",
    "strict_pair": "b > {t} AND b < {t5}",
    "contradictory": "b > {t5} AND b < {t}",
    "tied_bounds": "b >= {t} AND b > {t} AND b <= {t5}",
    "second_column": "b >= {t} AND v < {v}",
}

_RANGE_TRAJECTORY = (-25, -5, 0, 3, 3, 12, -8, 25, 7)


def _range_rows() -> list[dict]:
    """Rows clustered on ``b`` (so zone maps prune), no NULL group keys."""
    return [
        {"g": "abc"[(i * 7) % 3], "v": (i * 37) % 201 - 100, "b": i // 4 - 20}
        for i in range(164)
    ]


def _range_queries(form: str) -> list[str]:
    where = RANGE_FORMS[form]
    return [
        "SELECT g, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM t "
        f"WHERE {where.format(t=t, t5=t + 5, v=t * 4)} GROUP BY g ORDER BY g"
        for t in _RANGE_TRAJECTORY
    ]


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("form", sorted(RANGE_FORMS))
def test_range_form_ivm_matches_rescan(backend, form):
    """Each range form is an IVM brush: maintained rows == re-scan rows."""
    metrics = _assert_differential(_range_queries(form), _range_rows(), backend=backend)
    assert metrics["ivm_hits"] > 0


@pytest.mark.parametrize("form", sorted(RANGE_FORMS))
def test_range_form_partitioned_matches_flat(form):
    """Each range form prunes zone maps without changing a row."""
    flat, partitioned = Database(ivm=False), Database(ivm=False)
    for db in (flat, partitioned):
        db.register_rows("t", _range_rows(), column_order=["g", "v", "b"])
    partitioned.repartition("t", 16)
    for sql in _range_queries(form):
        assert partitioned.execute(sql).to_rows() == flat.execute(sql).to_rows(), sql
    assert partitioned.metrics.snapshot()["partitions_pruned"] > 0


# --------------------------------------------------------------------------- #
# Suffix replay above the maintained aggregate
# --------------------------------------------------------------------------- #


def test_having_order_limit_suffix_replayed():
    rows = [
        {"g": name, "v": value, "b": value}
        for value, name in enumerate(["a", "a", "a", "b", "b", "c", "d", "d"])
    ]
    queries = [
        f"SELECT g, COUNT(*) AS n FROM t WHERE b >= {t} "
        "GROUP BY g HAVING COUNT(*) >= 1 ORDER BY n DESC, g LIMIT 2"
        for t in (-1, 2, 5, 0, 9)
    ]
    metrics = _assert_differential(queries, rows)
    assert metrics["ivm_hits"] >= len(queries) - 2


# --------------------------------------------------------------------------- #
# Brushing out an extremum (pinned metrics)
# --------------------------------------------------------------------------- #


def _extremum_db() -> tuple[Database, Database]:
    # v is minimal at b=0 and maximal at b=9, so a brush edge crossing
    # either endpoint drops the current extremum.
    rows = [{"b": b, "v": [1, 5, 6, 7, 8, 9, 10, 11, 12, 13][b]} for b in range(10)]
    ivm_db = Database()
    plain = Database(ivm=False)
    for db in (ivm_db, plain):
        db.register_rows("t", rows, column_order=["b", "v"])
    return ivm_db, plain


def test_min_retraction_is_a_plain_hit():
    """Brushing out the current minimum aggregates the window like any
    other step: no fallback, one more hit."""
    ivm_db, plain = _extremum_db()
    sql = "SELECT MIN(v) AS lo, MAX(v) AS hi FROM t WHERE b >= {}"
    for _ in range(2):  # the second sighting builds the view
        assert ivm_db.execute(sql.format(0)).table.to_rows() == [{"lo": 1, "hi": 13}]
    hits = ivm_db.metrics.snapshot()["ivm_hits"]
    # b=0 (v=1, the minimum) leaves; the max (b=9) stays in range.
    assert (
        ivm_db.execute(sql.format(1)).table.to_rows()
        == plain.execute(sql.format(1)).table.to_rows()
        == [{"lo": 5, "hi": 13}]
    )
    snapshot = ivm_db.metrics.snapshot()
    assert snapshot["ivm_fallbacks"] == 0
    assert snapshot["ivm_hits"] == hits + 1


def test_max_retraction_is_a_plain_hit():
    ivm_db, plain = _extremum_db()
    sql = "SELECT MIN(v) AS lo, MAX(v) AS hi FROM t WHERE b <= {}"
    for _ in range(2):
        assert ivm_db.execute(sql.format(9)).table.to_rows() == [{"lo": 1, "hi": 13}]
    hits = ivm_db.metrics.snapshot()["ivm_hits"]
    # b=9 (v=13, the maximum) leaves; the min (b=0) stays in range.
    assert (
        ivm_db.execute(sql.format(8)).table.to_rows()
        == plain.execute(sql.format(8)).table.to_rows()
        == [{"lo": 1, "hi": 12}]
    )
    snapshot = ivm_db.metrics.snapshot()
    assert snapshot["ivm_fallbacks"] == 0
    assert snapshot["ivm_hits"] == hits + 1


def test_emptied_brush_needs_no_fallback_rescan():
    """A brush that selects nothing and then refills is answered from
    the view at every step."""
    ivm_db, plain = _extremum_db()
    sql = "SELECT MIN(v) AS lo, MAX(v) AS hi FROM t WHERE b >= {}"
    for threshold in (0, 0, 100, 0):
        assert (
            ivm_db.execute(sql.format(threshold)).table.to_rows()
            == plain.execute(sql.format(threshold)).table.to_rows()
        )
    snapshot = ivm_db.metrics.snapshot()
    assert snapshot["ivm_fallbacks"] == 0
    assert snapshot["ivm_hits"] == 3


# --------------------------------------------------------------------------- #
# Concurrent sessions brushing one view
# --------------------------------------------------------------------------- #

_CONCURRENT_SQL = (
    "SELECT carrier, COUNT(*) AS n, SUM(distance) AS total, AVG(distance) AS mean, "
    "MIN(delay) AS lo, MAX(delay) AS hi FROM flights "
    "WHERE dep_delay BETWEEN {low} AND {high} GROUP BY carrier ORDER BY carrier"
)


def _dep_delay_trajectory(seed: int, steps: int = 25) -> list[str]:
    """A seeded ``dep_delay`` brush drag that reverses and jumps."""
    rng = np.random.default_rng(seed)
    width = float(rng.uniform(10.0, 60.0))
    low = float(rng.uniform(-30.0, 300.0 - width))
    direction = 1.0
    queries = []
    for _ in range(steps):
        draw = rng.random()
        if draw < 0.15:
            low = float(rng.uniform(-30.0, 300.0 - width))  # jump
        else:
            if draw < 0.35:
                direction = -direction  # reversal
            low = min(max(low + direction * float(rng.uniform(1.0, 8.0)), -30.0), 300.0)
        queries.append(_CONCURRENT_SQL.format(low=round(low, 2), high=round(low + width, 2)))
    return queries


@pytest.mark.parametrize("backend", backend_names())
def test_concurrent_brushes_share_one_view(backend):
    """Eight threads brush one view at once: every step's rows == a
    re-scan's, and the shape builds exactly one view."""
    rows = generate_dataset("flights", 3_000, seed=5)
    trajectories = [_dep_delay_trajectory(seed) for seed in range(8)]
    ivm_backend = create_backend(backend)
    plain = create_backend(backend, ivm=False)
    try:
        for db in (ivm_backend, plain):
            db.register_rows("flights", rows)
        results: dict[int, list[list[dict]]] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(len(trajectories), timeout=30)

        def replay(index: int) -> None:
            try:
                barrier.wait()
                results[index] = [ivm_backend.execute(sql).to_rows() for sql in trajectories[index]]
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=replay, args=(index,))
            for index in range(len(trajectories))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for index, queries in enumerate(trajectories):
            for sql, got in zip(queries, results[index]):
                assert got == plain.execute(sql).to_rows(), sql
        snapshot = ivm_backend.metrics.snapshot()
        assert snapshot["ivm_views"] == 1
        assert snapshot["ivm_hits"] == sum(map(len, trajectories)) - 1
        assert snapshot["ivm_fallbacks"] == 0
    finally:
        ivm_backend.close()
        plain.close()


# --------------------------------------------------------------------------- #
# Catalog invalidation: views, statistics and results together
# --------------------------------------------------------------------------- #


def _brush_rows(values: list[int]) -> list[dict]:
    return [{"g": "x" if v % 2 else "y", "v": v, "b": v} for v in values]


def test_reregister_invalidates_views_and_statistics():
    db = Database()
    db.register_rows("t", _brush_rows([1, 2, 3, 4]), column_order=["g", "v", "b"])
    sql = "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t WHERE b >= {} GROUP BY g"
    db.execute(sql.format(0))
    db.execute(sql.format(2))
    assert len(db.ivm._views) == 1
    assert db.table_statistics("t").num_rows == 4

    db.register_rows(
        "t", _brush_rows([10, 20, 30]), replace=True, column_order=["g", "v", "b"]
    )
    # The stale view is gone, the statistics cache re-derives from the new
    # table, and the next brush answers from the new data.
    assert len(db.ivm._views) == 0
    assert db.metrics.snapshot()["ivm_invalidations"] == 1
    assert db.table_statistics("t").num_rows == 3
    fresh = Database(ivm=False)
    fresh.register_rows("t", _brush_rows([10, 20, 30]), column_order=["g", "v", "b"])
    for threshold in (0, 15, 25):
        assert (
            db.execute(sql.format(threshold)).table.to_rows()
            == fresh.execute(sql.format(threshold)).table.to_rows()
        )


def test_drop_table_invalidates_views():
    db = Database()
    db.register_rows("t", _brush_rows([1, 2, 3]), column_order=["g", "v", "b"])
    db.execute("SELECT g, COUNT(*) AS n FROM t WHERE b >= 1 GROUP BY g")
    db.execute("SELECT g, COUNT(*) AS n FROM t WHERE b >= 2 GROUP BY g")
    assert len(db.ivm._views) == 1
    db.drop_table("t")
    assert len(db.ivm._views) == 0
    assert db.metrics.snapshot()["ivm_invalidations"] == 1


def test_sqlite_reregister_invalidates_views():
    backend = create_backend("sqlite")
    try:
        backend.register_rows("t", _brush_rows([1, 2, 3, 4]), column_order=["g", "v", "b"])
        sql = "SELECT g, COUNT(*) AS n FROM t WHERE b >= {} GROUP BY g ORDER BY g"
        backend.execute(sql.format(0))
        backend.execute(sql.format(2))
        assert len(backend.ivm._views) == 1
        backend.register_rows(
            "t", _brush_rows([5, 6]), replace=True, column_order=["g", "v", "b"]
        )
        assert len(backend.ivm._views) == 0
        plain = create_backend("sqlite", ivm=False)
        try:
            plain.register_rows("t", _brush_rows([5, 6]), column_order=["g", "v", "b"])
            assert (
                backend.execute(sql.format(0)).to_rows()
                == plain.execute(sql.format(0)).to_rows()
            )
        finally:
            plain.close()
    finally:
        backend.close()


def test_sqlite_ivm_leaves_dialect_words_in_string_literals():
    """sqlite strips its dialect clauses before the embedded planner sees
    the text — but the same words inside a string literal are data."""
    rows = [
        {"g": g, "b": b}
        for b in range(10)
        for g in ("a", "a NULLS LAST", "c", "d ROWS UNBOUNDED PRECEDING")
    ]
    queries = [
        f"SELECT g, COUNT(*) AS n FROM t WHERE b >= {t} AND g <> 'a NULLS LAST' "
        "AND g <> 'd ROWS UNBOUNDED PRECEDING' GROUP BY g ORDER BY g NULLS LAST"
        for t in (1, 3, 5)
    ]
    ivm_backend = create_backend("sqlite")
    plain = create_backend("sqlite", ivm=False)
    try:
        for backend in (ivm_backend, plain):
            backend.register_rows("t", rows, column_order=["g", "b"])
        for sql in queries:
            assert ivm_backend.execute(sql).to_rows() == plain.execute(sql).to_rows(), sql
        assert ivm_backend.stats()["ivm_hits"] == len(queries) - 1
    finally:
        ivm_backend.close()
        plain.close()


# --------------------------------------------------------------------------- #
# Eligibility negatives: ineligible shapes/data must never engage
# --------------------------------------------------------------------------- #


def _hits_after(queries: list[str], rows: list[dict]) -> float:
    db = Database()
    db.register_rows("t", rows, column_order=list(rows[0]))
    for sql in queries:
        db.execute(sql)
    return db.metrics.snapshot()["ivm_hits"]


def test_non_integer_sum_declines():
    """SUM over non-integer floats cannot guarantee bit-identity: no hits."""
    rows = [{"g": "a", "v": 0.1 * i, "b": float(i)} for i in range(20)]
    queries = [
        f"SELECT g, SUM(v) AS s FROM t WHERE b >= {t} GROUP BY g" for t in (1, 2, 3)
    ]
    assert _hits_after(queries, rows) == 0


def test_ineligible_aggregates_decline():
    rows = [{"g": "a", "v": i, "b": i} for i in range(20)]
    for item in ("MEDIAN(v) AS m", "COUNT(DISTINCT v) AS d", "STDDEV(v) AS s"):
        queries = [
            f"SELECT g, {item} FROM t WHERE b >= {t} GROUP BY g" for t in (1, 2, 3)
        ]
        assert _hits_after(queries, rows) == 0


def test_template_requires_range_predicate():
    """Queries without a brushable range conjunct produce no template."""
    plan = build_logical_plan(
        parse_sql("SELECT g, COUNT(*) AS n FROM t WHERE g = 'a' GROUP BY g")
    )
    assert ivm_template(plan) is None


def test_view_keeps_only_the_columns_its_aggregate_reads():
    """The brush and the static conjuncts are spent when the tile is
    built, so a hit gathers only the aggregate's items and keys."""
    sql = "SELECT g, SUM(v) AS s FROM t WHERE b >= {} AND v > 0 GROUP BY g"
    template = ivm_template(build_logical_plan(parse_sql(sql.format(1))))
    assert template.columns == frozenset({"g", "v"})
    db = Database()
    db.register_rows("t", _brush_rows([1, 2, 3, 4]), column_order=["g", "v", "b"])
    for threshold in (1, 2):
        db.execute(sql.format(threshold))
    (view,) = db.ivm._views.values()
    assert view.window(template.interval).column_names() == ["g", "v"]


def test_view_key_excludes_brush_literals():
    """Successive brush steps share one view; ORDER BY variants do not
    perturb the aggregate state key either."""

    def key(sql: str) -> str:
        return ivm_template(build_logical_plan(parse_sql(sql))).view_key

    base = "SELECT g, COUNT(*) AS n FROM t WHERE b >= {} GROUP BY g"
    assert key(base.format(1)) == key(base.format(2))
    assert key(base.format(1)) == key(base.format(1) + " ORDER BY g")


# --------------------------------------------------------------------------- #
# Metrics and configuration
# --------------------------------------------------------------------------- #


def test_metrics_snapshot_covers_ivm():
    db = Database()
    db.register_rows("t", _brush_rows([1, 2, 3]), column_order=["g", "v", "b"])
    sql = "SELECT g, COUNT(*) AS n FROM t WHERE b >= {} GROUP BY g"
    for threshold in (1, 2, 3):
        db.execute(sql.format(threshold))
    snapshot = db.metrics.snapshot()
    assert snapshot["ivm_views"] == 1
    assert snapshot["ivm_hits"] == 2
    assert snapshot["ivm_rescan_rows_avoided"] > 0
    # Snapshots are copies: a later one diffs against an earlier one.
    db.execute(sql.format(1))
    later = db.metrics.snapshot()
    assert later["ivm_hits"] - snapshot["ivm_hits"] == 1
    assert later["ivm_views"] - snapshot["ivm_views"] == 0
    assert set(later) == set(snapshot) and len(snapshot) == 23


def test_ivm_disabled_database_has_no_manager():
    db = Database(ivm=False)
    db.register_rows("t", _brush_rows([1, 2]), column_order=["g", "v", "b"])
    assert db.ivm is None
    sql = "SELECT g, COUNT(*) AS n FROM t WHERE b >= 1 GROUP BY g"
    db.execute(sql)
    db.execute(sql)
    assert db.metrics.snapshot()["ivm_hits"] == 0


def test_view_cap_evicts_oldest_view():
    db = Database()
    db.register_rows("t", _brush_rows(list(range(10))), column_order=["g", "v", "b"])
    # One more shape than the cap, each seen twice so its view registers.
    for shape in range(MAX_VIEWS + 1):
        sql = f"SELECT g, COUNT(*) AS n FROM t WHERE v <> {shape} AND b >= {{}} GROUP BY g"
        db.execute(sql.format(1))
        db.execute(sql.format(2))
    assert len(db.ivm._views) == MAX_VIEWS
    assert db.metrics.snapshot()["ivm_views"] == MAX_VIEWS + 1


def test_manager_detaches_on_listener():
    """The manager registers itself as a catalog listener at construction."""
    db = Database(ivm=False)
    manager = IVMManager(db.catalog, db.metrics)
    db.register_rows("t", _brush_rows([1, 2]), column_order=["g", "v", "b"])
    db.register_rows("t", _brush_rows([3]), replace=True, column_order=["g", "v", "b"])
    # No views existed, so invalidation is a no-op — but must not raise.
    assert len(manager._views) == 0
