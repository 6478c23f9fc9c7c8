"""Zone-map pruning: conjunct extraction, pushdown, executor, estimator.

Covers the satellite edges explicitly: NULL-only partitions, open-ended
BETWEEN, and predicates on computed columns (which must never prune).
"""

from __future__ import annotations

import pytest

from repro.sql.ast_nodes import ColumnRef, OrderItem
from repro.sql.engine import Database
from repro.sql.executor import ExecutionStats, Executor
from repro.sql.optimizer import (
    PruningNullCheck,
    optimize_plan,
    prune_partitions,
    pruning_conjuncts,
)
from repro.sql.parser import parse_sql
from repro.sql.planner import (
    AggregateNode,
    FilterNode,
    ProjectNode,
    ScanNode,
    SortNode,
    SubqueryNode,
    build_logical_plan,
)
from repro.storage import Catalog, PartitionedTable, Table, compute_zone_map
from repro.storage.statistics import RangeInterval

from helpers import table_from_columns


def _predicate(sql_where: str):
    """The optimised WHERE predicate of ``SELECT * FROM t WHERE ...``."""
    plan = optimize_plan(build_logical_plan(parse_sql(f"SELECT * FROM t WHERE {sql_where}")))
    node = plan.root
    while not isinstance(node, FilterNode):
        node = node.children()[0]
    return node.predicate


# --------------------------------------------------------------------------- #
# Conjunct extraction
# --------------------------------------------------------------------------- #


class TestPruningConjuncts:
    def test_comparisons_both_directions(self):
        assert pruning_conjuncts(_predicate("x >= 10")) == [RangeInterval("x", 10.0, None)]
        assert pruning_conjuncts(_predicate("10 >= x")) == [RangeInterval("x", None, 10.0)]
        assert pruning_conjuncts(_predicate("x < 5")) == [
            RangeInterval("x", None, 5.0, high_inclusive=False)
        ]
        assert pruning_conjuncts(_predicate("x = 3")) == [RangeInterval("x", 3.0, 3.0)]

    def test_conjunction_collects_both_sides(self):
        conjuncts = pruning_conjuncts(_predicate("x >= 10 AND y < 2 AND g = 'a'"))
        assert RangeInterval("x", 10.0, None) in conjuncts
        assert RangeInterval("y", None, 2.0, high_inclusive=False) in conjuncts
        # String equality cannot bound the value but implies NOT NULL.
        assert PruningNullCheck("g", negated=True) in conjuncts

    def test_between_and_open_ended_between(self):
        assert pruning_conjuncts(_predicate("x BETWEEN 3 AND 7")) == [
            RangeInterval("x", 3.0, 7.0)
        ]
        # Open-ended BETWEEN: a non-literal bound leaves that side open.
        assert pruning_conjuncts(_predicate("x BETWEEN 3 AND y")) == [
            RangeInterval("x", 3.0, None)
        ]
        assert pruning_conjuncts(_predicate("x NOT BETWEEN 3 AND 7")) == []

    def test_in_list_and_null_checks(self):
        assert pruning_conjuncts(_predicate("x IN (5, 1, 3)")) == [
            RangeInterval("x", 1.0, 5.0)
        ]
        assert pruning_conjuncts(_predicate("g IN ('a', 'b')")) == [
            PruningNullCheck("g", negated=True)
        ]
        assert pruning_conjuncts(_predicate("x IS NULL")) == [PruningNullCheck("x")]
        assert pruning_conjuncts(_predicate("x IS NOT NULL")) == [
            PruningNullCheck("x", negated=True)
        ]

    def test_disjunctions_and_negations_never_prune(self):
        assert pruning_conjuncts(_predicate("x > 5 OR y < 2")) == []
        assert pruning_conjuncts(_predicate("NOT x > 5")) == []
        assert pruning_conjuncts(_predicate("x NOT IN (1, 2)")) == []
        # But analysable conjuncts survive next to unanalysable ones.
        assert pruning_conjuncts(_predicate("(x > 5 OR y < 2) AND z >= 1")) == [
            RangeInterval("z", 1.0, None)
        ]

    def test_computed_columns_never_prune(self):
        assert pruning_conjuncts(_predicate("x + 1 > 10")) == []
        assert pruning_conjuncts(_predicate("ABS(x) > 10")) == []
        assert pruning_conjuncts(_predicate("x * 2 BETWEEN 1 AND 5")) == []
        assert pruning_conjuncts(_predicate("ABS(x) IS NULL")) == []


# --------------------------------------------------------------------------- #
# Zone intersection
# --------------------------------------------------------------------------- #


def _zone_maps():
    """Three partitions: t in [0,9] all-null v; t in [10,19]; t in [20,29]."""
    parts = [
        table_from_columns({"t": [float(i) for i in range(0, 10)], "v": [None] * 10}),
        table_from_columns(
            {"t": [float(i) for i in range(10, 20)], "v": [float(i) for i in range(10)]}
        ),
        table_from_columns({"t": [float(i) for i in range(20, 30)], "v": [None, 1.0] * 5}),
    ]
    return [compute_zone_map(part) for part in parts]


class TestPrunePartitions:
    def test_range_pruning(self):
        zone_maps = _zone_maps()
        assert prune_partitions(zone_maps, [RangeInterval("t", 12.0, 14.0)]) == [1]
        assert prune_partitions(zone_maps, [RangeInterval("t", None, 9.0)]) == [0]
        assert prune_partitions(zone_maps, [RangeInterval("t", 100.0, None)]) == []
        assert prune_partitions(zone_maps, []) == [0, 1, 2]

    def test_null_only_partition_pruned_by_comparison(self):
        zone_maps = _zone_maps()
        # v is entirely NULL in partition 0: no comparison can match there.
        assert prune_partitions(zone_maps, [RangeInterval("v", None, None)]) == [1, 2]
        assert prune_partitions(zone_maps, [PruningNullCheck("v", negated=True)]) == [1, 2]

    def test_is_null_keeps_only_partitions_with_nulls(self):
        assert prune_partitions(_zone_maps(), [PruningNullCheck("v")]) == [0, 2]

    def test_unknown_columns_keep_everything(self):
        assert prune_partitions(_zone_maps(), [RangeInterval("q", 0.0, 1.0)]) == [0, 1, 2]


# --------------------------------------------------------------------------- #
# Predicate pushdown: only the filter directly above a scan prunes
# --------------------------------------------------------------------------- #


def _plan(sql: str):
    return optimize_plan(build_logical_plan(parse_sql(sql)))


def _nodes(node):
    """``node`` and every node below it, top-down."""
    yield node
    for child in node.children():
        yield from _nodes(child)


def _scan_filters(root) -> list[FilterNode]:
    """The filters under ``root`` that sit directly above a scan."""
    return [
        node
        for node in _nodes(root)
        if isinstance(node, FilterNode) and isinstance(node.child, ScanNode)
    ]


def _flat_rows(db: Database, sql: str) -> list[dict]:
    """``sql``'s rows over a flat copy of ``db``'s ``data`` table."""
    flat = Database()
    flat.register_rows("data", db.execute("SELECT * FROM data").to_rows())
    return flat.execute(sql).to_rows()


class TestPredicatePushdown:
    def test_filter_pushes_below_passthrough_projection(self):
        sql = "SELECT t, v FROM (SELECT * FROM data) AS s WHERE t >= 150 AND t < 250"
        plan = _plan(sql)
        # The filter reaches the scan inside the sub-query ...
        subquery = next(n for n in _nodes(plan.root) if isinstance(n, SubqueryNode))
        assert len(_scan_filters(subquery.plan)) == 1
        # ... so the scan prunes down to the two partitions of t in [150, 250).
        db = _partitioned_db()
        result = db.execute(sql)
        assert result.to_rows() == _flat_rows(db, sql)
        assert result.num_rows == 100
        assert (result.stats.partitions_scanned, result.stats.partitions_pruned) == (2, 8)

    def test_filter_blocked_by_computed_alias(self):
        sql = "SELECT z FROM (SELECT t + 1 AS z FROM data) AS s WHERE z > 900"
        plan = _plan(sql)
        # The filter references the computed alias: it stays above the
        # projection, so no filter sits on the scan and nothing prunes.
        assert any(isinstance(n, FilterNode) for n in _nodes(plan.root))
        assert _scan_filters(plan.root) == []
        db = _partitioned_db()
        result = db.execute(sql)
        assert result.num_rows == 100
        assert (result.stats.partitions_scanned, result.stats.partitions_pruned) == (10, 0)

    def test_prefix_stops_at_aggregates(self):
        """HAVING filters the aggregate's output and never prunes the scan."""
        sql = "SELECT g, MIN(t) AS lo FROM data GROUP BY g HAVING MIN(t) >= 1"
        plan = _plan(sql)
        assert isinstance(plan.root, FilterNode)
        assert isinstance(plan.root.child, AggregateNode)
        assert isinstance(plan.root.child.child, ScanNode)
        db = _partitioned_db()
        result = db.execute(sql)
        assert result.to_rows() == [{"g": "b", "lo": 1.0}, {"g": "c", "lo": 2.0}]
        assert (result.stats.partitions_scanned, result.stats.partitions_pruned) == (10, 0)

    def test_prefix_walks_subqueries(self):
        sql = "SELECT * FROM (SELECT t FROM data WHERE t > 2 AND t < 300) AS s"
        plan = _plan(sql)
        assert any(isinstance(n, SubqueryNode) for n in _nodes(plan.root))
        assert any(isinstance(n, ProjectNode) for n in _nodes(plan.root))
        assert len(_scan_filters(plan.root)) == 1
        db = _partitioned_db()
        result = db.execute(sql)
        assert result.to_rows() == _flat_rows(db, sql)
        assert (result.stats.partitions_scanned, result.stats.partitions_pruned) == (3, 7)

    def test_non_adjacent_partitions_scan_as_two_ranges(self):
        """Kept partitions 0-1 and 5-6 are two row ranges; the rows and
        their order are the flat filter's."""
        rows = [
            {"i": float(i), "k": 0.0 if i // 100 in (0, 1, 5, 6) else 1.0, "g": "abc"[i % 3]}
            for i in range(1000)
        ]
        db = Database()
        db.register_rows("data", rows)
        db.repartition("data", 100)
        assert db.catalog.get("data").row_ranges([0, 1, 5, 6]) == [(0, 200), (500, 700)]
        for sql in (
            "SELECT i, g FROM data WHERE k = 0",
            "SELECT g, COUNT(*) AS n, SUM(i) AS s FROM data WHERE k = 0 GROUP BY g",
            "SELECT DISTINCT g FROM data WHERE k <= 0",
        ):
            result = db.execute(sql)
            assert result.to_rows() == _flat_rows(db, sql), sql
            assert (result.stats.partitions_scanned, result.stats.partitions_pruned) == (4, 6)
            assert result.stats.rows_scanned == 400

    def test_sort_over_bare_scan_counts_partitions(self):
        db = _partitioned_db()
        sort = SortNode(ScanNode("data"), keys=(OrderItem(ColumnRef("t"), descending=True),))
        stats = ExecutionStats()
        table = Executor(db.catalog).execute_subtree(sort, stats)
        assert table.column("t").to_pylist() == [float(i) for i in reversed(range(1000))]
        assert (stats.partitions_scanned, stats.partitions_pruned) == (10, 0)
        assert stats.morsel_tasks == stats.morsel_tasks_inline == 10


# --------------------------------------------------------------------------- #
# End-to-end: executor counters and estimator integration
# --------------------------------------------------------------------------- #


def _partitioned_db() -> Database:
    db = Database()
    rows = [
        {
            "t": float(i),
            "v": None if i < 100 else float(i % 13),
            "g": "abc"[i % 3],
        }
        for i in range(1000)
    ]
    db.register_rows("data", rows)
    db.repartition("data", 100)
    return db


class TestExecutorPruning:
    def test_counters_and_results(self):
        db = _partitioned_db()
        result = db.execute("SELECT t, v FROM data WHERE t >= 350 AND t < 450")
        assert result.num_rows == 100
        assert result.stats.partitions_scanned == 2
        assert result.stats.partitions_pruned == 8
        assert result.stats.rows_scanned == 200

    def test_null_only_partition_pruned(self):
        db = _partitioned_db()
        # v is NULL throughout partition 0 — any comparison skips it.
        result = db.execute("SELECT COUNT(*) AS n FROM data WHERE v >= 0")
        assert result.to_rows() == [{"n": 900}]
        assert result.stats.partitions_pruned == 1

    def test_is_null_prunes_non_null_partitions(self):
        db = _partitioned_db()
        result = db.execute("SELECT COUNT(*) AS n FROM data WHERE v IS NULL")
        assert result.to_rows() == [{"n": 100}]
        assert result.stats.partitions_scanned == 1
        assert result.stats.partitions_pruned == 9

    def test_computed_predicate_scans_everything(self):
        db = _partitioned_db()
        result = db.execute("SELECT COUNT(*) AS n FROM data WHERE t + 0 >= 900")
        assert result.to_rows() == [{"n": 100}]
        assert result.stats.partitions_scanned == 10
        assert result.stats.partitions_pruned == 0

    def test_all_partitions_pruned_yields_empty_result(self):
        db = _partitioned_db()
        result = db.execute("SELECT t, g FROM data WHERE t > 5000")
        assert result.num_rows == 0
        assert result.table.column_names() == ["t", "g"]
        assert result.stats.partitions_pruned == 10

    def test_metrics_accumulate(self):
        db = _partitioned_db()
        db.execute("SELECT t FROM data WHERE t < 100")
        db.execute("SELECT t FROM data WHERE t >= 900")
        snapshot = db.metrics.snapshot()
        assert snapshot["partitions_scanned"] == 2.0
        assert snapshot["partitions_pruned"] == 18.0
        assert snapshot["morsel_tasks"] >= 2.0

    def test_serial_engine_prunes_too(self):
        db = _partitioned_db()
        result = db.execute("SELECT SUM(v) AS s FROM data WHERE t BETWEEN 200 AND 299")
        assert result.stats.partitions_scanned == 1
        assert result.stats.partitions_pruned == 9

    def test_replace_racing_a_query_prunes_with_the_scanned_tables_maps(self, monkeypatch):
        """Old partitions are never paired with the replacement's zone maps.

        The replace lands between the executor's read of the table and
        its read of the zone maps; both tables hold the same rows (the
        replacement reverse-clustered), so 20 is the only right answer.
        """

        def clustered(values: list[float]) -> PartitionedTable:
            return PartitionedTable.from_table(table_from_columns({"d": values}), 10)

        catalog = Catalog()
        catalog.register("t", clustered([float(i) for i in range(100)]))
        replacement = clustered([float(i) for i in reversed(range(100))])
        plan = optimize_plan(
            build_logical_plan(parse_sql("SELECT COUNT(*) AS n FROM t WHERE d >= 0 AND d < 20"))
        )
        read_table = catalog.get

        def read_table_then_replace(name: str) -> Table:
            table = read_table(name)
            monkeypatch.undo()
            catalog.register(name, replacement, replace=True)
            return table

        monkeypatch.setattr(catalog, "get", read_table_then_replace)
        table, stats = Executor(catalog).execute(plan)
        assert table.to_rows() == [{"n": 20}]
        assert (stats.partitions_scanned, stats.partitions_pruned) == (2, 8)
        assert catalog.get("t").column("d").to_pylist()[0] == 99.0


class TestSystemStats:
    def test_system_run_counts_partitions(self, histogram_spec):
        from repro.core.system import VegaPlusSystem
        from repro.datasets import generate_dataset

        db = Database()
        db.register_rows("flights", generate_dataset("flights", 600, seed=3))
        db.repartition("flights", 150)
        system = VegaPlusSystem(histogram_spec, db)
        system.optimize(anticipated_interactions=[{"maxbins": 30}])
        system.initialize()
        system.interact({"min_delay": 60})
        stats = db.stats()
        assert stats["partitions_scanned"] > 0
        assert stats["morsel_tasks"] > 0

    def test_pruning_rate_math(self):
        db = _partitioned_db()
        db.execute("SELECT t FROM data WHERE t < 100")
        snapshot = db.metrics.snapshot()
        rate = snapshot["partitions_pruned"] / (
            snapshot["partitions_pruned"] + snapshot["partitions_scanned"]
        )
        assert rate == pytest.approx(0.9)
