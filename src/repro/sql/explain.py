"""Cost and cardinality estimation (the engine's ``EXPLAIN`` facility).

VegaPlus uses the DBMS's plan analyzer to estimate execution costs
(Section 3).  This module walks a logical plan, propagating cardinality
estimates from table statistics through selectivity heuristics, and
accumulates a cost figure in abstract "work units" proportional to rows
processed.  The VegaPlus optimizer consumes these estimates as features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.sql.planner import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    LimitNode,
    LogicalPlan,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    SubqueryNode,
    WindowNode,
)
from repro.sql.optimizer import prune_partitions, pruning_conjuncts
from repro.storage.catalog import Catalog
from repro.storage.statistics import TableStatistics

#: Default selectivity when a predicate cannot be analysed.
_DEFAULT_SELECTIVITY = 0.33

#: Per-row cost multipliers, loosely modelled on PostgreSQL's cost units.
_COST_SCAN = 1.0
_COST_FILTER = 0.1
_COST_PROJECT = 0.05
_COST_AGGREGATE = 0.6
_COST_SORT_FACTOR = 1.2
_COST_WINDOW = 0.8
_COST_DISTINCT = 0.5


@dataclass
class NodeEstimate:
    """Cost and cardinality estimate for one plan node."""

    label: str
    estimated_rows: float
    estimated_cost: float
    children: list["NodeEstimate"] = field(default_factory=list)

    def pretty(self, depth: int = 0) -> str:
        """Indented EXPLAIN-style rendering."""
        line = (
            "  " * depth
            + f"{self.label}  (rows={self.estimated_rows:.0f}, cost={self.estimated_cost:.1f})"
        )
        lines = [line]
        for child in self.children:
            lines.append(child.pretty(depth + 1))
        return "\n".join(lines)


@dataclass
class QueryCostEstimate:
    """Top-level result of ``EXPLAIN``: the root estimate plus totals."""

    root: NodeEstimate
    total_cost: float
    estimated_rows: float

    def pretty(self) -> str:
        """Textual plan with per-node rows/cost, like ``EXPLAIN`` output."""
        return self.root.pretty()


class CostEstimator:
    """Estimates cost/cardinality of logical plans from catalog statistics.

    Parameters
    ----------
    catalog:
        Source of table/column statistics.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    def estimate(self, plan: LogicalPlan) -> QueryCostEstimate:
        """Estimate ``plan`` bottom-up."""
        root = self._estimate_node(plan.root)
        return QueryCostEstimate(
            root=root, total_cost=root.estimated_cost, estimated_rows=root.estimated_rows
        )

    # -------------------------------------------------------------- #
    def _estimate_node(self, node: PlanNode) -> NodeEstimate:
        if isinstance(node, ScanNode):
            rows = float(self._table_rows(node.table_name))
            return NodeEstimate(node.label(), rows, rows * _COST_SCAN)
        if isinstance(node, SubqueryNode):
            child = self._estimate_node(node.plan)
            return NodeEstimate(node.label(), child.estimated_rows, child.estimated_cost, [child])
        if isinstance(node, FilterNode):
            pruned = self._pruned_scan_estimate(node)
            child = pruned if pruned is not None else self._estimate_node(node.child)
            stats = self._stats_for(node.child)
            selectivity = estimate_selectivity(node.predicate, stats)
            if pruned is not None and isinstance(node.child, ScanNode):
                # Pruning shrinks the *scan*, not the number of matching
                # rows: every match lives in a kept partition, so the
                # filter's output is the flat estimate (whole-table rows
                # x selectivity), capped by what survived pruning —
                # multiplying the pruned scan by the same predicate's
                # selectivity would double-count it.
                total = float(self._table_rows(node.child.table_name))
                rows = min(total * selectivity, child.estimated_rows)
            else:
                rows = child.estimated_rows * selectivity
            cost = child.estimated_cost + child.estimated_rows * _COST_FILTER
            return NodeEstimate(node.label(), rows, cost, [child])
        if isinstance(node, ProjectNode):
            child = self._estimate_node(node.child)
            cost = child.estimated_cost + child.estimated_rows * _COST_PROJECT * max(
                1, len(node.items)
            )
            return NodeEstimate(node.label(), child.estimated_rows, cost, [child])
        if isinstance(node, AggregateNode):
            child = self._estimate_node(node.child)
            groups = self._estimate_groups(node, child.estimated_rows)
            cost = child.estimated_cost + child.estimated_rows * _COST_AGGREGATE
            return NodeEstimate(node.label(), groups, cost, [child])
        if isinstance(node, WindowNode):
            child = self._estimate_node(node.child)
            cost = child.estimated_cost + child.estimated_rows * _COST_WINDOW * len(
                node.windows
            )
            return NodeEstimate(node.label(), child.estimated_rows, cost, [child])
        if isinstance(node, SortNode):
            child = self._estimate_node(node.child)
            rows = max(child.estimated_rows, 1.0)
            import math

            cost = child.estimated_cost + rows * math.log2(rows + 1.0) * _COST_SORT_FACTOR
            return NodeEstimate(node.label(), child.estimated_rows, cost, [child])
        if isinstance(node, LimitNode):
            child = self._estimate_node(node.child)
            rows = child.estimated_rows
            if node.limit is not None:
                rows = min(rows, float(node.limit))
            return NodeEstimate(node.label(), rows, child.estimated_cost, [child])
        if isinstance(node, DistinctNode):
            child = self._estimate_node(node.child)
            rows = max(1.0, child.estimated_rows * 0.5)
            cost = child.estimated_cost + child.estimated_rows * _COST_DISTINCT
            return NodeEstimate(node.label(), rows, cost, [child])
        child_estimates = [self._estimate_node(c) for c in node.children()]
        rows = child_estimates[0].estimated_rows if child_estimates else 1.0
        cost = sum(c.estimated_cost for c in child_estimates)
        return NodeEstimate(node.label(), rows, cost, child_estimates)

    def _pruned_scan_estimate(self, node: FilterNode) -> NodeEstimate | None:
        """Zone-map-aware scan estimate for a filter directly over a scan.

        When the scanned table is partitioned, the filter's prunable
        conjuncts are intersected with the per-partition zone maps *at
        estimation time*, so plan costs reflect the partitions the
        executor will actually skip: the scan's cost and cardinality
        shrink to the kept partitions' rows.  Returns ``None`` (caller
        uses the flat estimate) for unpartitioned tables or predicates
        with no prunable conjunct.
        """
        if not isinstance(node.child, ScanNode):
            return None
        name = node.child.table_name
        if not self._catalog.has(name):
            return None
        zone_maps = self._catalog.zone_maps(name)
        if not zone_maps:
            return None
        conjuncts = pruning_conjuncts(node.predicate)
        if not conjuncts:
            return None
        kept = prune_partitions(zone_maps, conjuncts)
        kept_rows = float(sum(zone_maps[index].num_rows for index in kept))
        label = f"{node.child.label()} [partitions {len(kept)}/{len(zone_maps)}]"
        return NodeEstimate(label, kept_rows, kept_rows * _COST_SCAN)

    def _table_rows(self, name: str) -> int:
        if self._catalog.has(name):
            return self._catalog.statistics(name).num_rows
        return 1000

    def _stats_for(self, node: PlanNode) -> TableStatistics | None:
        """Walk down to the base scan to find usable column statistics."""
        current: PlanNode | None = node
        while current is not None:
            if isinstance(current, ScanNode):
                if self._catalog.has(current.table_name):
                    return self._catalog.statistics(current.table_name)
                return None
            children = current.children()
            current = children[0] if children else None
        return None

    def _estimate_groups(self, node: AggregateNode, input_rows: float) -> float:
        if not node.group_by:
            return 1.0
        stats = self._stats_for(node.child)
        distinct_product = 1.0
        for expr in node.group_by:
            distinct = 20.0
            if stats is not None and isinstance(expr, ColumnRef):
                column_stats = stats.column(expr.name)
                if column_stats is not None and column_stats.num_distinct > 0:
                    distinct = float(column_stats.num_distinct)
            distinct_product *= distinct
        return float(min(input_rows, distinct_product))


def estimate_selectivity(
    predicate: Expression, stats: TableStatistics | None
) -> float:
    """Heuristic selectivity estimate for a predicate expression."""
    if isinstance(predicate, BinaryOp):
        op = predicate.op.upper()
        if op == "AND":
            return estimate_selectivity(predicate.left, stats) * estimate_selectivity(
                predicate.right, stats
            )
        if op == "OR":
            left = estimate_selectivity(predicate.left, stats)
            right = estimate_selectivity(predicate.right, stats)
            return min(1.0, left + right - left * right)
        if op in ("=",):
            return _equality_selectivity(predicate, stats)
        if op in ("<", "<=", ">", ">="):
            return _range_selectivity(predicate, stats)
        if op == "<>":
            return 1.0 - _equality_selectivity(predicate, stats)
        if op == "LIKE":
            return 0.25
    if isinstance(predicate, UnaryOp) and predicate.op.upper() == "NOT":
        return 1.0 - estimate_selectivity(predicate.operand, stats)
    if isinstance(predicate, InList):
        base = _equality_selectivity_from_column(_inlist_column(predicate), stats)
        selectivity = min(1.0, base * max(1, len(predicate.values)))
        return 1.0 - selectivity if predicate.negated else selectivity
    if isinstance(predicate, IsNull):
        fraction = 0.05
        if stats is not None and isinstance(predicate.expr, ColumnRef):
            column_stats = stats.column(predicate.expr.name)
            if column_stats is not None:
                fraction = column_stats.null_fraction
        return 1.0 - fraction if predicate.negated else fraction
    if isinstance(predicate, Between):
        column, low, high = _between_parts(predicate)
        if stats is not None and column is not None:
            column_stats = stats.column(column)
            if column_stats is not None:
                selectivity = column_stats.selectivity_range(low, high)
                return 1.0 - selectivity if predicate.negated else selectivity
        return 0.25
    if isinstance(predicate, Literal):
        if predicate.value is True:
            return 1.0
        if predicate.value is False:
            return 0.0
    return _DEFAULT_SELECTIVITY


def _equality_selectivity(predicate: BinaryOp, stats: TableStatistics | None) -> float:
    column = None
    if isinstance(predicate.left, ColumnRef):
        column = predicate.left.name
    elif isinstance(predicate.right, ColumnRef):
        column = predicate.right.name
    return _equality_selectivity_from_column(column, stats)


def _equality_selectivity_from_column(
    column: str | None, stats: TableStatistics | None
) -> float:
    if stats is not None and column is not None:
        column_stats = stats.column(column)
        if column_stats is not None:
            return column_stats.selectivity_equals()
    return 0.1


def _range_selectivity(predicate: BinaryOp, stats: TableStatistics | None) -> float:
    column: str | None = None
    bound: float | None = None
    op = predicate.op
    if isinstance(predicate.left, ColumnRef) and isinstance(predicate.right, Literal):
        column = predicate.left.name
        if isinstance(predicate.right.value, (int, float)):
            bound = float(predicate.right.value)
    elif isinstance(predicate.right, ColumnRef) and isinstance(predicate.left, Literal):
        column = predicate.right.name
        if isinstance(predicate.left.value, (int, float)):
            bound = float(predicate.left.value)
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
    if stats is None or column is None or bound is None:
        return _DEFAULT_SELECTIVITY
    column_stats = stats.column(column)
    if column_stats is None or column_stats.minimum is None:
        return _DEFAULT_SELECTIVITY
    if op in ("<", "<="):
        return column_stats.selectivity_range(None, bound)
    return column_stats.selectivity_range(bound, None)


def _inlist_column(predicate: InList) -> str | None:
    if isinstance(predicate.expr, ColumnRef):
        return predicate.expr.name
    return None


def _between_parts(predicate: Between) -> tuple[str | None, float | None, float | None]:
    column = predicate.expr.name if isinstance(predicate.expr, ColumnRef) else None
    low = (
        float(predicate.low.value)
        if isinstance(predicate.low, Literal) and isinstance(predicate.low.value, (int, float))
        else None
    )
    high = (
        float(predicate.high.value)
        if isinstance(predicate.high, Literal) and isinstance(predicate.high.value, (int, float))
        else None
    )
    return column, low, high
