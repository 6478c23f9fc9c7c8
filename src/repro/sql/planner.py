"""Logical query plans.

The planner turns a parsed :class:`~repro.sql.ast_nodes.SelectStatement`
into a tree of logical operators.  The tree is intentionally simple — the
SQL subset has a single table source per query level — so plans are a chain
(Scan → Filter → Window → Aggregate/Project → Having → Distinct → Sort →
Limit) with nesting only through sub-query sources.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanningError
from repro.sql.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    SubquerySource,
    TableSource,
    UnaryOp,
    WindowFunction,
    contains_aggregate,
    contains_window,
    referenced_columns,
)


# --------------------------------------------------------------------------- #
# Plan node definitions
# --------------------------------------------------------------------------- #


@dataclass
class PlanNode:
    """Base class for logical plan nodes."""

    def children(self) -> list["PlanNode"]:
        """Child nodes (empty for leaves)."""
        return []


@dataclass
class ScanNode(PlanNode):
    """Scan of a registered base table.

    ``columns`` is the set of column names the plan above the scan
    references, recorded by :func:`build_logical_plan`; ``None`` means
    every column (``SELECT *`` reaches the scan).  The executor gathers
    only these, so a filter over a wide table moves the columns the
    query reads and nothing else.  Names that are not base columns
    (SELECT aliases, window outputs) may appear and are ignored.
    """

    table_name: str
    alias: str | None = None
    columns: frozenset[str] | None = None


@dataclass
class SubqueryNode(PlanNode):
    """A nested query acting as this query's source."""

    plan: PlanNode
    alias: str | None = None

    def children(self) -> list[PlanNode]:
        return [self.plan]


@dataclass
class FilterNode(PlanNode):
    """Row filter (WHERE or HAVING)."""

    child: PlanNode
    predicate: Expression

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class ProjectNode(PlanNode):
    """Computation of the SELECT list for non-aggregate queries."""

    child: PlanNode
    items: tuple[SelectItem, ...]

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class AggregateNode(PlanNode):
    """Grouped (or global) aggregation computing the SELECT list."""

    child: PlanNode
    group_by: tuple[Expression, ...]
    items: tuple[SelectItem, ...]

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class WindowNode(PlanNode):
    """Evaluation of window functions, appending one column per function."""

    child: PlanNode
    windows: tuple[tuple[str, WindowFunction], ...]

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class SortNode(PlanNode):
    """ORDER BY."""

    child: PlanNode
    keys: tuple[OrderItem, ...]

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class LimitNode(PlanNode):
    """LIMIT/OFFSET."""

    child: PlanNode
    limit: int | None = None
    offset: int | None = None

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class DistinctNode(PlanNode):
    """SELECT DISTINCT de-duplication."""

    child: PlanNode

    def children(self) -> list[PlanNode]:
        return [self.child]


@dataclass
class MaterializedNode(PlanNode):
    """A leaf carrying an already-computed result table.

    The IVM maintenance path replaces an eligible plan's aggregate
    subtree with this node so the plan's suffix operators (HAVING /
    DISTINCT / ORDER BY / LIMIT) run unchanged over the incrementally
    maintained aggregate rows.  ``table`` is duck-typed to avoid a
    planner -> storage import; the executor treats it as a
    :class:`~repro.storage.table.Table`.
    """

    table: object = None


@dataclass
class LogicalPlan:
    """Wrapper pairing the root node with the originating statement."""

    root: PlanNode
    statement: SelectStatement


# --------------------------------------------------------------------------- #
# Statement -> logical plan
# --------------------------------------------------------------------------- #


def build_logical_plan(statement: SelectStatement) -> LogicalPlan:
    """Construct the logical plan for a parsed statement."""
    root = _plan_query(statement)
    _record_scan_columns(root, None)
    return LogicalPlan(root=root, statement=statement)


def _plan_query(statement: SelectStatement) -> PlanNode:
    node = _plan_source(statement)

    if statement.where is not None:
        if contains_aggregate(statement.where):
            raise PlanningError("aggregate functions are not allowed in WHERE")
        node = FilterNode(child=node, predicate=statement.where)

    window_items = _collect_windows(statement.items)
    if window_items:
        node = WindowNode(child=node, windows=tuple(window_items))

    has_aggregate = bool(statement.group_by) or any(
        contains_aggregate(item.expression) for item in statement.items
    )

    sorted_below_projection = False
    if has_aggregate:
        _validate_aggregate_items(statement)
        node = AggregateNode(
            child=node,
            group_by=statement.group_by,
            items=statement.items,
        )
    else:
        # Standard SQL lets ORDER BY reference input columns that the SELECT
        # list drops.  When that happens (and no '*' keeps them around), sort
        # before projecting so the keys are still available.
        if statement.order_by and not statement.distinct:
            output_names = {
                item.output_name(index) for index, item in enumerate(statement.items)
            }
            has_star = any(isinstance(item.expression, Star) for item in statement.items)
            needs_input_columns = not has_star and any(
                not referenced_columns(key.expression) <= output_names
                for key in statement.order_by
            )
            if needs_input_columns:
                node = SortNode(child=node, keys=statement.order_by)
                sorted_below_projection = True
        node = ProjectNode(child=node, items=statement.items)

    if statement.having is not None:
        if not has_aggregate:
            raise PlanningError("HAVING requires GROUP BY or aggregates")
        node = FilterNode(
            child=node,
            predicate=_rewrite_having(statement.having, statement.items),
        )

    if statement.distinct:
        node = DistinctNode(child=node)

    if statement.order_by and not sorted_below_projection:
        node = SortNode(child=node, keys=statement.order_by)

    if statement.limit is not None or statement.offset is not None:
        node = LimitNode(child=node, limit=statement.limit, offset=statement.offset)

    return node


def _plan_source(statement: SelectStatement) -> PlanNode:
    source = statement.source
    if isinstance(source, TableSource):
        return ScanNode(table_name=source.name, alias=source.alias)
    if isinstance(source, SubquerySource):
        return SubqueryNode(plan=_plan_query(source.query), alias=source.alias)
    raise PlanningError(f"unsupported FROM source: {source!r}")


def _columns_read(expressions: list[Expression]) -> frozenset[str] | None:
    """Input columns the expressions reference (``None`` = all, via ``*``)."""
    if any(isinstance(expr, Star) for expr in expressions):
        return None
    return frozenset().union(*(referenced_columns(expr) for expr in expressions))


def _record_scan_columns(node: PlanNode, needed: frozenset[str] | None) -> None:
    """Record on every :class:`ScanNode` the columns the plan above it reads.

    Walks top-down carrying ``needed`` — the input columns the operators
    above ``node`` reference (``None`` = all).  Projections and
    aggregations define a new schema, so below them only their own
    expressions count; filters, sorts and windows add theirs to what
    passes through; DISTINCT compares whole rows and a sub-query
    boundary exposes whatever the inner SELECT list declares.
    """
    if isinstance(node, ScanNode):
        node.columns = needed
        return
    if isinstance(node, ProjectNode):
        needed = _columns_read([item.expression for item in node.items])
    elif isinstance(node, AggregateNode):
        needed = _columns_read([item.expression for item in node.items] + list(node.group_by))
    elif isinstance(node, (DistinctNode, SubqueryNode)):
        needed = None
    elif needed is not None:
        if isinstance(node, FilterNode):
            needed |= _columns_read([node.predicate])
        elif isinstance(node, SortNode):
            needed |= _columns_read([key.expression for key in node.keys])
        elif isinstance(node, WindowNode):
            needed |= _columns_read([window for _name, window in node.windows])
    for child in node.children():
        _record_scan_columns(child, needed)


def _collect_windows(items: tuple[SelectItem, ...]) -> list[tuple[str, WindowFunction]]:
    windows: list[tuple[str, WindowFunction]] = []
    for index, item in enumerate(items):
        expr = item.expression
        if isinstance(expr, WindowFunction):
            windows.append((item.output_name(index), expr))
        elif contains_window(expr) and not isinstance(expr, WindowFunction):
            raise PlanningError(
                "window functions may only appear as a top-level SELECT item"
            )
    return windows


def _validate_aggregate_items(statement: SelectStatement) -> None:
    """Ensure non-aggregate SELECT items appear in GROUP BY."""
    group_exprs = {str(e) for e in statement.group_by}
    group_names = {
        e.name for e in statement.group_by if isinstance(e, ColumnRef)
    }
    for item in statement.items:
        expr = item.expression
        if isinstance(expr, Star):
            raise PlanningError("SELECT * cannot be combined with GROUP BY/aggregates")
        if contains_aggregate(expr) or isinstance(expr, WindowFunction):
            continue
        if str(expr) in group_exprs:
            continue
        if isinstance(expr, ColumnRef) and expr.name in group_names:
            continue
        if item.alias is not None and item.alias in {
            e.name for e in statement.group_by if isinstance(e, ColumnRef)
        }:
            continue
        # Expressions that exactly match a group-by expression by structure
        # were covered above; anything else is an error just as in a real
        # SQL engine.
        raise PlanningError(
            f"SELECT item {item} must be an aggregate or appear in GROUP BY"
        )


def _rewrite_having(predicate: Expression, items: tuple[SelectItem, ...]) -> Expression:
    """Replace aggregate expressions in HAVING with their output columns.

    ``HAVING COUNT(*) > 1`` executes against the aggregate's output table,
    where the aggregate value lives in a named column.  Any sub-expression
    of the HAVING predicate that matches a SELECT item (structurally, via
    its string form) is replaced by a reference to that item's output name.
    A HAVING aggregate that does not appear in the SELECT list is rejected.
    """
    replacements = {
        str(item.expression): ColumnRef(item.output_name(index))
        for index, item in enumerate(items)
        if not isinstance(item.expression, Star)
    }

    def rewrite(expr: Expression) -> Expression:
        key = str(expr)
        if key in replacements:
            return replacements[key]
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, rewrite(expr.operand))
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        if contains_aggregate(expr):
            raise PlanningError(
                f"HAVING expression {expr} must also appear in the SELECT list"
            )
        return expr

    return rewrite(predicate)


# --------------------------------------------------------------------------- #
# Partition-parallel prefix analysis
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PartitionablePrefix:
    """A ``Scan → (Filter|Project|Subquery)*`` chain rooted at one node.

    The chain's operators are all *row-local*: applying them to each
    horizontal partition of the scanned table and concatenating the
    results (in partition order) is row-identical to applying them to the
    whole table, because filters and projections never look across rows.
    This is the unit of partitioned execution.

    ``scan_filters`` holds the predicates of the chain's filters that sit
    *directly above the scan* — no projection or sub-query boundary in
    between, so every column they reference is a base column of the
    scanned table.  Only these predicates are safe inputs for zone-map
    partition pruning; a predicate above a projection may reference a
    computed column whose values the base table's zone maps know nothing
    about.
    """

    scan: ScanNode
    #: Chain nodes from the scan upward (excluding the scan itself).
    nodes: tuple[PlanNode, ...]
    #: Predicates applying directly to base-table rows (pruning-safe).
    scan_filters: tuple[Expression, ...]


def partitionable_prefix(node: PlanNode) -> PartitionablePrefix | None:
    """Match the partition-parallel prefix ending at ``node``.

    Returns ``None`` when the subtree under ``node`` contains anything
    that is not row-local (aggregation, windows, sorts, limits) or when
    a projection computes window columns (those require a WindowNode
    below, which already breaks the chain).
    """
    chain: list[PlanNode] = []
    current: PlanNode = node
    while True:
        if isinstance(current, ScanNode):
            break
        if isinstance(current, FilterNode):
            chain.append(current)
            current = current.child
            continue
        if isinstance(current, ProjectNode):
            if any(
                not isinstance(item.expression, Star)
                and (contains_window(item.expression) or contains_aggregate(item.expression))
                for item in current.items
            ):
                return None
            chain.append(current)
            current = current.child
            continue
        if isinstance(current, SubqueryNode):
            chain.append(current)
            current = current.plan
            continue
        return None
    scan = current
    # Walk the chain bottom-up (it is collected top-down): filters below
    # the first projection/sub-query boundary apply to raw scan rows.
    scan_filters: list[Expression] = []
    for chain_node in reversed(chain):
        if isinstance(chain_node, FilterNode):
            scan_filters.append(chain_node.predicate)
        else:
            break
    return PartitionablePrefix(
        scan=scan, nodes=tuple(chain), scan_filters=tuple(scan_filters)
    )


# --------------------------------------------------------------------------- #
# Incremental view maintenance eligibility analysis
# --------------------------------------------------------------------------- #

#: Aggregates the IVM subsystem can maintain under insert/delete deltas.
#: MIN/MAX are incrementable with a retraction fallback (deleting the
#: current extremum forces a partial re-scan); AVG is maintained as
#: SUM + COUNT.  See docs/IVM.md for the delta algebra.
INCREMENTABLE_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass(frozen=True)
class BrushInterval:
    """A one-dimensional selection ``[low, high]`` on the brush column.

    ``None`` bounds are unbounded.  The interval is the intersection of
    every range conjunct on the brush column, so a contradictory WHERE
    clause yields an interval whose :meth:`is_empty` is true.
    """

    low: float | None = None
    high: float | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def is_empty(self) -> bool:
        """Whether no value can satisfy the interval."""
        if self.low is None or self.high is None:
            return False
        if self.low > self.high:
            return True
        return self.low == self.high and not (
            self.low_inclusive and self.high_inclusive
        )


@dataclass(frozen=True)
class IVMTemplate:
    """An eligible crossfilter query shape: what varies is only the brush.

    The template splits an ``Aggregate(Filter(Scan))`` plan (plus an
    optional HAVING/DISTINCT/ORDER BY/LIMIT suffix) into the parts the
    IVM view is keyed on (table, static conjuncts, group keys, items)
    and the part that changes between interactions (the brush interval).
    Two queries with the same :attr:`view_key` can share one
    materialized view; only the delta between their brush intervals is
    scanned.
    """

    table_name: str
    brush_column: str
    interval: BrushInterval
    #: Conjuncts that do not move with the brush, evaluated once per view.
    static_conjuncts: tuple[Expression, ...]
    aggregate: AggregateNode
    #: Plan nodes above the aggregate, listed bottom-up (aggregate side
    #: first).  Replayed over the materialized rows on every query.
    suffix: tuple[PlanNode, ...]

    @property
    def view_key(self) -> str:
        """Cache key shared by every brush position of this query shape."""
        static = ";".join(sorted(str(c) for c in self.static_conjuncts))
        group = ";".join(str(e) for e in self.aggregate.group_by)
        items = ";".join(
            f"{item.expression}|{item.alias or ''}" for item in self.aggregate.items
        )
        return (
            f"{self.table_name}§brush={self.brush_column}"
            f"§static={static}§group={group}§items={items}"
        )


def _numeric_literal(expr: Expression) -> float | None:
    """The float value of a numeric (non-boolean) literal, else ``None``."""
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float)):
        if isinstance(expr.value, bool):
            return None
        return float(expr.value)
    return None


_FLIPPED_COMPARISONS = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _range_conjunct(expr: Expression) -> tuple[str, BrushInterval] | None:
    """Match ``column <op> literal`` / ``BETWEEN`` range constraints.

    Returns ``(column, interval)`` for simple numeric range comparisons
    on a bare column — the shapes a 1-D brush emits — and ``None`` for
    everything else (those conjuncts are static).
    """
    if isinstance(expr, Between) and not expr.negated:
        if not isinstance(expr.expr, ColumnRef):
            return None
        low = _numeric_literal(expr.low)
        high = _numeric_literal(expr.high)
        if low is None or high is None:
            return None
        return expr.expr.name, BrushInterval(low=low, high=high)
    if not isinstance(expr, BinaryOp) or expr.op not in _FLIPPED_COMPARISONS:
        return None
    column, op, value = None, expr.op, None
    if isinstance(expr.left, ColumnRef):
        column, value = expr.left.name, _numeric_literal(expr.right)
    elif isinstance(expr.right, ColumnRef):
        column, value = expr.right.name, _numeric_literal(expr.left)
        op = _FLIPPED_COMPARISONS[op]
    if column is None or value is None:
        return None
    if op == "=":
        return column, BrushInterval(low=value, high=value)
    if op in (">", ">="):
        return column, BrushInterval(low=value, low_inclusive=op == ">=")
    return column, BrushInterval(high=value, high_inclusive=op == "<=")


def _intersect_intervals(a: BrushInterval, b: BrushInterval) -> BrushInterval:
    low, low_inc = a.low, a.low_inclusive
    if b.low is not None and (low is None or b.low > low):
        low, low_inc = b.low, b.low_inclusive
    elif b.low is not None and b.low == low:
        low_inc = low_inc and b.low_inclusive
    high, high_inc = a.high, a.high_inclusive
    if b.high is not None and (high is None or b.high < high):
        high, high_inc = b.high, b.high_inclusive
    elif b.high is not None and b.high == high:
        high_inc = high_inc and b.high_inclusive
    return BrushInterval(low, high, low_inc, high_inc)


def _predicate_conjuncts(expr: Expression) -> list[Expression]:
    """Flatten a top-level AND tree into its conjuncts."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _predicate_conjuncts(expr.left) + _predicate_conjuncts(expr.right)
    return [expr]


def _matches_group_key(expr: Expression, aggregate: AggregateNode) -> bool:
    """Whether ``expr`` is constant within every group of ``aggregate``."""
    group_strs = {str(g) for g in aggregate.group_by}
    if str(expr) in group_strs:
        return True
    if isinstance(expr, ColumnRef):
        return any(
            isinstance(g, ColumnRef) and g.name == expr.name
            for g in aggregate.group_by
        )
    return False


def _incrementable_expression(expr: Expression, aggregate: AggregateNode) -> bool:
    """Whether one SELECT-item expression is maintainable from deltas.

    Leaves must be incrementable aggregate calls, literals, or
    group-key expressions (constant per group); combinations are limited
    to the scalar arithmetic the serial aggregate evaluator supports.
    """
    if contains_window(expr):
        return False
    if isinstance(expr, FunctionCall) and expr.name.upper() in AGGREGATE_FUNCTIONS:
        if expr.name.upper() not in INCREMENTABLE_AGGREGATES or expr.distinct:
            return False
        if expr.is_star:
            return True
        if len(expr.args) != 1:
            return False
        arg = expr.args[0]
        return not contains_aggregate(arg) and not isinstance(arg, Star)
    if isinstance(expr, BinaryOp):
        return _incrementable_expression(
            expr.left, aggregate
        ) and _incrementable_expression(expr.right, aggregate)
    if isinstance(expr, UnaryOp):
        return expr.op == "-" and _incrementable_expression(expr.operand, aggregate)
    if isinstance(expr, Literal):
        return True
    # A bare non-aggregate expression: safe only when it is one of the
    # group keys (the serial executor emits each group's first-row value,
    # which for a key expression *is* the group's key value).
    return not contains_aggregate(expr) and _matches_group_key(expr, aggregate)


def ivm_template(plan: LogicalPlan) -> IVMTemplate | None:
    """Match the IVM-eligible shape ``suffix* → Aggregate → Filter → Scan``.

    Returns ``None`` when the plan is not a single-table filtered
    aggregation, when the WHERE clause has no numeric range conjunct to
    act as the brush, or when any SELECT item is not maintainable from
    deltas (non-incrementable aggregate, DISTINCT aggregate, window
    function, expression that is neither a group key nor an aggregate).
    """
    suffix: list[PlanNode] = []
    node = plan.root
    # Any FilterNode above the aggregate is necessarily HAVING: WHERE
    # filters sit below the AggregateNode, where this walk stops.
    while isinstance(node, (LimitNode, SortNode, DistinctNode, FilterNode)):
        suffix.append(node)
        node = node.child
    if not isinstance(node, AggregateNode):
        return None
    aggregate = node
    if not all(
        _incrementable_expression(item.expression, aggregate)
        for item in aggregate.items
    ):
        return None
    if any(contains_aggregate(g) or contains_window(g) for g in aggregate.group_by):
        return None
    where = aggregate.child
    if not isinstance(where, FilterNode) or not isinstance(where.child, ScanNode):
        return None
    scan = where.child
    brush_column: str | None = None
    interval = BrushInterval()
    static: list[Expression] = []
    for conjunct in _predicate_conjuncts(where.predicate):
        matched = _range_conjunct(conjunct)
        if matched is None:
            static.append(conjunct)
            continue
        column, conjunct_interval = matched
        if brush_column is None:
            brush_column = column
        if column == brush_column:
            interval = _intersect_intervals(interval, conjunct_interval)
        else:
            # Range constraints on a second column: a 2-D brush.  The
            # first column stays the tile dimension; the others fold
            # into the static conjuncts (a new view per distinct value).
            static.append(conjunct)
    if brush_column is None:
        return None
    return IVMTemplate(
        table_name=scan.table_name,
        brush_column=brush_column,
        interval=interval,
        static_conjuncts=tuple(static),
        aggregate=aggregate,
        suffix=tuple(suffix),
    )
