"""Logical query plans.

The planner turns a parsed :class:`~repro.sql.ast_nodes.SelectStatement`
into a tree of logical operators.  The tree is intentionally simple — the
SQL subset has a single table source per query level — so plans are a chain
(Scan → Filter → Window → Aggregate/Project → Having → Distinct → Sort →
Limit) with nesting only through sub-query sources.
"""

from __future__ import annotations

from collections.abc import Callable
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
from repro.sql.functions import MERGEABLE_AGGREGATES, SCALAR_ARITHMETIC, combine_scalar
from repro.storage.statistics import RangeInterval


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
    """Ensure aggregate items follow the item grammar and every other
    item appears in GROUP BY, just as in a real SQL engine."""
    key_names = {e.name for e in statement.group_by if isinstance(e, ColumnRef)}
    for item in statement.items:
        expr = item.expression
        if isinstance(expr, Star):
            raise PlanningError("SELECT * cannot be combined with GROUP BY/aggregates")
        if isinstance(expr, WindowFunction):
            continue
        try:
            calls, _shared = aggregate_item_leaves(expr)
        except PlanningError as exc:
            raise PlanningError(f"SELECT item {item}: {exc}") from None
        if calls or group_key_index(expr, statement.group_by) is not None:
            continue
        if item.alias not in key_names:
            raise PlanningError(
                f"SELECT item {item} must be an aggregate or appear in GROUP BY"
            )


# --------------------------------------------------------------------------- #
# Aggregate SELECT items
# --------------------------------------------------------------------------- #


def evaluate_aggregate_item(
    expr: Expression,
    aggregate: Callable[[FunctionCall], list[object]],
    shared: Callable[[Expression], list[object]],
    n_groups: int,
) -> list[object]:
    """One aggregate SELECT item's value per group.

    An aggregate item is arithmetic (:data:`SCALAR_ARITHMETIC` and unary
    minus) over aggregate calls, literals and *group-shared*
    sub-expressions: any sub-expression without an aggregate, whose value
    every row of a group shares.  ``aggregate(call)`` and ``shared(expr)``
    give one value per group; the group-by operator and IVM views each
    supply their own.  Anything else holding an
    aggregate (a scalar function, CASE, a comparison, an aggregate inside
    an aggregate) raises :class:`PlanningError`.
    """
    if isinstance(expr, FunctionCall) and expr.name.upper() in AGGREGATE_FUNCTIONS:
        if any(map(contains_aggregate, expr.args)):
            raise PlanningError(f"aggregate {expr} nests another aggregate")
        return aggregate(expr)
    if not contains_aggregate(expr):
        if isinstance(expr, Literal):
            return [expr.value] * n_groups
        return shared(expr)
    if isinstance(expr, BinaryOp) and expr.op in SCALAR_ARITHMETIC:
        left = evaluate_aggregate_item(expr.left, aggregate, shared, n_groups)
        right = evaluate_aggregate_item(expr.right, aggregate, shared, n_groups)
        return [combine_scalar(expr.op, lv, rv) for lv, rv in zip(left, right)]
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = evaluate_aggregate_item(expr.operand, aggregate, shared, n_groups)
        return [None if value is None else -float(value) for value in inner]
    raise PlanningError(
        f"{expr} applies a non-arithmetic operation to an aggregate; "
        "aggregates combine only through + - * / % and unary minus"
    )


def aggregate_item_leaves(
    expr: Expression,
) -> tuple[list[FunctionCall], list[Expression]]:
    """The aggregate calls and group-shared parts of one aggregate item.

    The leaves :func:`evaluate_aggregate_item` reaches, in source order;
    raises :class:`PlanningError` where it would.
    """
    calls: list[FunctionCall] = []
    shared: list[Expression] = []
    # Zero groups: every leaf records itself and yields no values.
    evaluate_aggregate_item(
        expr, lambda call: calls.append(call) or [], lambda part: shared.append(part) or [], 0
    )
    return calls, shared


def mergeable_call(call: FunctionCall) -> bool:
    """Whether ``call`` has a partial state that merges exactly.

    IVM views keep such a state per group and merge deltas into it: a
    :data:`MERGEABLE_AGGREGATES` call, not DISTINCT, over ``*`` or one
    argument.
    """
    return (
        call.name.upper() in MERGEABLE_AGGREGATES
        and not call.distinct
        and (call.is_star or (len(call.args) == 1 and not isinstance(call.args[0], Star)))
    )


def group_key_index(expr: Expression, group_by: tuple[Expression, ...]) -> int | None:
    """Position of ``expr`` among the GROUP BY keys, or ``None``.

    A key matches by its text, or a bare column by name (``t.g`` is the
    key ``g``).  Every row of a group shares a key's value.
    """
    text = str(expr)
    for index, key in enumerate(group_by):
        if str(key) == text:
            return index
    if isinstance(expr, ColumnRef):
        for index, key in enumerate(group_by):
            if isinstance(key, ColumnRef) and key.name == expr.name:
                return index
    return None


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
# Range analysis of WHERE conjuncts
#
# The one reading of ``column op literal`` ranges out of a WHERE clause:
# ivm_template takes its brush from it, and the optimizer's zone-map
# pruning (repro.sql.optimizer.pruning_conjuncts) adds to it only what the
# remaining, non-range conjuncts imply.
# --------------------------------------------------------------------------- #

_FLIPPED_COMPARISONS = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def numeric_literal(expr: Expression) -> float | None:
    """The float value of a numeric (non-boolean) literal, else ``None``."""
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float)):
        if isinstance(expr.value, bool):
            return None
        return float(expr.value)
    return None


def conjuncts(expr: Expression) -> list[Expression]:
    """Flatten a top-level AND tree into its conjuncts."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def range_interval(expr: Expression) -> RangeInterval | None:
    """The range a conjunct is exactly equivalent to, else ``None``.

    Matches numeric ``column op literal`` and ``literal op column``
    comparisons (``=``, ``<``, ``<=``, ``>``, ``>=``) and ``column BETWEEN
    literal AND literal`` on a bare column — the shapes a 1-D brush emits.
    """
    if isinstance(expr, Between) and not expr.negated:
        if not isinstance(expr.expr, ColumnRef):
            return None
        low = numeric_literal(expr.low)
        high = numeric_literal(expr.high)
        if low is None or high is None:
            return None
        return RangeInterval(expr.expr.name, low, high)
    if not isinstance(expr, BinaryOp) or expr.op not in _FLIPPED_COMPARISONS:
        return None
    column, op, value = None, expr.op, None
    if isinstance(expr.left, ColumnRef):
        column, value = expr.left.name, numeric_literal(expr.right)
    elif isinstance(expr.right, ColumnRef):
        column, value = expr.right.name, numeric_literal(expr.left)
        op = _FLIPPED_COMPARISONS[op]
    if column is None or value is None:
        return None
    if op == "=":
        return RangeInterval(column, value, value)
    if op in (">", ">="):
        return RangeInterval(column, low=value, low_inclusive=op == ">=")
    return RangeInterval(column, high=value, high_inclusive=op == "<=")


# --------------------------------------------------------------------------- #
# Incremental view maintenance eligibility analysis
# --------------------------------------------------------------------------- #

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
    #: The brush: the intersection of every range conjunct on its column,
    #: so a contradictory WHERE clause yields an empty interval.
    interval: RangeInterval
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
            f"{self.table_name}§brush={self.interval.column}"
            f"§static={static}§group={group}§items={items}"
        )


def _incrementable_expression(expr: Expression, aggregate: AggregateNode) -> bool:
    """Whether one SELECT-item expression is maintainable from deltas.

    Its aggregate calls must be mergeable (MIN/MAX with a retraction
    fallback, AVG as SUM + COUNT; see docs/IVM.md) and its group-shared
    parts group keys, whose values the view keeps per group.
    """
    calls, shared = aggregate_item_leaves(expr)
    return all(mergeable_call(call) for call in calls) and all(
        group_key_index(part, aggregate.group_by) is not None for part in shared
    )


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
    brush: RangeInterval | None = None
    static: list[Expression] = []
    for conjunct in conjuncts(where.predicate):
        interval = range_interval(conjunct)
        if interval is None:
            static.append(conjunct)
        elif brush is None:
            brush = interval
        elif interval.column == brush.column:
            brush = brush.intersect(interval)
        else:
            # Range constraints on a second column: a 2-D brush.  The
            # first column stays the tile dimension; the others fold
            # into the static conjuncts (a new view per distinct value).
            static.append(conjunct)
    if brush is None:
        return None
    return IVMTemplate(
        table_name=scan.table_name,
        interval=brush,
        static_conjuncts=tuple(static),
        aggregate=aggregate,
        suffix=tuple(suffix),
    )
