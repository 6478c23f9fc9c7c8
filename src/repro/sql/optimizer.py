"""Rule-based logical plan optimizer.

The backend engines the paper targets (PostgreSQL, DuckDB) reorder and
optimise declarative queries; our substitute applies a small set of classic
rewrite rules so the server side keeps its structural advantage over the
client-side dataflow, which always executes operators in specification
order (Section 2 of the paper):

* constant folding of literal-only expressions,
* filter pushdown through projections and sub-queries,
* merging adjacent filters into one conjunction.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Literal,
    SelectItem,
    Star,
    UnaryOp,
    map_children,
    referenced_columns,
)
from repro.sql.planner import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    LimitNode,
    LogicalPlan,
    PlanNode,
    ProjectNode,
    SortNode,
    SubqueryNode,
    WindowNode,
    conjuncts,
    numeric_literal,
    range_interval,
)
from repro.storage.statistics import RangeInterval, ZoneMap


# --------------------------------------------------------------------------- #
# Constant folding
# --------------------------------------------------------------------------- #


def fold_constants(expr: Expression) -> Expression:
    """Collapse literal-only sub-expressions into literals.

    Folds the children first, then the node itself.  A
    :class:`~repro.sql.ast_nodes.Parameter` is not a literal, so folding
    stops below any node that holds one; binding the slot folds it then.
    """
    return fold_node(map_children(expr, fold_constants))


def fold_node(expr: Expression) -> Expression:
    """``expr`` as one literal when its (already folded) children allow."""
    if isinstance(expr, BinaryOp):
        if isinstance(expr.left, Literal) and isinstance(expr.right, Literal):
            folded = _fold_binary(expr.op, expr.left.value, expr.right.value)
            if folded is not _UNFOLDABLE:
                return Literal(folded)
    elif isinstance(expr, UnaryOp) and isinstance(expr.operand, Literal):
        value = expr.operand.value
        if expr.op == "-" and isinstance(value, (int, float)):
            return Literal(-value)
        if expr.op.upper() == "NOT" and isinstance(value, bool):
            return Literal(not value)
    return expr


class _Unfoldable:
    """Sentinel for binary literal combinations we do not fold."""


_UNFOLDABLE = _Unfoldable()


def _fold_binary(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return _UNFOLDABLE
    upper = op.upper()
    if isinstance(left, (int, float)) and isinstance(right, (int, float)) and not isinstance(
        left, bool
    ) and not isinstance(right, bool):
        try:
            if upper == "+":
                return left + right
            if upper == "-":
                return left - right
            if upper == "*":
                return left * right
            if upper == "/":
                return _UNFOLDABLE if right == 0 else left / right
            if upper == "%":
                return _UNFOLDABLE if right == 0 else left % right
            if upper == "=":
                return left == right
            if upper == "<>":
                return left != right
            if upper == "<":
                return left < right
            if upper == "<=":
                return left <= right
            if upper == ">":
                return left > right
            if upper == ">=":
                return left >= right
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return _UNFOLDABLE
    if isinstance(left, bool) and isinstance(right, bool):
        if upper == "AND":
            return left and right
        if upper == "OR":
            return left or right
    return _UNFOLDABLE


# --------------------------------------------------------------------------- #
# Plan rewrites
# --------------------------------------------------------------------------- #


def optimize_plan(plan: LogicalPlan) -> LogicalPlan:
    """Apply all rewrite rules to ``plan`` and return the optimised plan."""
    root = map_expressions(plan.root, fold_constants)
    root = _push_filters(root)
    root = _merge_filters(root)
    return LogicalPlan(root=root)


def map_expressions(node: PlanNode, fn: Callable[[Expression], Expression]) -> PlanNode:
    """``node``'s tree rebuilt with ``fn`` applied to every filter predicate,
    projection/aggregate item and key and window function: the expressions
    constant folding rewrites (sort keys keep theirs)."""
    if isinstance(node, FilterNode):
        return FilterNode(map_expressions(node.child, fn), fn(node.predicate))
    if isinstance(node, (ProjectNode, AggregateNode)):
        child = map_expressions(node.child, fn)
        items = tuple(
            item if isinstance(item.expression, Star) else SelectItem(fn(item.expression), item.alias)
            for item in node.items
        )
        if isinstance(node, ProjectNode):
            return ProjectNode(child, items)
        return AggregateNode(child, tuple(fn(key) for key in node.group_by), items)
    if isinstance(node, WindowNode):
        windows = tuple((name, fn(window)) for name, window in node.windows)
        return WindowNode(map_expressions(node.child, fn), windows)
    if isinstance(node, SortNode):
        return SortNode(map_expressions(node.child, fn), node.keys)
    if isinstance(node, LimitNode):
        return LimitNode(map_expressions(node.child, fn), node.limit, node.offset)
    if isinstance(node, DistinctNode):
        return DistinctNode(map_expressions(node.child, fn))
    if isinstance(node, SubqueryNode):
        return SubqueryNode(map_expressions(node.plan, fn), node.alias)
    return node


def _push_filters(node: PlanNode) -> PlanNode:
    """Push filters below projections and into sub-queries when legal.

    A filter can move below a projection when every column it references is
    passed through unchanged (either via ``*`` or as a bare column item).
    """
    if isinstance(node, FilterNode):
        child = _push_filters(node.child)
        if isinstance(child, ProjectNode) and _filter_can_pass_project(
            node.predicate, child
        ):
            pushed = FilterNode(child=child.child, predicate=node.predicate)
            return ProjectNode(child=_push_filters(pushed), items=child.items)
        if isinstance(child, SubqueryNode) and _filter_can_enter_subquery(
            node.predicate, child
        ):
            inner = FilterNode(child=child.plan, predicate=node.predicate)
            return SubqueryNode(plan=_push_filters(inner), alias=child.alias)
        return FilterNode(child=child, predicate=node.predicate)

    for attr in ("child", "plan"):
        if hasattr(node, attr):
            setattr(node, attr, _push_filters(getattr(node, attr)))
    return node


def _filter_can_pass_project(predicate: Expression, project: ProjectNode) -> bool:
    needed = referenced_columns(predicate)
    passthrough: set[str] = set()
    has_star = False
    renamed: set[str] = set()
    for item in project.items:
        if isinstance(item.expression, Star):
            has_star = True
        elif isinstance(item.expression, ColumnRef) and (
            item.alias is None or item.alias == item.expression.name
        ):
            passthrough.add(item.expression.name)
        elif item.alias is not None:
            renamed.add(item.alias)
    if needed & renamed:
        return False
    if has_star:
        return True
    return needed <= passthrough


def _filter_can_enter_subquery(predicate: Expression, subquery: SubqueryNode) -> bool:
    # Only push into sub-queries whose top node is a bare projection of the
    # referenced columns; pushing past aggregation would change semantics.
    inner = subquery.plan
    if isinstance(inner, ProjectNode):
        return _filter_can_pass_project(predicate, inner)
    return False


# --------------------------------------------------------------------------- #
# Zone-map partition pruning
#
# The pruning pass intersects pushed-down filter predicates with the
# per-partition zone maps of a PartitionedTable: a partition whose zone
# provably cannot contain a satisfying row is skipped before scanning.
# The analysis here is deliberately conservative — it only extracts
# *conjuncts* that compare a bare base-table column against literals
# (predicates on computed columns never prune), and anything it cannot
# analyse simply contributes no conjunct, which is always safe: pruning
# on a subset of a conjunction can only keep extra partitions, and the
# filter still runs row-wise over every kept partition.
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PruningNullCheck:
    """``column IS [NOT] NULL`` conjunct (``negated`` = IS NOT NULL)."""

    column: str
    negated: bool = False


PruningConjunct = RangeInterval | PruningNullCheck

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def _implied_conjunct(predicate: Expression) -> PruningConjunct | None:
    """What a conjunct that is not an exact range still implies.

    A comparison of a bare column with any literal (``<>``, a string, a
    NULL) implies the column is not NULL; a BETWEEN with one literal bound
    bounds that side; an IN over numeric literals lies within their
    envelope, and over any literals implies NOT NULL.
    """
    if isinstance(predicate, BinaryOp) and predicate.op in _COMPARISONS:
        left, right = predicate.left, predicate.right
        if (isinstance(left, ColumnRef) and isinstance(right, Literal)) or (
            isinstance(right, ColumnRef) and isinstance(left, Literal)
        ):
            column = left if isinstance(left, ColumnRef) else right
            return PruningNullCheck(column.name, negated=True)
        return None
    if isinstance(predicate, Between) and not predicate.negated:
        if not isinstance(predicate.expr, ColumnRef):
            return None
        low = numeric_literal(predicate.low)
        high = numeric_literal(predicate.high)
        if low is None and high is None:
            return None
        # Open-ended on a non-literal side: only the literal bound prunes.
        return RangeInterval(predicate.expr.name, low, high)
    if isinstance(predicate, InList) and not predicate.negated:
        if not isinstance(predicate.expr, ColumnRef):
            return None
        bounds = [numeric_literal(v) for v in predicate.values]
        if not bounds or any(b is None for b in bounds):
            # Mixed/string lists: membership still implies NOT NULL when
            # every element is a literal.
            if predicate.values and all(isinstance(v, Literal) for v in predicate.values):
                return PruningNullCheck(predicate.expr.name, negated=True)
            return None
        return RangeInterval(predicate.expr.name, min(bounds), max(bounds))
    if isinstance(predicate, IsNull) and isinstance(predicate.expr, ColumnRef):
        return PruningNullCheck(predicate.expr.name, negated=predicate.negated)
    return None


def pruning_conjuncts(predicate: Expression) -> list[PruningConjunct]:
    """Partition-prunable conjuncts of ``predicate`` (conservative).

    Each conjunct contributes its exact range
    (:func:`~repro.sql.planner.range_interval`, shared with IVM brush
    detection) or else what it implies about a bare column
    (:func:`_implied_conjunct`).  Disjunctions, negations and any
    predicate over a computed expression contribute nothing — those
    cannot prune.
    """
    found: list[PruningConjunct] = []
    for conjunct in conjuncts(predicate):
        implied = range_interval(conjunct) or _implied_conjunct(conjunct)
        if implied is not None:
            found.append(implied)
    return found


def _zone_may_satisfy(zone_map: ZoneMap, conjunct: PruningConjunct) -> bool:
    zone = zone_map.column(conjunct.column)
    if zone is None:
        return True
    if isinstance(conjunct, PruningNullCheck):
        if conjunct.negated:
            return zone.non_null > 0
        return zone.null_count > 0
    return zone.may_contain_range(conjunct)


def prune_partitions(
    zone_maps: Sequence[ZoneMap], conjuncts: Sequence[PruningConjunct]
) -> list[int]:
    """Indices of partitions that may hold satisfying rows.

    A partition is kept unless some conjunct is provably unsatisfiable
    within its zones (conjunction semantics: failing any one conjunct
    empties the whole predicate for that partition).
    """
    kept: list[int] = []
    for index, zone_map in enumerate(zone_maps):
        if all(_zone_may_satisfy(zone_map, conjunct) for conjunct in conjuncts):
            kept.append(index)
    return kept


def _merge_filters(node: PlanNode) -> PlanNode:
    """Merge chains of adjacent filters into a single conjunction."""
    if isinstance(node, FilterNode):
        child = _merge_filters(node.child)
        if isinstance(child, FilterNode):
            # Folded like every other predicate node, so a bound shape
            # plan (which re-folds each node holding a slot) matches.
            merged = fold_node(BinaryOp("AND", node.predicate, child.predicate))
            return _merge_filters(FilterNode(child=child.child, predicate=merged))
        return FilterNode(child=child, predicate=node.predicate)
    for attr in ("child", "plan"):
        if hasattr(node, attr):
            setattr(node, attr, _merge_filters(getattr(node, attr)))
    return node


__all__ = [
    "optimize_plan",
    "fold_constants",
    "fold_node",
    "map_expressions",
    "pruning_conjuncts",
    "prune_partitions",
    "PruningNullCheck",
]
