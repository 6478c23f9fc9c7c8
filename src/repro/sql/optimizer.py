"""Rule-based logical plan optimizer.

The backend engines the paper targets (PostgreSQL, DuckDB) reorder and
optimise declarative queries; our substitute applies a small set of classic
rewrite rules so the server side keeps its structural advantage over the
client-side dataflow, which always executes operators in specification
order (Section 2 of the paper):

* constant folding of literal-only expressions,
* filter pushdown through projections and sub-queries,
* merging adjacent filters into one conjunction,
* removal of trivial LIMIT/OFFSET and empty projections.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    SelectItem,
    Star,
    UnaryOp,
    WindowFunction,
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
)
from repro.storage.statistics import ZoneMap


# --------------------------------------------------------------------------- #
# Constant folding
# --------------------------------------------------------------------------- #


def fold_constants(expr: Expression) -> Expression:
    """Collapse literal-only sub-expressions into literals."""
    if isinstance(expr, BinaryOp):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if isinstance(left, Literal) and isinstance(right, Literal):
            folded = _fold_binary(expr.op, left.value, right.value)
            if folded is not _UNFOLDABLE:
                return Literal(folded)
        return BinaryOp(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        operand = fold_constants(expr.operand)
        if isinstance(operand, Literal):
            if expr.op == "-" and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            if expr.op.upper() == "NOT" and isinstance(operand.value, bool):
                return Literal(not operand.value)
        return UnaryOp(expr.op, operand)
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            name=expr.name,
            args=tuple(fold_constants(a) for a in expr.args),
            distinct=expr.distinct,
            is_star=expr.is_star,
        )
    if isinstance(expr, CaseExpression):
        return CaseExpression(
            whens=tuple(
                (fold_constants(c), fold_constants(v)) for c, v in expr.whens
            ),
            default=None if expr.default is None else fold_constants(expr.default),
        )
    if isinstance(expr, InList):
        return InList(
            expr=fold_constants(expr.expr),
            values=tuple(fold_constants(v) for v in expr.values),
            negated=expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(expr=fold_constants(expr.expr), negated=expr.negated)
    if isinstance(expr, Between):
        return Between(
            expr=fold_constants(expr.expr),
            low=fold_constants(expr.low),
            high=fold_constants(expr.high),
            negated=expr.negated,
        )
    if isinstance(expr, WindowFunction):
        return WindowFunction(
            function=fold_constants(expr.function),  # type: ignore[arg-type]
            partition_by=tuple(fold_constants(p) for p in expr.partition_by),
            order_by=expr.order_by,
        )
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
    root = _optimize_node(plan.root)
    root = _push_filters(root)
    root = _merge_filters(root)
    return LogicalPlan(root=root, statement=plan.statement)


def _optimize_node(node: PlanNode) -> PlanNode:
    """Bottom-up pass: fold constants inside every expression-bearing node."""
    if isinstance(node, FilterNode):
        return FilterNode(
            child=_optimize_node(node.child),
            predicate=fold_constants(node.predicate),
        )
    if isinstance(node, ProjectNode):
        return ProjectNode(
            child=_optimize_node(node.child),
            items=tuple(
                SelectItem(fold_constants(i.expression), i.alias)
                if not isinstance(i.expression, Star)
                else i
                for i in node.items
            ),
        )
    if isinstance(node, AggregateNode):
        return AggregateNode(
            child=_optimize_node(node.child),
            group_by=tuple(fold_constants(e) for e in node.group_by),
            items=tuple(
                SelectItem(fold_constants(i.expression), i.alias)
                if not isinstance(i.expression, Star)
                else i
                for i in node.items
            ),
        )
    if isinstance(node, WindowNode):
        return WindowNode(child=_optimize_node(node.child), windows=node.windows)
    if isinstance(node, SortNode):
        return SortNode(child=_optimize_node(node.child), keys=node.keys)
    if isinstance(node, LimitNode):
        if node.limit is None and not node.offset:
            return _optimize_node(node.child)
        return LimitNode(
            child=_optimize_node(node.child), limit=node.limit, offset=node.offset
        )
    if isinstance(node, DistinctNode):
        return DistinctNode(child=_optimize_node(node.child))
    if isinstance(node, SubqueryNode):
        return SubqueryNode(plan=_optimize_node(node.plan), alias=node.alias)
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
class PruningInterval:
    """``column ∈ [low, high]`` implied by a conjunct (None = unbounded).

    Any comparison also implies ``column IS NOT NULL`` (a NULL operand
    makes the predicate unknown, which a filter drops), which is how an
    interval conjunct prunes NULL-only partitions.
    """

    column: str
    low: float | None = None
    high: float | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True


@dataclass(frozen=True)
class PruningNullCheck:
    """``column IS [NOT] NULL`` conjunct (``negated`` = IS NOT NULL)."""

    column: str
    negated: bool = False


PruningConjunct = PruningInterval | PruningNullCheck


def _literal_number(expr: Expression) -> float | None:
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float)) and not isinstance(
        expr.value, bool
    ):
        return float(expr.value)
    return None


def _comparison_conjunct(op: str, left: Expression, right: Expression) -> PruningConjunct | None:
    column: str | None = None
    bound: float | None = None
    if isinstance(left, ColumnRef):
        column, bound = left.name, _literal_number(right)
    elif isinstance(right, ColumnRef):
        column, bound = right.name, _literal_number(left)
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if column is None:
        return None
    if bound is None:
        # A comparison against a string literal (or any non-numeric
        # literal) still implies the column is not NULL.
        if isinstance(right, Literal) or isinstance(left, Literal):
            return PruningNullCheck(column, negated=True)
        return None
    if op == "=":
        return PruningInterval(column, bound, bound)
    if op == "<":
        return PruningInterval(column, None, bound, high_inclusive=False)
    if op == "<=":
        return PruningInterval(column, None, bound)
    if op == ">":
        return PruningInterval(column, bound, None, low_inclusive=False)
    if op == ">=":
        return PruningInterval(column, bound, None)
    if op == "<>":
        # Cannot bound the value, but NULL still never satisfies it.
        return PruningNullCheck(column, negated=True)
    return None


def pruning_conjuncts(predicate: Expression) -> list[PruningConjunct]:
    """Partition-prunable conjuncts of ``predicate`` (conservative).

    Only conjuncts of the form *bare column vs literal* are extracted:
    comparisons, non-negated BETWEEN (non-literal bounds leave that side
    open), non-negated IN over numeric literals, and IS [NOT] NULL.
    Disjunctions, negations and any predicate over a computed expression
    contribute nothing — those cannot prune.
    """
    if isinstance(predicate, BinaryOp):
        op = predicate.op.upper()
        if op == "AND":
            return pruning_conjuncts(predicate.left) + pruning_conjuncts(predicate.right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            conjunct = _comparison_conjunct(op, predicate.left, predicate.right)
            return [conjunct] if conjunct is not None else []
        return []
    if isinstance(predicate, Between) and not predicate.negated:
        if not isinstance(predicate.expr, ColumnRef):
            return []
        low = _literal_number(predicate.low)
        high = _literal_number(predicate.high)
        if low is None and high is None:
            return []
        # Open-ended on a non-literal side: only the literal bound prunes.
        return [PruningInterval(predicate.expr.name, low, high)]
    if isinstance(predicate, InList) and not predicate.negated:
        if not isinstance(predicate.expr, ColumnRef):
            return []
        bounds = [_literal_number(v) for v in predicate.values]
        if not bounds or any(b is None for b in bounds):
            # Mixed/string lists: membership still implies NOT NULL when
            # every element is a literal.
            if predicate.values and all(isinstance(v, Literal) for v in predicate.values):
                return [PruningNullCheck(predicate.expr.name, negated=True)]
            return []
        return [PruningInterval(predicate.expr.name, min(bounds), max(bounds))]
    if isinstance(predicate, IsNull) and isinstance(predicate.expr, ColumnRef):
        return [PruningNullCheck(predicate.expr.name, negated=predicate.negated)]
    return []


def _zone_may_satisfy(zone_map: ZoneMap, conjunct: PruningConjunct) -> bool:
    zone = zone_map.column(conjunct.column)
    if zone is None:
        return True
    if isinstance(conjunct, PruningNullCheck):
        if conjunct.negated:
            return zone.non_null > 0
        return zone.null_count > 0
    return zone.may_contain_range(
        conjunct.low, conjunct.high, conjunct.low_inclusive, conjunct.high_inclusive
    )


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
            merged = BinaryOp("AND", node.predicate, child.predicate)
            return _merge_filters(FilterNode(child=child.child, predicate=merged))
        return FilterNode(child=child, predicate=node.predicate)
    for attr in ("child", "plan"):
        if hasattr(node, attr):
            setattr(node, attr, _merge_filters(getattr(node, attr)))
    return node


__all__ = [
    "optimize_plan",
    "fold_constants",
    "pruning_conjuncts",
    "prune_partitions",
    "PruningInterval",
    "PruningNullCheck",
]
