"""Physical execution of logical plans over columnar tables.

The executor evaluates expressions in a vectorised fashion: every value
expression evaluates to a numpy array aligned with the input table's rows.
Predicates evaluate to a pair of boolean masks, ``(true, unknown)``, that
carries SQL's three-valued logic: a row is TRUE, UNKNOWN (NULL), or FALSE
when it is in neither mask, and ``unknown`` is ``None`` when no row is
UNKNOWN.  AND, OR and NOT are bitwise operations on the masks.  Only a
predicate used as a value (``SELECT v > 2 AS f``) is converted, in one
place, to 1.0 / 0.0 / NaN.

A WHERE or HAVING clause takes one shorter path.  At its top level an
UNKNOWN row drops as a FALSE one does, so each top-level conjunct needs
only its TRUE mask; a ``column op number`` conjunct compares the column
with a Python float (no literal is broadcast to a column), any other
reads the TRUE mask of the Kleene masks above.  The conjuncts' masks AND
in place and the table is gathered once, by the surviving row ids.
"""

from __future__ import annotations

import fnmatch
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError
from repro.sql.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    OrderItem,
    SelectItem,
    Star,
    UnaryOp,
    WindowFunction,
    contains_aggregate,
)
from repro.sql.functions import (
    aggregate_segments,
    apply_scalar_function,
    is_string_array,
    none_for_null,
    null_mask,
)
from repro.sql.optimizer import prune_partitions, pruning_conjuncts
from repro.sql.planner import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    LimitNode,
    LogicalPlan,
    MaterializedNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    SubqueryNode,
    WindowNode,
    collect_windows,
    column_comparison,
    conjuncts,
    evaluate_aggregate_item,
)
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.table import PartitionedTable, Table, group_segments, sort_codes


# --------------------------------------------------------------------------- #
# Execution statistics
# --------------------------------------------------------------------------- #


@dataclass
class ExecutionStats:
    """Per-query execution counters used by benchmarks and the optimizer."""

    rows_scanned: int = 0
    rows_output: int = 0
    operators_executed: int = 0
    rows_grouped: int = 0
    groups_formed: int = 0
    rows_sorted: int = 0
    rows_deduplicated: int = 0
    #: Scans of a partitioned table: partitions read and partitions
    #: skipped by zone-map pruning.  ``morsel_tasks`` (and
    #: ``morsel_tasks_inline``, always equal to it) counts the partitions
    #: read once more; both remain because benchmarks/e2e reports
    #: ``sql.morsel_tasks`` and derives ``sql.morsel_inline_share`` from
    #: the pair.
    partitions_scanned: int = 0
    partitions_pruned: int = 0
    morsel_tasks: int = 0
    morsel_tasks_inline: int = 0

    def record(self, node_rows: int) -> None:
        """Record one operator execution producing ``node_rows`` rows."""
        self.operators_executed += 1
        self.rows_output = node_rows


# --------------------------------------------------------------------------- #
# Expression evaluation
# --------------------------------------------------------------------------- #


def _broadcast_literal(value: object, n_rows: int) -> np.ndarray:
    if value is None:
        return np.full(n_rows, np.nan, dtype=np.float64)
    if isinstance(value, bool):
        return np.full(n_rows, 1.0 if value else 0.0, dtype=np.float64)
    if isinstance(value, (int, float)):
        return np.full(n_rows, float(value), dtype=np.float64)
    out = np.empty(n_rows, dtype=object)
    out[:] = value
    return out


#: A predicate's value over the rows: ``(true, unknown)`` boolean masks,
#: disjoint, with ``unknown`` ``None`` when no row is UNKNOWN.  A row in
#: neither mask is FALSE.
Truth = tuple[np.ndarray, "np.ndarray | None"]

_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _known(true: np.ndarray, unknown: np.ndarray) -> Truth:
    """``(true, unknown)``, with an all-False ``unknown`` dropped to ``None``."""
    return true, unknown if unknown.any() else None


def _not_false(truth: Truth) -> np.ndarray:
    """The rows that are TRUE or UNKNOWN."""
    true, unknown = truth
    return true if unknown is None else true | unknown


def _truth_and(left: Truth, right: Truth) -> Truth:
    """Kleene AND: FALSE dominates, then UNKNOWN, then TRUE."""
    true = left[0] & right[0]
    if left[1] is None and right[1] is None:
        return true, None
    return _known(true, _not_false(left) & _not_false(right) & ~true)


def _truth_or(left: Truth, right: Truth) -> Truth:
    """Kleene OR: TRUE dominates, then UNKNOWN, then FALSE."""
    true = left[0] | right[0]
    if left[1] is None and right[1] is None:
        return true, None
    return _known(true, (_not_false(left) | _not_false(right)) & ~true)


def _truth_not(truth: Truth) -> Truth:
    """Kleene NOT: TRUE and FALSE swap, UNKNOWN stays."""
    true, unknown = truth
    if unknown is None:
        return ~true, None
    return ~(true | unknown), unknown


def _truth_values(truth: Truth) -> np.ndarray:
    """A predicate as a value: 1.0 TRUE, 0.0 FALSE, NaN UNKNOWN."""
    true, unknown = truth
    if unknown is None:
        return true.astype(np.float64)
    return np.where(unknown, np.nan, true.astype(np.float64))


def _value_truth(values: np.ndarray) -> Truth:
    """A value used as a predicate: NULL is UNKNOWN, 0 is FALSE and every
    other number is TRUE, as in SQLite and the client's truthiness; a
    string is UNKNOWN."""
    if values.dtype == object:
        values = np.array(
            [v if isinstance(v, (int, float)) else np.nan for v in values], dtype=np.float64
        )
    unknown = np.isnan(values)
    return _known((values != 0.0) & ~unknown, unknown)


def _compare(op: str, left: np.ndarray, right: np.ndarray) -> Truth:
    """Comparison with NULL-propagation, for both numeric and string arrays.

    A numeric comparison is one ufunc; NULLs are checked once, and only
    a row with a NULL operand is UNKNOWN.
    """
    compare = _COMPARISONS[op]
    if is_string_array(left) or is_string_array(right):
        return _per_row(left, right, lambda lv, rv: compare(*_comparable(lv, rv)))
    true = compare(left, right)
    nulls = np.isnan(left)
    nulls |= np.isnan(right)
    if not nulls.any():
        return true, None
    # NaN compares False except under ``<>``; a NULL row is never TRUE.
    return true & ~nulls, nulls


def _comparable(left: object, right: object) -> tuple[object, object]:
    """A number meets a string as text."""
    if isinstance(left, (int, float)) != isinstance(right, (int, float)):
        return str(left), str(right)
    return left, right


def _like(value: object, pattern: object) -> bool:
    """SQL LIKE on non-NULL values: case-sensitive, ``%`` any run, ``_`` one character."""
    return fnmatch.fnmatchcase(str(value), str(pattern).replace("%", "*").replace("_", "?"))


def _per_row(left: np.ndarray, right: np.ndarray, test) -> Truth:
    """``test(l, r)`` row by row over Python values; a row with a NULL
    operand, numeric NaN included, is UNKNOWN."""
    n = len(left)
    true = np.zeros(n, dtype=bool)
    unknown = np.zeros(n, dtype=bool)
    for i, (lv, rv) in enumerate(zip(_objects(left), _objects(right))):
        if lv is None or rv is None or _is_nan(lv) or _is_nan(rv):
            unknown[i] = True
        else:
            true[i] = test(lv, rv)
    return _known(true, unknown)


def _objects(values: np.ndarray) -> np.ndarray:
    return values if is_string_array(values) else values.astype(object)


def _is_nan(value: object) -> bool:
    return isinstance(value, float) and np.isnan(value)


class ExpressionEvaluator:
    """Vectorised evaluator of expressions against a table.

    ``alias_values`` optionally maps output aliases to already-computed
    arrays, which lets GROUP BY / ORDER BY refer to SELECT-list aliases;
    ``item_values`` maps them by ``id`` of the item's expression, for :meth:`column`.
    """

    def __init__(
        self,
        table: Table,
        alias_values: dict[str, np.ndarray] | None = None,
        item_values: dict[int, np.ndarray] | None = None,
    ) -> None:
        self._table = table
        self._aliases = alias_values or {}
        self._items = item_values or {}

    def evaluate(self, expr: Expression) -> np.ndarray:
        """Evaluate ``expr`` to an array aligned with the table's rows."""
        n = self._table.num_rows
        if isinstance(expr, Literal):
            return _broadcast_literal(expr.value, n)
        if isinstance(expr, ColumnRef):
            return self._column_values(expr.name)
        if isinstance(expr, Star):
            raise ExecutionError("'*' is only valid directly in the SELECT list or COUNT(*)")
        predicate = self._predicate(expr)
        if predicate is not None:
            return _truth_values(predicate)
        if isinstance(expr, UnaryOp):
            return self._evaluate_unary(expr)
        if isinstance(expr, BinaryOp):
            return self._evaluate_binary(expr)
        if isinstance(expr, FunctionCall):
            return self._evaluate_function(expr)
        if isinstance(expr, CaseExpression):
            return self._evaluate_case(expr)
        if isinstance(expr, WindowFunction):
            # Materialised by WindowNode under its text (collect_windows).
            return self._column_values(str(expr))
        raise ExecutionError(f"cannot evaluate expression {expr!r}")

    def truth(self, expr: Expression) -> Truth:
        """``expr`` evaluated as a predicate: its ``(true, unknown)`` masks.

        Comparisons, AND, OR, NOT, BETWEEN, IN, IS NULL and LIKE build
        the masks directly; any other expression is evaluated as a value
        and read by :func:`_value_truth`.
        """
        predicate = self._predicate(expr)
        if predicate is not None:
            return predicate
        return _value_truth(self.evaluate(expr))

    def true_mask(self, expr: Expression) -> np.ndarray:
        """The rows where ``expr`` is TRUE: a top-level conjunct's mask,
        where an UNKNOWN row drops as a FALSE one does.

        ``column op number``, either way round, is one ufunc against a
        Python float.  NaN compares False, so only ``<>`` masks the
        column's NULLs out, and only when it holds one.  Any other
        expression takes the TRUE mask of :meth:`truth`.
        """
        comparison = column_comparison(expr)
        values = None if comparison is None else self._column_values(comparison[0])
        if values is None or values.dtype != np.float64:
            return self.truth(expr)[0]
        _name, op, value = comparison
        true = _COMPARISONS[op](values, value)
        if op == "<>":
            nulls = np.isnan(values)
            if nulls.any():
                true &= ~nulls
        return true

    def column(self, expr: Expression) -> Column:
        """``expr`` evaluated to a :class:`Column`.

        A bare reference to a table column returns the stored column
        itself, so a dictionary-encoded string column reaches the
        group/distinct/sort kernels as codes and no string is hashed;
        computed expressions are evaluated and wrapped (string results
        encode once, in the column constructor).
        """
        if isinstance(expr, ColumnRef) and self._table.has_column(expr.name):
            return self._table.column(expr.name)
        values = self._items.get(id(expr))
        return _array_to_column(str(expr), self.evaluate(expr) if values is None else values)

    # -------------------------------------------------------------- #
    def _column_values(self, name: str) -> np.ndarray:
        if self._table.has_column(name):
            return self._table.column(name).values
        if name in self._aliases:
            return self._aliases[name]
        raise ExecutionError(
            f"unknown column {name!r}; available: {self._table.column_names()}"
        )

    def _predicate(self, expr: Expression) -> Truth | None:
        """The masks of a predicate node, or ``None`` for a value node."""
        if isinstance(expr, BinaryOp):
            op = expr.op.upper()
            if op == "AND":
                return _truth_and(self.truth(expr.left), self.truth(expr.right))
            if op == "OR":
                return _truth_or(self.truth(expr.left), self.truth(expr.right))
            if op in _COMPARISONS:
                return _compare(op, self.evaluate(expr.left), self.evaluate(expr.right))
            if op == "LIKE":
                return _per_row(self.evaluate(expr.left), self.evaluate(expr.right), _like)
            return None
        if isinstance(expr, UnaryOp):
            if expr.op.upper() == "NOT":
                return _truth_not(self.truth(expr.operand))
            return None
        if isinstance(expr, IsNull):
            nulls = null_mask(self.evaluate(expr.expr))
            return (~nulls if expr.negated else nulls), None
        if isinstance(expr, Between):
            value = self.evaluate(expr.expr)
            truth = _truth_and(
                _compare(">=", value, self.evaluate(expr.low)),
                _compare("<=", value, self.evaluate(expr.high)),
            )
        elif isinstance(expr, InList):
            # ``x IN (a, b)`` is ``x = a OR x = b``.
            value = self.evaluate(expr.expr)
            truth = (np.zeros(len(value), dtype=bool), None)
            for candidate in expr.values:
                truth = _truth_or(truth, _compare("=", value, self.evaluate(candidate)))
        else:
            return None
        return _truth_not(truth) if expr.negated else truth

    def _evaluate_unary(self, expr: UnaryOp) -> np.ndarray:
        if expr.op != "-":
            raise ExecutionError(f"unsupported unary operator {expr.op!r}")
        operand = self.evaluate(expr.operand)
        if is_string_array(operand):
            raise ExecutionError("cannot negate a string expression")
        return -operand

    def _evaluate_binary(self, expr: BinaryOp) -> np.ndarray:
        op = expr.op.upper()
        left = self.evaluate(expr.left)
        right = self.evaluate(expr.right)
        if op == "||":
            return self._concat(left, right)
        return self._arithmetic(op, left, right)

    @staticmethod
    def _concat(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        out = np.empty(len(left), dtype=object)
        for i, (lv, rv) in enumerate(zip(_objects(left), _objects(right))):
            if lv is None or rv is None or _is_nan(lv) or _is_nan(rv):
                out[i] = None
            else:
                out[i] = f"{lv}{rv}"
        return out

    @staticmethod
    def _arithmetic(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        if is_string_array(left) or is_string_array(right):
            raise ExecutionError(f"arithmetic operator {op!r} requires numeric operands")
        with np.errstate(divide="ignore", invalid="ignore"):
            if op == "+":
                result = left + right
            elif op == "-":
                result = left - right
            elif op == "*":
                result = left * right
            elif op == "/":
                result = left / right
                result[np.isinf(result)] = np.nan
            elif op == "%":
                result = np.mod(left, right)
                result[np.isinf(result)] = np.nan
            else:
                raise ExecutionError(f"unsupported binary operator {op!r}")
        return result

    def _evaluate_function(self, expr: FunctionCall) -> np.ndarray:
        name = expr.name.upper()
        if name in AGGREGATE_FUNCTIONS:
            raise ExecutionError(
                f"aggregate function {name} cannot be evaluated per-row; "
                "it must appear in an aggregate query"
            )
        args = [self.evaluate(arg) for arg in expr.args]
        return apply_scalar_function(name, args)

    def _evaluate_case(self, expr: CaseExpression) -> np.ndarray:
        conditions = [self.truth(cond)[0] for cond, _value in expr.whens]
        values = [self.evaluate(value) for _cond, value in expr.whens]
        default = (
            self.evaluate(expr.default)
            if expr.default is not None
            else _broadcast_literal(None, self._table.num_rows)
        )
        if is_string_array(default) or any(map(is_string_array, values)):
            values = [_object_values(value) for value in values]
            default = _object_values(default)
        # The first TRUE condition picks its branch, as CASE does.
        return np.select(conditions, values, default)


def _object_values(values: np.ndarray) -> np.ndarray:
    """``values`` as an object array with every NULL as ``None``."""
    return np.array([None if _is_nan(v) else v for v in values.tolist()], dtype=object)


def _array_to_column(name: str, values: np.ndarray) -> Column:
    if is_string_array(values):
        return Column(name, values, ColumnType.STRING)
    return Column(name, values.astype(np.float64, copy=False), ColumnType.NUMERIC)


def aggregate_evaluator(items: Sequence[SelectItem], table: Table) -> ExpressionEvaluator:
    """Evaluator over ``table`` that also resolves the SELECT list's aliases.

    GROUP BY may name a SELECT alias (``SELECT FLOOR(x) AS b ... GROUP BY
    b``); the non-aggregate aliased items are evaluated up front so the
    grouping expressions can refer to them, and each is evaluated once:
    the item's own output column reuses its array.
    """
    evaluator = ExpressionEvaluator(table)
    alias_arrays: dict[str, np.ndarray] = {}
    item_arrays: dict[int, np.ndarray] = {}
    for item in items:
        if item.alias and not contains_aggregate(item.expression) and not isinstance(
            item.expression, (Star, WindowFunction)
        ):
            try:
                values = evaluator.evaluate(item.expression)
            except ExecutionError:
                continue
            alias_arrays[item.alias] = item_arrays[id(item.expression)] = values
    return ExpressionEvaluator(table, alias_values=alias_arrays, item_values=item_arrays)


def scan_columns(table: Table, columns: frozenset[str] | None) -> Table:
    """``table`` narrowed to ``columns`` (``None`` = all), the columns the
    plan above a scan reads.

    Projection shares the column objects, so this costs nothing per row;
    what it saves is every later filter/take gathering columns nobody
    reads.  A plan that references no column at all (``COUNT(*)``) keeps
    one, so the row count survives.
    """
    if columns is None:
        return table
    names = [name for name in table.column_names() if name in columns]
    if len(names) == table.num_columns:
        return table
    return table.select(names or table.column_names()[:1])


def _filter(table: Table, predicate: Expression) -> Table:
    """The rows of ``table`` for which ``predicate`` is TRUE.

    Each top-level conjunct gives its :meth:`~ExpressionEvaluator.true_mask`
    over every row, with no early exit, so the error a query raises does
    not depend on what an earlier conjunct kept.  The masks AND in place
    and the rows are gathered once.
    """
    evaluator = ExpressionEvaluator(table)
    keep = None
    for conjunct in conjuncts(predicate):
        true = evaluator.true_mask(conjunct)
        keep = true if keep is None else np.logical_and(keep, true, out=keep)
    return table.take(np.flatnonzero(keep))


def _segment_firsts(column: Column, order: np.ndarray, starts: np.ndarray) -> Column:
    """``column``'s value at the first row of every group segment.

    Only a global aggregate over zero rows has a segment without a first
    row; its value is NULL.
    """
    if len(starts) and not len(order):
        return Column.from_values(column.name, [None] * len(starts))
    return column.take(order[starts])


# --------------------------------------------------------------------------- #
# Plan execution
# --------------------------------------------------------------------------- #


class Executor:
    """Executes logical plans against a :class:`Catalog`.

    Every operator has one implementation, run over whole tables.  A
    :class:`~repro.storage.table.PartitionedTable` differs only at the
    scan: the filter directly above it prunes partitions by zone map,
    and the scan hands the operators above it the flat filter's rows in
    the flat order, so results are identical to a flat table's.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    def execute(self, plan: LogicalPlan) -> tuple[Table, ExecutionStats]:
        """Execute ``plan`` and return the result table plus statistics."""
        stats = ExecutionStats()
        table = self._execute_node(plan.root, stats)
        stats.rows_output = table.num_rows
        return table, stats

    def execute_subtree(self, node: PlanNode, stats: ExecutionStats) -> Table:
        """Execute a plan subtree, accumulating into an existing ``stats``.

        An IVM hit uses this to run a plan's aggregate and suffix
        operators (HAVING / DISTINCT / ORDER BY / LIMIT) over a
        :class:`~repro.sql.planner.MaterializedNode` carrying the rows
        its brush selects.
        """
        return self._execute_node(node, stats)

    # -------------------------------------------------------------- #
    def _execute_node(self, node: PlanNode, stats: ExecutionStats) -> Table:
        if isinstance(node, MaterializedNode):
            table: Table = node.table
            stats.record(table.num_rows)
            return table
        if isinstance(node, ScanNode):
            return self._scan(node, None, stats)
        if isinstance(node, SubqueryNode):
            table = self._execute_node(node.plan, stats)
            stats.record(table.num_rows)
            return table
        if isinstance(node, FilterNode):
            return self._execute_filter(node, stats)
        if isinstance(node, ProjectNode):
            return self._execute_project(node, stats)
        if isinstance(node, AggregateNode):
            return self._execute_aggregate(node, stats)
        if isinstance(node, WindowNode):
            return self._execute_window(node, stats)
        if isinstance(node, SortNode):
            return self._execute_sort(node, stats)
        if isinstance(node, LimitNode):
            return self._execute_limit(node, stats)
        if isinstance(node, DistinctNode):
            return self._execute_distinct(node, stats)
        raise ExecutionError(f"unsupported plan node {type(node).__name__}")

    def _scan(
        self, node: ScanNode, predicate: Expression | None, stats: ExecutionStats
    ) -> Table:
        """The scanned table's rows, filtered by ``predicate`` if given.

        A partitioned table is pruned first: the predicate's range
        conjuncts meet the zone maps of this very table object (asked
        for by object, not by name, so a replace racing this query
        cannot pair its partitions with another table's maps), and a
        pruned partition provably holds no matching row.  Adjacent kept
        partitions merge into one row range; one range is a zero-copy
        slice, several are taken in row order, and the filter runs once
        over the kept rows — the flat filter's rows, in the flat order.
        """
        table = self._catalog.get(node.table_name)
        narrowed = scan_columns(table, node.columns)
        ranges = [(0, table.num_rows)]
        if isinstance(table, PartitionedTable):
            kept = range(table.num_partitions)
            conjuncts = [] if predicate is None else pruning_conjuncts(predicate)
            if conjuncts:
                kept = prune_partitions(self._catalog.zone_maps_of(table), conjuncts)
            stats.partitions_scanned += len(kept)
            stats.partitions_pruned += table.num_partitions - len(kept)
            stats.morsel_tasks += len(kept)
            stats.morsel_tasks_inline += len(kept)
            ranges = table.row_ranges(kept) or [(0, 0)]
        if ranges == [(0, table.num_rows)]:
            kept_rows = narrowed
        elif len(ranges) == 1:
            (start, end), = ranges
            kept_rows = narrowed.slice(start, end - start)
        else:
            kept_rows = narrowed.take(
                np.concatenate([np.arange(start, end) for start, end in ranges])
            )
        stats.rows_scanned += kept_rows.num_rows
        stats.record(kept_rows.num_rows)
        return kept_rows if predicate is None else _filter(kept_rows, predicate)

    def _execute_filter(self, node: FilterNode, stats: ExecutionStats) -> Table:
        if isinstance(node.child, ScanNode):
            result = self._scan(node.child, node.predicate, stats)
        else:
            result = _filter(self._execute_node(node.child, stats), node.predicate)
        stats.record(result.num_rows)
        return result

    def _execute_project(self, node: ProjectNode, stats: ExecutionStats) -> Table:
        table = self._execute_node(node.child, stats)
        evaluator = ExpressionEvaluator(table)
        columns: list[Column] = []
        used_names: set[str] = set()
        # Columns WindowNode materialised for this projection's window
        # functions: ``*`` must not expand them (they are not source
        # columns), or ``SELECT *, SUM(x) OVER (...) AS y`` would emit
        # ``y`` twice.
        window_names = {name for name, _window in collect_windows(node.items)}
        for index, item in enumerate(node.items):
            if isinstance(item.expression, Star):
                for col in table.columns():
                    if col.name not in used_names and col.name not in window_names:
                        columns.append(col)
                        used_names.add(col.name)
                continue
            name = item.output_name(index)
            if isinstance(item.expression, WindowFunction):
                # Window columns were already materialised by WindowNode
                # under the item's output name.
                column = table.column(name)
            else:
                column = evaluator.column(item.expression)
            if name in used_names:
                name = f"{name}_{index}"
            columns.append(column.rename(name))
            used_names.add(name)
        result = Table(columns, name=table.name)
        stats.record(result.num_rows)
        return result

    def _execute_aggregate(self, node: AggregateNode, stats: ExecutionStats) -> Table:
        table = self._execute_node(node.child, stats)
        evaluator = aggregate_evaluator(node.items, table)
        n = table.num_rows
        group_codes = [evaluator.column(expr).group_codes() for expr in node.group_by]
        order, starts, ends = group_segments(group_codes, n)
        stats.rows_grouped += n
        stats.groups_formed += len(starts)

        def aggregate(call: FunctionCall) -> list[object]:
            # Aggregate arguments are evaluated once over the whole input
            # table and reduced per segment of the group-sorted ``order``.
            if call.is_star:
                return np.asarray(ends - starts, dtype=np.float64).tolist()
            if not call.args:
                raise ExecutionError(f"aggregate {call.name} requires an argument")
            values = evaluator.evaluate(call.args[0])
            return none_for_null(
                aggregate_segments(call.name, values[order], starts, ends, call.distinct)
            )

        def shared(expr: Expression) -> list[object]:
            # All rows of a group share the value, so take each group's
            # first row (``order[starts]``) in one gather — of codes, for
            # a dictionary column.
            return _segment_firsts(evaluator.column(expr), order, starts).to_pylist()

        columns = [
            Column.from_values(
                item.output_name(index),
                evaluate_aggregate_item(item.expression, aggregate, shared, len(starts)),
            )
            for index, item in enumerate(node.items)
        ]
        result = Table(columns, name=table.name)
        stats.record(result.num_rows)
        return result

    def _execute_window(self, node: WindowNode, stats: ExecutionStats) -> Table:
        table = self._execute_node(node.child, stats)
        result = table
        for output_name, window in node.windows:
            values = self._evaluate_window(window, result)
            result = result.with_column(_array_to_column(output_name, values))
        stats.record(result.num_rows)
        return result

    def _evaluate_window(self, window: WindowFunction, table: Table) -> np.ndarray:
        evaluator = ExpressionEvaluator(table)
        n = table.num_rows
        if window.partition_by:
            codes = [evaluator.column(e).group_codes() for e in window.partition_by]
            order, starts, ends = group_segments(codes, n)
            partitions = [order[start:end] for start, end in zip(starts, ends)]
        else:
            partitions = [np.arange(n)]

        order_keys = window.order_by
        func = window.function
        name = func.name.upper()
        out = np.full(n, np.nan, dtype=np.float64)

        for indices in partitions:
            subset = table.take(indices)
            sub_eval = ExpressionEvaluator(subset)
            codes = [sub_eval.column(key.expression).group_codes() for key in order_keys]
            if order_keys:
                sort_order = sort_codes(codes, [key.descending for key in order_keys])
            else:
                sort_order = np.arange(len(indices))
            ordered_global = indices[sort_order]

            if name == "ROW_NUMBER":
                out[ordered_global] = np.arange(1, len(indices) + 1, dtype=np.float64)
                continue
            if name == "RANK":
                out[ordered_global] = _rank_values(codes, sort_order)
                continue

            if func.is_star:
                arg_values = np.ones(len(indices), dtype=np.float64)
            elif func.args:
                arg_values = sub_eval.evaluate(func.args[0])
            else:
                raise ExecutionError(f"window function {name} requires an argument")
            if is_string_array(arg_values):
                raise ExecutionError(f"window function {name} requires numeric input")
            ordered_values = arg_values[sort_order]

            if order_keys:
                # Running (cumulative) aggregate in frame ROWS UNBOUNDED PRECEDING.
                filled = np.where(np.isnan(ordered_values), 0.0, ordered_values)
                if name == "SUM":
                    cumulative = np.cumsum(filled)
                elif name == "COUNT":
                    cumulative = np.cumsum((~np.isnan(ordered_values)).astype(np.float64))
                elif name == "AVG":
                    counts = np.cumsum((~np.isnan(ordered_values)).astype(np.float64))
                    counts[counts == 0.0] = np.nan
                    cumulative = np.cumsum(filled) / counts
                elif name == "MIN":
                    cumulative = np.minimum.accumulate(
                        np.where(np.isnan(ordered_values), np.inf, ordered_values)
                    )
                    cumulative[np.isinf(cumulative)] = np.nan
                elif name == "MAX":
                    cumulative = np.maximum.accumulate(
                        np.where(np.isnan(ordered_values), -np.inf, ordered_values)
                    )
                    cumulative[np.isinf(cumulative)] = np.nan
                else:
                    raise ExecutionError(f"unsupported window function {name}")
                if window.before_current:
                    # ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING: the
                    # running value one row back; the first row's frame is
                    # empty (COUNT 0, any other aggregate NULL).
                    shifted = np.full_like(cumulative, 0.0 if name == "COUNT" else np.nan)
                    shifted[1:] = cumulative[:-1]
                    cumulative = shifted
                out[ordered_global] = cumulative
            else:
                out[ordered_global] = aggregate_segments(
                    name, ordered_values, [0], [len(ordered_values)]
                )[0]
        return out

    def _execute_sort(self, node: SortNode, stats: ExecutionStats) -> Table:
        table = self._execute_node(node.child, stats)
        evaluator = ExpressionEvaluator(table)
        order = _sort_indices(evaluator, table, node.keys)
        result = table.take(order)
        stats.rows_sorted += table.num_rows
        stats.record(result.num_rows)
        return result

    def _execute_limit(self, node: LimitNode, stats: ExecutionStats) -> Table:
        table = self._execute_node(node.child, stats)
        offset = node.offset or 0
        result = table.slice(offset, node.limit)
        stats.record(result.num_rows)
        return result

    def _execute_distinct(self, node: DistinctNode, stats: ExecutionStats) -> Table:
        table = self._execute_node(node.child, stats)
        stats.rows_deduplicated += table.num_rows
        result = table.take(table.distinct_indices())
        stats.record(result.num_rows)
        return result


# --------------------------------------------------------------------------- #
# Rank and sort kernels
# --------------------------------------------------------------------------- #


def _rank_values(codes: list[np.ndarray], sort_order: np.ndarray) -> np.ndarray:
    """SQL ``RANK()`` of each sorted position: a new rank starts where the
    tuple of sort codes changes, so NULL keys (one code) are peers and,
    without sort keys, every row ranks 1."""
    n = len(sort_order)
    starts = np.zeros(n, dtype=bool)
    starts[:1] = True
    for key_codes in codes:
        ordered = key_codes[sort_order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    positions = np.where(starts, np.arange(1, n + 1, dtype=np.float64), 0.0)
    return np.maximum.accumulate(positions)


def _sort_indices(
    evaluator: ExpressionEvaluator, table: Table, keys: tuple[OrderItem, ...]
) -> np.ndarray:
    """Stable multi-key sort returning row indices."""
    if not keys:
        return np.arange(table.num_rows, dtype=np.int64)
    codes = [evaluator.column(key.expression).group_codes() for key in keys]
    return sort_codes(codes, [key.descending for key in keys])
