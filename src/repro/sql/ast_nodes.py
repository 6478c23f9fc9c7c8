"""Abstract syntax tree for the supported SQL subset.

Expression nodes are shared between the SELECT list, WHERE/HAVING
predicates, GROUP BY and ORDER BY keys.  Statement-level nodes describe one
``SELECT`` query (possibly with a nested sub-query in its FROM clause).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Union

# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Literal:
    """A constant value: number, string, boolean or NULL (``None``)."""

    value: object

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)


@dataclass(frozen=True)
class Parameter:
    """The ``index``-th ``?`` slot of a prepared statement's shape.

    Only the plan cache's shape-level plans hold one; binding replaces it
    with the :class:`Literal` of the slot's value before execution.
    """

    index: int


@dataclass(frozen=True)
class ColumnRef:
    """Reference to a column, optionally qualified with a table alias."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Star:
    """The ``*`` projection item."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class UnaryOp:
    """Unary operator application (``NOT x``, ``-x``)."""

    op: str
    operand: "Expression"

    def __str__(self) -> str:
        if self.op.upper() == "NOT":
            return f"NOT ({self.operand})"
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class BinaryOp:
    """Binary operator application (arithmetic, comparison, AND/OR)."""

    op: str
    left: "Expression"
    right: "Expression"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class FunctionCall:
    """Scalar or aggregate function call.

    ``distinct`` only applies to aggregates (``COUNT(DISTINCT x)``).
    """

    name: str
    args: tuple["Expression", ...] = ()
    distinct: bool = False
    is_star: bool = False

    def __str__(self) -> str:
        if self.is_star:
            return f"{self.name}(*)"
        inner = ", ".join(str(a) for a in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass(frozen=True)
class WindowFunction:
    """A window function: ``func(args) OVER (PARTITION BY ... ORDER BY ...)``.

    With ORDER BY an aggregate runs over the frame ``ROWS UNBOUNDED
    PRECEDING``, or, when ``before_current`` is set, ``ROWS BETWEEN
    UNBOUNDED PRECEDING AND 1 PRECEDING``: the rows before the current one.
    """

    function: FunctionCall
    partition_by: tuple["Expression", ...] = ()
    order_by: tuple["OrderItem", ...] = ()
    before_current: bool = False

    def __str__(self) -> str:
        parts = []
        if self.partition_by:
            parts.append("PARTITION BY " + ", ".join(str(e) for e in self.partition_by))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(str(o) for o in self.order_by))
        if self.before_current:
            parts.append("ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING")
        return f"{self.function} OVER ({' '.join(parts)})"


@dataclass(frozen=True)
class CaseExpression:
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    whens: tuple[tuple["Expression", "Expression"], ...]
    default: "Expression | None" = None

    def __str__(self) -> str:
        parts = ["CASE"]
        for cond, value in self.whens:
            parts.append(f"WHEN {cond} THEN {value}")
        if self.default is not None:
            parts.append(f"ELSE {self.default}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class InList:
    """``expr [NOT] IN (v1, v2, ...)``."""

    expr: "Expression"
    values: tuple["Expression", ...]
    negated: bool = False

    def __str__(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        inner = ", ".join(str(v) for v in self.values)
        return f"{self.expr} {op} ({inner})"


@dataclass(frozen=True)
class IsNull:
    """``expr IS [NOT] NULL``."""

    expr: "Expression"
    negated: bool = False

    def __str__(self) -> str:
        return f"{self.expr} IS {'NOT ' if self.negated else ''}NULL"


@dataclass(frozen=True)
class Between:
    """``expr [NOT] BETWEEN low AND high``."""

    expr: "Expression"
    low: "Expression"
    high: "Expression"
    negated: bool = False

    def __str__(self) -> str:
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"{self.expr} {op} {self.low} AND {self.high}"


Expression = Union[
    Literal,
    Parameter,
    ColumnRef,
    Star,
    UnaryOp,
    BinaryOp,
    FunctionCall,
    WindowFunction,
    CaseExpression,
    InList,
    IsNull,
    Between,
]


# --------------------------------------------------------------------------- #
# Statement structure
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SelectItem:
    """One item of the SELECT list with an optional alias."""

    expression: Expression
    alias: str | None = None

    def output_name(self, index: int) -> str:
        """Column name this item produces in the result."""
        if self.alias:
            return self.alias
        if isinstance(self.expression, ColumnRef):
            return self.expression.name
        return f"col{index}"

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expression} AS {self.alias}"
        return str(self.expression)


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.expression} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class TableSource:
    """FROM clause entry naming a registered table."""

    name: str
    alias: str | None = None

    def __str__(self) -> str:
        if self.alias:
            return f"{self.name} AS {self.alias}"
        return self.name


@dataclass(frozen=True)
class SubquerySource:
    """FROM clause entry wrapping a nested SELECT."""

    query: "SelectStatement"
    alias: str | None = None

    def __str__(self) -> str:
        inner = str(self.query)
        if self.alias:
            return f"({inner}) AS {self.alias}"
        return f"({inner})"


Source = Union[TableSource, SubquerySource]


@dataclass(frozen=True)
class SelectStatement:
    """A parsed SELECT statement."""

    items: tuple[SelectItem, ...]
    source: Source
    where: Expression | None = None
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False

    def __str__(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(str(i) for i in self.items))
        parts.append(f"FROM {self.source}")
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(e) for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(str(o) for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


# --------------------------------------------------------------------------- #
# Tree utilities
# --------------------------------------------------------------------------- #


#: Nodes without sub-expressions.
_LEAVES = (Literal, Parameter, ColumnRef, Star)


def children(expr: Expression) -> tuple[Expression, ...]:
    """The direct sub-expressions of ``expr``, in source order.

    The same nodes, in the same order, that :func:`map_children` passes
    to its ``fn``.
    """
    if isinstance(expr, _LEAVES):
        return ()
    if isinstance(expr, BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, FunctionCall):
        return expr.args
    if isinstance(expr, UnaryOp):
        return (expr.operand,)
    if isinstance(expr, CaseExpression):
        parts = sum(expr.whens, ())
        return parts if expr.default is None else (*parts, expr.default)
    if isinstance(expr, InList):
        return (expr.expr, *expr.values)
    if isinstance(expr, IsNull):
        return (expr.expr,)
    if isinstance(expr, Between):
        return (expr.expr, expr.low, expr.high)
    if isinstance(expr, WindowFunction):
        return (
            expr.function,
            *expr.partition_by,
            *(item.expression for item in expr.order_by),
        )
    raise TypeError(f"not an expression node: {expr!r}")


def map_children(expr: Expression, fn: Callable[[Expression], Expression]) -> Expression:
    """``expr`` rebuilt with ``fn`` applied to each direct sub-expression.

    ``fn`` is called in source order (the order :func:`children` lists);
    leaves are returned as they are.
    """
    if isinstance(expr, _LEAVES):
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name, tuple(fn(arg) for arg in expr.args), expr.distinct, expr.is_star
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, fn(expr.operand))
    if isinstance(expr, CaseExpression):
        whens = tuple((fn(cond), fn(value)) for cond, value in expr.whens)
        return CaseExpression(whens, None if expr.default is None else fn(expr.default))
    if isinstance(expr, InList):
        return InList(fn(expr.expr), tuple(fn(value) for value in expr.values), expr.negated)
    if isinstance(expr, IsNull):
        return IsNull(fn(expr.expr), expr.negated)
    if isinstance(expr, Between):
        return Between(fn(expr.expr), fn(expr.low), fn(expr.high), expr.negated)
    if isinstance(expr, WindowFunction):
        return WindowFunction(
            fn(expr.function),
            tuple(fn(part) for part in expr.partition_by),
            tuple(OrderItem(fn(item.expression), item.descending) for item in expr.order_by),
            expr.before_current,
        )
    raise TypeError(f"not an expression node: {expr!r}")


def walk_expression(expr: Expression):
    """Yield ``expr`` and all of its sub-expressions, depth first."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def referenced_columns(expr: Expression) -> set[str]:
    """Column names referenced anywhere inside ``expr``."""
    return {
        node.name for node in walk_expression(expr) if isinstance(node, ColumnRef)
    }


#: Aggregate function names recognised by the planner.
AGGREGATE_FUNCTIONS = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "STDDEV", "VARIANCE"}
)


def contains_aggregate(expr: Expression) -> bool:
    """Whether ``expr`` contains an aggregate function call (not inside OVER)."""
    if isinstance(expr, WindowFunction):
        return False
    if isinstance(expr, FunctionCall) and expr.name.upper() in AGGREGATE_FUNCTIONS:
        return True
    for child in children(expr):
        if contains_aggregate(child):
            return True
    return False


def contains_window(expr: Expression) -> bool:
    """Whether ``expr`` contains a window function."""
    return any(isinstance(node, WindowFunction) for node in walk_expression(expr))
