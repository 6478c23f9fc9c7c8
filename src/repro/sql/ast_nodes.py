"""Abstract syntax tree for the supported SQL subset.

Expression nodes are shared between the SELECT list, WHERE/HAVING
predicates, GROUP BY and ORDER BY keys.  Statement-level nodes describe one
``SELECT`` query (possibly with a nested sub-query in its FROM clause).
"""

from __future__ import annotations

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
    """A window function: ``func(args) OVER (PARTITION BY ... ORDER BY ...)``."""

    function: FunctionCall
    partition_by: tuple["Expression", ...] = ()
    order_by: tuple["OrderItem", ...] = ()

    def __str__(self) -> str:
        parts = []
        if self.partition_by:
            parts.append("PARTITION BY " + ", ".join(str(e) for e in self.partition_by))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(str(o) for o in self.order_by))
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


def walk_expression(expr: Expression):
    """Yield ``expr`` and all of its sub-expressions, depth first."""
    yield expr
    if isinstance(expr, UnaryOp):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, BinaryOp):
        yield from walk_expression(expr.left)
        yield from walk_expression(expr.right)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from walk_expression(arg)
    elif isinstance(expr, WindowFunction):
        yield from walk_expression(expr.function)
        for part in expr.partition_by:
            yield from walk_expression(part)
        for item in expr.order_by:
            yield from walk_expression(item.expression)
    elif isinstance(expr, CaseExpression):
        for cond, value in expr.whens:
            yield from walk_expression(cond)
            yield from walk_expression(value)
        if expr.default is not None:
            yield from walk_expression(expr.default)
    elif isinstance(expr, InList):
        yield from walk_expression(expr.expr)
        for value in expr.values:
            yield from walk_expression(value)
    elif isinstance(expr, IsNull):
        yield from walk_expression(expr.expr)
    elif isinstance(expr, Between):
        yield from walk_expression(expr.expr)
        yield from walk_expression(expr.low)
        yield from walk_expression(expr.high)


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
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, FunctionCall):
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, CaseExpression):
        for cond, value in expr.whens:
            if contains_aggregate(cond) or contains_aggregate(value):
                return True
        return expr.default is not None and contains_aggregate(expr.default)
    if isinstance(expr, InList):
        return contains_aggregate(expr.expr)
    if isinstance(expr, (IsNull,)):
        return contains_aggregate(expr.expr)
    if isinstance(expr, Between):
        return any(contains_aggregate(e) for e in (expr.expr, expr.low, expr.high))
    return False


def contains_window(expr: Expression) -> bool:
    """Whether ``expr`` contains a window function."""
    return any(isinstance(node, WindowFunction) for node in walk_expression(expr))
