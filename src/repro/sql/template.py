"""Plan templates: parse once per query *shape*, substitute literals.

Interactive dashboards re-issue the same query text with only the brush
bounds changed — at 200k rows the IVM fast path is parse-dominated, so
the tokenizer/parser run per brush step costs more than answering the
query.  A plan template removes the parser from that loop:

1. the query is tokenized (cheap) and its **shape key** computed by
   replacing every NUMBER/STRING token with ``?``;
2. on a shape hit, the cached parsed statement is cloned with the new
   token literals substituted in source order — no parsing;
3. the cloned statement re-runs planning + optimization, so constant
   folding and filter pushdown still see the *actual* literals.

Safety: literal positions in the token stream must correspond 1:1, in
order, to substitutable ``Literal`` slots in the AST walk.  That holds
for the grammar's expression literals but **not** for every query — a
double-quoted string can be an alias, ``LIMIT``/``OFFSET`` consume
numbers outside expressions, ``+5`` folds the sign away.  Rather than
hard-code every exception, :func:`build_template` *verifies* the
correspondence when the template is built: the statement's collected
literal values must equal the token-derived values exactly (same order,
same types).  Shapes that fail verification are negatively cached and
always take the full parse path — so substitution is provably
value-faithful wherever it is used at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TokenizeError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    SubquerySource,
    TableSource,
    UnaryOp,
    WindowFunction,
)
from repro.sql.tokenizer import TokenType, tokenize


class TemplateMismatch(Exception):
    """Internal: token literals do not line up with the statement's slots."""


@dataclass(frozen=True)
class PlanTemplate:
    """A verified parsed statement reusable across literal values."""

    statement: SelectStatement
    n_literals: int


def _number_value(text: str) -> object:
    """Convert a NUMBER token exactly as the parser's ``_parse_primary``."""
    value = float(text)
    if value.is_integer() and "." not in text and "e" not in text.lower():
        return int(value)
    return value


def template_shape(sql: str) -> tuple[str, list[object]] | None:
    """Shape key (literals stripped to ``?``) + literal values, in order.

    Returns ``None`` when the text does not tokenize — such queries go
    straight to the parser, whose error message carries positions.
    """
    try:
        tokens = tokenize(sql)
    except TokenizeError:
        return None
    shape: list[str] = []
    values: list[object] = []
    for token in tokens:
        if token.ttype is TokenType.NUMBER:
            shape.append("?")
            values.append(_number_value(token.value))
        elif token.ttype is TokenType.STRING:
            shape.append("?")
            values.append(token.value)
        elif token.ttype is not TokenType.EOF:
            shape.append(token.value)
    return " ".join(shape), values


def _is_slot(value: object) -> bool:
    """Whether a ``Literal`` value is substitutable (came from a token).

    ``bool`` is excluded explicitly (it subclasses ``int`` but comes from
    the TRUE/FALSE keywords, which stay in the shape); ``None`` comes
    from the NULL keyword.
    """
    return isinstance(value, (int, float, str)) and not isinstance(value, bool)


class _Slots:
    """Cursor over the substitution values, with exhaustion checks."""

    def __init__(self, values: list[object]) -> None:
        self._values = values
        self._index = 0

    def next_value(self) -> object:
        if self._index >= len(self._values):
            raise TemplateMismatch("ran out of literal values")
        value = self._values[self._index]
        self._index += 1
        return value

    def exhausted(self) -> bool:
        return self._index == len(self._values)


def _map_expression(expr: Expression, slots: _Slots) -> Expression:
    """Clone ``expr`` substituting each literal slot in source order."""
    if isinstance(expr, Literal):
        if _is_slot(expr.value):
            value = slots.next_value()
            if not _is_slot(value):
                raise TemplateMismatch("non-literal value for literal slot")
            return Literal(value)
        return expr
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _map_expression(expr.operand, slots))
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _map_expression(expr.left, slots),
            _map_expression(expr.right, slots),
        )
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name,
            tuple(_map_expression(arg, slots) for arg in expr.args),
            distinct=expr.distinct,
            is_star=expr.is_star,
        )
    if isinstance(expr, WindowFunction):
        return WindowFunction(
            function=_map_expression(expr.function, slots),
            partition_by=tuple(_map_expression(e, slots) for e in expr.partition_by),
            order_by=tuple(
                OrderItem(_map_expression(o.expression, slots), o.descending)
                for o in expr.order_by
            ),
        )
    if isinstance(expr, CaseExpression):
        return CaseExpression(
            whens=tuple(
                (_map_expression(cond, slots), _map_expression(value, slots))
                for cond, value in expr.whens
            ),
            default=(
                _map_expression(expr.default, slots)
                if expr.default is not None
                else None
            ),
        )
    if isinstance(expr, InList):
        return InList(
            expr=_map_expression(expr.expr, slots),
            values=tuple(_map_expression(v, slots) for v in expr.values),
            negated=expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(expr=_map_expression(expr.expr, slots), negated=expr.negated)
    if isinstance(expr, Between):
        return Between(
            expr=_map_expression(expr.expr, slots),
            low=_map_expression(expr.low, slots),
            high=_map_expression(expr.high, slots),
            negated=expr.negated,
        )
    # Star and anything else literal-free.
    return expr


def _map_statement(stmt: SelectStatement, slots: _Slots) -> SelectStatement:
    """Clone ``stmt`` substituting literal slots in source (clause) order."""
    items = tuple(
        SelectItem(_map_expression(item.expression, slots), item.alias)
        for item in stmt.items
    )
    source = stmt.source
    if isinstance(source, SubquerySource):
        source = SubquerySource(_map_statement(source.query, slots), source.alias)
    elif isinstance(source, TableSource):
        source = TableSource(source.name, source.alias)
    where = _map_expression(stmt.where, slots) if stmt.where is not None else None
    group_by = tuple(_map_expression(e, slots) for e in stmt.group_by)
    having = _map_expression(stmt.having, slots) if stmt.having is not None else None
    order_by = tuple(
        OrderItem(_map_expression(o.expression, slots), o.descending)
        for o in stmt.order_by
    )
    limit = stmt.limit
    if limit is not None:
        limit = _clause_integer(slots.next_value(), "LIMIT")
    offset = stmt.offset
    if offset is not None:
        offset = _clause_integer(slots.next_value(), "OFFSET")
    return SelectStatement(
        items=items,
        source=source,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=limit,
        offset=offset,
        distinct=stmt.distinct,
        explain=stmt.explain,
    )


def _clause_integer(value: object, clause: str) -> int:
    """Replicate the parser's ``int(float(token))`` for LIMIT/OFFSET."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TemplateMismatch(f"{clause} slot got non-numeric value {value!r}")
    return int(float(value))


def collect_literal_values(stmt: SelectStatement) -> list[object]:
    """The statement's substitutable literal values in clause-walk order.

    Traverses nodes in exactly the order :func:`_map_statement` visits
    them, so collection and substitution can never disagree.
    """
    values: list[object] = []

    def walk_expr(expr: Expression) -> None:
        if isinstance(expr, Literal):
            if _is_slot(expr.value):
                values.append(expr.value)
            return
        if isinstance(expr, UnaryOp):
            walk_expr(expr.operand)
        elif isinstance(expr, BinaryOp):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, FunctionCall):
            for arg in expr.args:
                walk_expr(arg)
        elif isinstance(expr, WindowFunction):
            walk_expr(expr.function)
            for e in expr.partition_by:
                walk_expr(e)
            for o in expr.order_by:
                walk_expr(o.expression)
        elif isinstance(expr, CaseExpression):
            for cond, value in expr.whens:
                walk_expr(cond)
                walk_expr(value)
            if expr.default is not None:
                walk_expr(expr.default)
        elif isinstance(expr, InList):
            walk_expr(expr.expr)
            for v in expr.values:
                walk_expr(v)
        elif isinstance(expr, IsNull):
            walk_expr(expr.expr)
        elif isinstance(expr, Between):
            walk_expr(expr.expr)
            walk_expr(expr.low)
            walk_expr(expr.high)

    def walk_stmt(node: SelectStatement) -> None:
        for item in node.items:
            walk_expr(item.expression)
        if isinstance(node.source, SubquerySource):
            walk_stmt(node.source.query)
        if node.where is not None:
            walk_expr(node.where)
        for e in node.group_by:
            walk_expr(e)
        if node.having is not None:
            walk_expr(node.having)
        for o in node.order_by:
            walk_expr(o.expression)
        if node.limit is not None:
            values.append(node.limit)
        if node.offset is not None:
            values.append(node.offset)

    walk_stmt(stmt)
    return values


def _values_correspond(collected: list[object], tokens: list[object]) -> bool:
    """Strict order + type + value correspondence check."""
    if len(collected) != len(tokens):
        return False
    for a, b in zip(collected, tokens):
        if type(a) is not type(b) or a != b:
            return False
    return True


def build_template(
    stmt: SelectStatement, token_values: list[object]
) -> PlanTemplate | None:
    """Build a verified template, or ``None`` when the shape is unsafe.

    Unsafe means the statement's literal slots do not correspond 1:1 in
    order and value to the token stream's literals (string aliases,
    folded unary signs, truncated LIMIT floats...).  Callers negatively
    cache a ``None`` so the shape always parses from then on.
    """
    if not isinstance(stmt, SelectStatement):
        return None
    if not _values_correspond(collect_literal_values(stmt), token_values):
        return None
    return PlanTemplate(statement=stmt, n_literals=len(token_values))


def instantiate(template: PlanTemplate, values: list[object]) -> SelectStatement | None:
    """The template's statement with ``values`` substituted, or ``None``.

    ``None`` (value-count drift, a non-integer LIMIT...) sends the
    caller to the full parse path; it never produces a wrong statement.
    """
    if len(values) != template.n_literals:
        return None
    slots = _Slots(values)
    try:
        stmt = _map_statement(template.statement, slots)
    except TemplateMismatch:
        return None
    if not slots.exhausted():
        return None
    return stmt
