"""Plan templates: parse once per query *shape*, substitute literals.

Interactive dashboards re-issue the same query text with only the brush
bounds changed — at 200k rows the IVM fast path is parse-dominated, so
the tokenizer/parser run per brush step costs more than answering the
query.  A plan template removes the parser from that loop:

1. the query's **shape key** is computed from the plan cache's one token
   list of it (:func:`token_shape`) by replacing every NUMBER/STRING
   token with ``?``; the literal values are the ones the lexer converted,
   the same values the parser puts in ``Literal`` nodes;
2. on a shape hit, the cached parsed statement is cloned with the new
   token literals substituted in source order — no parsing; on a miss
   the same token list is parsed, so the text is lexed once either way;
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

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import TokenizeError
from repro.sql.ast_nodes import (
    Expression,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    SubquerySource,
    map_children,
)
from repro.sql.tokenizer import Token, TokenType, tokenize


class TemplateMismatch(Exception):
    """Internal: token literals do not line up with the statement's slots."""


@dataclass(frozen=True)
class PlanTemplate:
    """A verified parsed statement reusable across literal values."""

    statement: SelectStatement
    n_literals: int


def token_shape(tokens: list[Token]) -> tuple[str, list[object]]:
    """Shape key (literals stripped to ``?``) + literal values, in order.

    The key joins token texts with single spaces, so two texts that differ
    only in whitespace between tokens share it.
    """
    shape: list[str] = []
    values: list[object] = []
    for token in tokens:
        if token.ttype is TokenType.NUMBER:
            shape.append("?")
            values.append(token.number)
        elif token.ttype is TokenType.STRING:
            shape.append("?")
            values.append(token.value)
        elif token.ttype is not TokenType.EOF:
            shape.append(token.value)
    return " ".join(shape), values


def template_shape(sql: str) -> tuple[str, list[object]] | None:
    """:func:`token_shape` of SQL text, or ``None`` when it does not tokenize."""
    try:
        return token_shape(tokenize(sql))
    except TokenizeError:
        return None


def _is_slot(value: object) -> bool:
    """Whether a ``Literal`` value is substitutable (came from a token).

    ``bool`` is excluded explicitly (it subclasses ``int`` but comes from
    the TRUE/FALSE keywords, which stay in the shape); ``None`` comes
    from the NULL keyword.
    """
    return isinstance(value, (int, float, str)) and not isinstance(value, bool)


def _clause_integer(value: object, clause: str) -> int:
    """Replicate the parser's ``int(token.number)`` for LIMIT/OFFSET."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TemplateMismatch(f"{clause} slot got non-numeric value {value!r}")
    return int(value)


def _map_literals(stmt: SelectStatement, fn: Callable[[object], object]) -> SelectStatement:
    """``stmt`` rebuilt with ``fn`` applied to every literal slot.

    Slots are visited in clause order — the SELECT list, the FROM
    sub-query, WHERE, GROUP BY, HAVING, ORDER BY, then LIMIT and OFFSET
    — and, within an expression, in source order.  Collection and
    substitution are both this one walk, so they cannot disagree.
    """

    def expression(expr: Expression) -> Expression:
        if isinstance(expr, Literal):
            return Literal(fn(expr.value)) if _is_slot(expr.value) else expr
        return map_children(expr, expression)

    def optional(expr: Expression | None) -> Expression | None:
        return None if expr is None else expression(expr)

    def clause(value: int | None, name: str) -> int | None:
        return None if value is None else _clause_integer(fn(value), name)

    source = stmt.source
    return SelectStatement(
        items=tuple(SelectItem(expression(i.expression), i.alias) for i in stmt.items),
        source=(
            SubquerySource(_map_literals(source.query, fn), source.alias)
            if isinstance(source, SubquerySource)
            else source
        ),
        where=optional(stmt.where),
        group_by=tuple(expression(e) for e in stmt.group_by),
        having=optional(stmt.having),
        order_by=tuple(OrderItem(expression(o.expression), o.descending) for o in stmt.order_by),
        limit=clause(stmt.limit, "LIMIT"),
        offset=clause(stmt.offset, "OFFSET"),
        distinct=stmt.distinct,
    )


def collect_literal_values(stmt: SelectStatement) -> list[object]:
    """The statement's substitutable literal values in clause-walk order."""
    values: list[object] = []

    def record(value: object) -> object:
        values.append(value)
        return value

    _map_literals(stmt, record)
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
    slots = iter(values)
    try:
        return _map_literals(template.statement, lambda _old: next(slots))
    except TemplateMismatch:
        return None
