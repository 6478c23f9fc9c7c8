"""Translation of Vega expressions to SQL predicates and expressions.

Section 4 of the paper describes parsing the filter expression string into
an AST and generating a SQL WHERE clause, noting that when an equivalent
SQL predicate is not found, VegaPlus falls back to native execution in
Vega.  :func:`to_sql` raises :class:`ExpressionTranslationError` in that
case; :func:`compiles` asks it before any signal is bound, so the plan
enumerator offers the server only expressions it can render.

The SQL comes back as a :class:`~repro.sql.tokenizer.PreparedSQL`: each
inlined signal value is a slot of its shape, so the engine plans the
shape once and binds later values without reading the text.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping

from repro.errors import ExpressionError, ExpressionTranslationError
from repro.expr.nodes import (
    BinaryNode,
    BooleanNode,
    CallNode,
    ConditionalNode,
    ExprNode,
    IdentifierNode,
    MemberNode,
    NullNode,
    NumberNode,
    StringNode,
    UnaryNode,
)
from repro.expr.evaluator import _to_number
from repro.expr.parser import parse_expression
from repro.sql.tokenizer import PreparedSQL, literal_shape

#: Vega expression functions with a direct SQL scalar-function equivalent.
_FUNCTION_MAP = {
    "abs": "ABS",
    "ceil": "CEIL",
    "floor": "FLOOR",
    "round": "ROUND",
    "sqrt": "SQRT",
    "log": "LN",
    "ln": "LN",
    "exp": "EXP",
    "pow": "POWER",
    "upper": "UPPER",
    "lower": "LOWER",
    "length": "LENGTH",
}

#: Binary operators that map one-to-one onto SQL.
_BINARY_MAP = {
    "&&": "AND",
    "||": "OR",
    "==": "=",
    "!=": "<>",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "%": "%",
}


def _format_value(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        if float(value).is_integer():
            return str(int(value))
        return repr(float(value))
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


#: One piece of compiled SQL: constant text, or the signal ``(name,
#: member)`` whose current value is inlined there (``member`` is ``None``
#: for a bare signal reference).
_Part = str | tuple[str, str | None]


def to_sql(
    expression: ExprNode | str,
    signals: Mapping[str, object] | None = None,
) -> PreparedSQL:
    """Translate a Vega expression into SQL text.

    ``datum.<field>`` becomes a bare column reference; signal references
    are substituted with their current values from ``signals`` (the
    rewriter re-translates when signals change, so values are inlined).
    The text is a :class:`~repro.sql.tokenizer.PreparedSQL` whose slots are
    those signal values: text and shape come from one pass over the
    expression's compiled pieces (compiled once per expression string).

    Raises
    ------
    ExpressionTranslationError
        If the expression uses a construct with no SQL equivalent.
    """
    if isinstance(expression, str):
        parts = _compiled(expression)
    else:
        parts = _merge(_translate(expression))
    signals = signals or {}
    texts: list[str] = []
    shapes: list[str] = []
    values: list[object] = []
    for part in parts:
        if type(part) is str:
            texts.append(part)
            shapes.append(part)
            continue
        text = _format_value(_signal_value(part, signals))
        texts.append(text)
        shapes.append(literal_shape(text, values))
    return PreparedSQL("".join(texts), "".join(shapes), values)


def compiles(expression: object) -> bool:
    """Whether an expression string has an SQL form once its signals are
    bound: its memoised compile succeeds.  The plan enumerator asks this
    before it offers a plan whose SQL holds the expression."""
    if not isinstance(expression, str):
        return False
    try:
        _compiled(expression)
    except ExpressionError:
        return False
    return True


@functools.lru_cache(maxsize=1024)
def _compiled(expression: str) -> tuple[_Part, ...]:
    """The compiled pieces of an expression string, memoised (as its parse
    is): a dashboard re-translates the same filters every interaction."""
    return _merge(_translate(parse_expression(expression)))


def _merge(parts: list[_Part]) -> tuple[_Part, ...]:
    """``parts`` with adjacent constant text joined."""
    merged: list[_Part] = []
    for part in parts:
        if type(part) is str and merged and type(merged[-1]) is str:
            merged[-1] += part
        else:
            merged.append(part)
    return tuple(merged)


def _signal_value(part: tuple[str, str | None], signals: Mapping[str, object]) -> object:
    name, member = part
    if name not in signals:
        if member is None:
            raise ExpressionTranslationError(
                f"signal {name!r} has no bound value at rewrite time"
            )
        raise ExpressionTranslationError(
            f"member access {name}.{member} cannot be translated to SQL"
        )
    value = signals[name]
    if member is None:
        return value
    if isinstance(value, Mapping) and member in value:
        return value[member]
    raise ExpressionTranslationError(f"signal member {name}.{member} is not available")


def _translate(node: ExprNode) -> list[_Part]:
    if isinstance(node, (NumberNode, StringNode, BooleanNode)):
        return [_format_value(node.value)]
    if isinstance(node, NullNode):
        return ["NULL"]
    if isinstance(node, IdentifierNode):
        if node.name == "datum":
            raise ExpressionTranslationError(
                "bare 'datum' reference has no SQL equivalent"
            )
        return [(node.name, None)]
    if isinstance(node, MemberNode):
        if isinstance(node.obj, IdentifierNode) and node.obj.name == "datum":
            return [_quote_column(node.member)]
        if isinstance(node.obj, IdentifierNode):
            return [(node.obj.name, node.member)]
        raise ExpressionTranslationError(
            f"member access {node} cannot be translated to SQL"
        )
    if isinstance(node, UnaryNode):
        inner = _translate(node.operand)
        if node.op == "!":
            # The client's ``!`` makes a NULL or otherwise falsy operand
            # true, where SQL's ``NOT UNKNOWN`` would drop the row.
            return ["CASE WHEN ", *inner, " THEN FALSE ELSE TRUE END"]
        if node.op == "-":
            return ["-(", *inner, ")"]
        raise ExpressionTranslationError(f"unary operator {node.op!r} not supported in SQL")
    if isinstance(node, BinaryNode):
        return _translate_binary(node)
    if isinstance(node, ConditionalNode):
        return _case(node.test, node.consequent, node.alternate)
    if isinstance(node, CallNode):
        return _translate_call(node)
    raise ExpressionTranslationError(f"cannot translate expression node {node!r}")


def _case(test: ExprNode, consequent: ExprNode, alternate: ExprNode) -> list[_Part]:
    return [
        "CASE WHEN ", *_translate(test),
        " THEN ", *_translate(consequent),
        " ELSE ", *_translate(alternate), " END",
    ]


def _is_null(operand: ExprNode, negated: bool) -> list[_Part]:
    return [*_translate(operand), f" IS {'NOT ' if negated else ''}NULL"]


#: Expression nodes whose value is never NULL.
_CONSTANTS = (NumberNode, StringNode, BooleanNode)


def _translate_binary(node: BinaryNode) -> list[_Part]:
    strings = [
        operand.value for operand in (node.left, node.right) if isinstance(operand, StringNode)
    ]
    # The client's ``+`` concatenates when a string takes part, where
    # SQL's adds numbers.
    if node.op == "+" and strings:
        raise ExpressionTranslationError("'+' with a string operand has no SQL equivalent")
    if node.op in ("==", "!="):
        # The client's loose equality compares a numeric string as the
        # number it reads as (``0 == '0'``); SQL compares it as text.
        if any(_to_number(value) is not None for value in strings):
            raise ExpressionTranslationError(
                f"{node.op!r} against a numeric string has no SQL equivalent"
            )
        # Equality against null becomes IS NULL / IS NOT NULL.
        if isinstance(node.right, NullNode):
            return _is_null(node.left, node.op == "!=")
        if isinstance(node.left, NullNode):
            return _is_null(node.right, node.op == "!=")
    if node.op == "!=":
        return _not_equal(node.left, node.right)
    try:
        sql_op = _BINARY_MAP[node.op]
    except KeyError as exc:
        raise ExpressionTranslationError(
            f"operator {node.op!r} has no SQL equivalent"
        ) from exc
    return ["(", *_translate(node.left), f" {sql_op} ", *_translate(node.right), ")"]


def _not_equal(left: ExprNode, right: ExprNode) -> list[_Part]:
    """The client's ``null != 0`` is true, where SQL's ``NULL <> 0`` is
    UNKNOWN: against a constant, a NULL operand keeps the row.  Between
    two operands that may both be NULL it is declined, as ``null != null``
    is false."""
    if isinstance(right, _CONSTANTS):
        operand = left
    elif isinstance(left, _CONSTANTS):
        operand = right
    else:
        raise ExpressionTranslationError(
            "'!=' between two operands that may be null has no SQL equivalent"
        )
    return [
        "(", *_translate(left), " <> ", *_translate(right),
        " OR ", *_translate(operand), " IS NULL)",
    ]


def _translate_call(node: CallNode) -> list[_Part]:
    name = node.name.lower()
    if name == "isvalid":
        if len(node.args) != 1:
            raise ExpressionTranslationError("isValid() requires one argument")
        return _is_null(node.args[0], True)
    if name == "if":
        if len(node.args) != 3:
            raise ExpressionTranslationError("if() requires three arguments")
        return _case(*node.args)
    if name in ("min", "max"):
        raise ExpressionTranslationError(
            f"{node.name}() over per-row arguments has no portable SQL equivalent"
        )
    if name in ("year", "month", "week", "day", "hours", "minutes", "seconds", "time"):
        raise ExpressionTranslationError(
            f"date function {node.name}() is handled by the timeunit rewrite, "
            "not by expression translation"
        )
    try:
        sql_name = _FUNCTION_MAP[name]
    except KeyError as exc:
        raise ExpressionTranslationError(
            f"function {node.name!r} has no SQL equivalent"
        ) from exc
    parts: list[_Part] = [f"{sql_name}("]
    for index, arg in enumerate(node.args):
        parts += [", "] if index else []
        parts += _translate(arg)
    return [*parts, ")"]


def _quote_column(name: str) -> str:
    """Column references in generated SQL.

    The SQL engine accepts bare identifiers; names that are not valid
    identifiers cannot be produced by the benchmark schemas, so reject them
    loudly instead of silently generating broken SQL.
    """
    if not name.isidentifier():
        raise ExpressionTranslationError(
            f"field name {name!r} is not a valid SQL identifier"
        )
    return name
