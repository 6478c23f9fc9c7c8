"""Vega expression language: parsing, evaluation, and SQL translation.

Vega transform parameters (filter predicates, formula expressions, signal
update expressions) are written in a JavaScript-like expression language,
e.g. ``datum.delay > 10 && datum.delay < 30``.  This package provides:

* :func:`parse_expression` — expression text → AST,
* :class:`Evaluator` — AST + datum/signal scope → value,
* :func:`to_sql` — AST → SQL text (used by the query rewriter), raising
  :class:`~repro.errors.ExpressionTranslationError` when no SQL equivalent
  exists so the rewriter can fall back to client-side execution.
"""

from repro.expr.parser import parse_expression
from repro.expr.evaluator import Evaluator
from repro.expr.to_sql import to_sql
from repro.expr.nodes import (
    ExprNode,
    NumberNode,
    StringNode,
    BooleanNode,
    NullNode,
    IdentifierNode,
    MemberNode,
    UnaryNode,
    BinaryNode,
    ConditionalNode,
    CallNode,
    referenced_signals,
)

__all__ = [
    "parse_expression",
    "Evaluator",
    "to_sql",
    "ExprNode",
    "NumberNode",
    "StringNode",
    "BooleanNode",
    "NullNode",
    "IdentifierNode",
    "MemberNode",
    "UnaryNode",
    "BinaryNode",
    "ConditionalNode",
    "CallNode",
    "referenced_signals",
]
