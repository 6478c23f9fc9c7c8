"""The prepared-plan cache: SQL → optimised logical plan.

One component, used by every backend that plans through the embedded
planner (the engine for execution, the sqlite backend for IVM
interception), holding two LRU levels of :data:`PLAN_CACHE_ENTRIES`
each under one lock:

* **exact** — the SQL text → its bound :class:`LogicalPlan`; a re-issued
  query is one dict lookup,
* **shape** — a query's shape (its text with a ``?`` slot in place of
  each value) → the :class:`PreparedPlan` of that shape: its optimised
  plan, planned once, with a :class:`~repro.sql.ast_nodes.Parameter` per
  slot.  A query that differs from an earlier one only in its values (the
  next brush step) or in the whitespace between tokens is one lookup plus
  :meth:`PreparedPlan.bind`: the slots become literals and the
  expressions that held one are folded again, so zone-map pruning and
  IVM see ``column op literal`` exactly as in a plan parsed from the text.

A shape comes with the rewriter's :class:`~repro.sql.tokenizer.PreparedSQL`
(its slots are the inlined signal values; it is lexed only when its shape
is new, to parse the shape), or from raw text, lexed once per exact-level
miss, by :func:`token_shape`, whose WHERE literals become the slots.  One
placement rule holds for both (:func:`prepare`): a slot sits in a WHERE
clause, or in a SELECT list of a shape without HAVING — the planner
matches SELECT items, GROUP BY keys and HAVING terms to each other by
their text, which an open slot changes.  A shape that breaks the rule or
does not plan with open slots is cached as such (``None``), and its
queries are parsed from their text.

Hits, misses and parses are counted into the owning backend's
:attr:`~repro.sql.engine.SQLBackend.metrics`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import ParseError, ReproError
from repro.metrics import Counters
from repro.sql.ast_nodes import Expression, Literal, Parameter, map_children, walk_expression
from repro.sql.optimizer import fold_node, map_expressions, optimize_plan
from repro.sql.parser import parse_tokens
from repro.sql.planner import LogicalPlan, PlanNode, build_logical_plan
from repro.sql.tokenizer import PreparedSQL, Token, TokenType, tokenize

_MISSING = object()

#: Entry cap of each LRU level.
PLAN_CACHE_ENTRIES = 256


class PlanCache:
    """Two-level LRU of prepared plans (see the module docstring);
    ``metrics`` receives the hit/miss/parse counts."""

    def __init__(self, metrics: Counters) -> None:
        self._metrics = metrics
        self._plans: OrderedDict[str, LogicalPlan] = OrderedDict()
        self._shapes: OrderedDict[str, PreparedPlan | None] = OrderedDict()
        self._lock = threading.Lock()

    def _lookup(self, cache: OrderedDict, key: str) -> Any:
        """``cache[key]`` refreshed to most-recent, or ``_MISSING``."""
        with self._lock:
            value = cache.get(key, _MISSING)
            if value is not _MISSING:
                cache.move_to_end(key)
            return value

    def _store(self, cache: OrderedDict, key: str, value: object) -> None:
        with self._lock:
            cache[key] = value
            cache.move_to_end(key)
            while len(cache) > PLAN_CACHE_ENTRIES:
                cache.popitem(last=False)

    def plan(self, sql: str) -> LogicalPlan:
        """Parse and optimise ``sql``, memoising the result.

        Plans resolve table names at execution time, so catalog changes
        never invalidate cached entries.  Compilation of a missed plan
        happens *outside* the lock — two threads racing on the same new
        query may both compile it, which is wasted work but never wrong
        (last insert wins).  Tokenize and parse errors of the text
        propagate and are not cached.
        """
        cached = self._lookup(self._plans, sql)
        if cached is not _MISSING:
            self._metrics.add(plan_cache_hits=1)
            return cached
        self._metrics.add(plan_cache_misses=1)
        plan = self._shape_plan(sql)
        self._store(self._plans, sql, plan)
        return plan

    def _shape_plan(self, sql: str) -> LogicalPlan:
        """The plan of ``sql`` through the shape level."""
        tokens = slotted = None
        if type(sql) is PreparedSQL:
            key, values = sql.shape, sql.values
        else:
            tokens = tokenize(sql)
            key, values, slotted = token_shape(tokens)
        prepared = self._lookup(self._shapes, key)
        hit = prepared is not _MISSING
        if not hit:
            self._metrics.add(queries_parsed=1)
            prepared = prepare(key, slotted)
            self._store(self._shapes, key, prepared)
        if prepared is not None and prepared.slots == len(values):
            self._metrics.add(**{"plan_template_hits" if hit else "plan_template_misses": 1})
            return prepared.bind(values)
        self._metrics.add(plan_template_misses=1, queries_parsed=1)
        tokens = tokenize(sql) if tokens is None else tokens
        return optimize_plan(build_logical_plan(parse_tokens(tokens, sql)))

    def clear(self) -> None:
        """Drop all cached plans and shape plans."""
        with self._lock:
            self._plans.clear()
            self._shapes.clear()


#: Keywords that start a clause.
_CLAUSES = frozenset({"SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET"})


def _clauses(tokens: list[Token]) -> list[str | None]:
    """The clause each token sits in; a parenthesised sub-query has its
    own clauses."""
    clause = None
    outer: list[str | None] = []
    clauses: list[str | None] = []
    for token in tokens:
        ttype = token.ttype
        if ttype is TokenType.KEYWORD and token.value in _CLAUSES:
            clause = token.value
        elif ttype is TokenType.PUNCTUATION:
            if token.value == "(":
                outer.append(clause)
            elif token.value == ")" and outer:
                clause = outer.pop()
        clauses.append(clause)
    return clauses


def token_shape(tokens: list[Token]) -> tuple[str, list[object], list[Token]]:
    """Shape key, slot values and slotted token list of lexed raw text.

    The literals of every WHERE clause become slots; every other literal
    stays in the key.  The key joins token texts with single spaces, so
    two texts that differ only in whitespace between tokens share it.  A
    ``?`` in raw text has no value and raises :class:`ParseError`.
    """
    shape: list[str] = []
    values: list[object] = []
    slotted: list[Token] = []
    for token, clause in zip(tokens, _clauses(tokens)):
        ttype = token.ttype
        if clause == "WHERE" and (ttype is TokenType.NUMBER or ttype is TokenType.STRING):
            shape.append("?")
            values.append(token.number if ttype is TokenType.NUMBER else token.value)
            slotted.append(Token(TokenType.PARAMETER, "?", token.position))
            continue
        if ttype is TokenType.PARAMETER:
            raise ParseError(f"unbound parameter '?' at position {token.position}")
        if ttype is TokenType.STRING:
            shape.append("'" + token.value.replace("'", "''") + "'")
        elif ttype is not TokenType.EOF:
            shape.append(token.value)
        slotted.append(token)
    return " ".join(shape), values, slotted


@dataclass(frozen=True)
class PreparedPlan:
    """The optimised plan of one shape, with a ``Parameter`` per slot.

    Shared by every query of the shape and never modified: :meth:`bind`
    rebuilds the expressions whose ids are in ``held`` (those holding a
    slot) and shares the rest.
    """

    plan: LogicalPlan
    slots: int
    held: frozenset[int]

    def bind(self, values: Sequence[object]) -> LogicalPlan:
        """The plan with slot ``i`` read as the literal ``values[i]``,
        folded again as the optimizer folds: the optimised plan of the text."""

        def bound(expr: Expression) -> Expression:
            if isinstance(expr, Parameter):
                return Literal(values[expr.index])
            return fold_node(map_children(expr, bound))

        held = self.held
        return LogicalPlan(
            map_expressions(self.plan.root, lambda expr: bound(expr) if id(expr) in held else expr)
        )


def prepare(shape: str, tokens: list[Token] | None = None) -> PreparedPlan | None:
    """The :class:`PreparedPlan` of a shape (lexed here unless ``tokens``
    are given), or ``None`` when a slot breaks the placement rule (see the
    module docstring) or the shape does not parse or plan with open slots
    (a ``?`` as a LIMIT count or an alias).  Its queries are planned from
    their text, which reports any real error."""
    try:
        tokens = tokenize(shape) if tokens is None else tokens
        clauses = _clauses(tokens)
        placed = {clause for token, clause in zip(tokens, clauses) if token.ttype is TokenType.PARAMETER}
        if placed - {"WHERE"} and (placed - {"SELECT", "WHERE"} or "HAVING" in clauses):
            return None
        plan = optimize_plan(build_logical_plan(parse_tokens(tokens, shape)))
    except ReproError:
        return None
    slots = sum(token.ttype is TokenType.PARAMETER for token in tokens)
    return PreparedPlan(plan, slots, _held(plan.root))


def _held(root: PlanNode) -> frozenset[int]:
    """Ids of the expressions :func:`map_expressions` visits under ``root``
    that hold a slot."""
    held: set[int] = set()

    def visit(expr: Expression) -> Expression:
        if any(isinstance(node, Parameter) for node in walk_expression(expr)):
            held.add(id(expr))
        return expr

    map_expressions(root, visit)
    return frozenset(held)
