"""The prepared-plan cache: SQL text → optimised logical plan.

One component, used by every backend that plans through the embedded
planner (the engine for execution, the sqlite backend for IVM
interception), holding two LRU levels of :data:`PLAN_CACHE_ENTRIES`
each under one lock:

* **exact** — the raw SQL text → :class:`LogicalPlan`; a re-issued
  query skips tokenize → parse → plan → optimise entirely (one dict
  lookup),
* **template** — literal-stripped token shape →
  :class:`~repro.sql.template.PlanTemplate`; a query that differs from
  an earlier one only in literal values (the next brush step) or in the
  whitespace between tokens skips the parse and re-plans from the cloned
  statement.

An exact-level miss lexes the text once: that one token list gives the
shape key, the literal values and, on a template miss, the parse.

Hits, misses and full parses are counted into the owning backend's
:class:`~repro.sql.engine.EngineMetrics`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from repro.sql.ast_nodes import SelectStatement
from repro.sql.optimizer import optimize_plan
from repro.sql.parser import parse_tokens
from repro.sql.planner import LogicalPlan, build_logical_plan
from repro.sql.template import PlanTemplate, build_template, instantiate, token_shape
from repro.sql.tokenizer import tokenize

if TYPE_CHECKING:
    from repro.sql.engine import EngineMetrics

_MISSING = object()

#: Entry cap of each LRU level.
PLAN_CACHE_ENTRIES = 256


class PlanCache:
    """Two-level LRU of prepared plans (see the module docstring);
    ``metrics`` receives the hit/miss/parse counts."""

    def __init__(self, metrics: EngineMetrics) -> None:
        self._metrics = metrics
        self._plans: OrderedDict[str, LogicalPlan] = OrderedDict()
        self._templates: OrderedDict[str, PlanTemplate | None] = OrderedDict()
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
        (last insert wins).  Tokenize and parse errors propagate and are
        not cached.
        """
        cached = self._lookup(self._plans, sql)
        if cached is not _MISSING:
            self._metrics.add(plan_cache_hits=1)
            return cached
        self._metrics.add(plan_cache_misses=1)
        plan = optimize_plan(build_logical_plan(self._statement(sql)))
        self._store(self._plans, sql, plan)
        return plan

    def _statement(self, sql: str) -> SelectStatement:
        """The parsed statement for ``sql``, via the template level.

        Repeated interactive queries differ only in literal values (brush
        bounds), so on an exact-level miss the previously-parsed statement
        of the same literal-stripped shape is cloned with this query's
        literals substituted (:mod:`repro.sql.template`).  Shapes whose
        token literals don't line up 1:1 with AST literal slots are
        negatively cached at build time, so substitution is only ever
        used where it is provably value-faithful.  Planning and
        optimisation still run per query — constant folding and pushdown
        see the real literals.
        """
        tokens = tokenize(sql)
        shape_key, values = token_shape(tokens)
        template = self._lookup(self._templates, shape_key)
        if template is not _MISSING and template is not None:
            statement = instantiate(template, values)
            if statement is not None:
                self._metrics.add(plan_template_hits=1)
                return statement
        self._metrics.add(plan_template_misses=1, queries_parsed=1)
        statement = parse_tokens(tokens, sql)
        if template is _MISSING:
            self._store(self._templates, shape_key, build_template(statement, values))
        return statement

    def clear(self) -> None:
        """Drop all cached plans and plan templates."""
        with self._lock:
            self._plans.clear()
            self._templates.clear()
