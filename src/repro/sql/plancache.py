"""The prepared-plan cache: SQL text → optimised logical plan.

One component, used by every backend that plans through the embedded
planner (the engine for execution, the sqlite backend for IVM
interception), holding two LRU levels of :data:`PLAN_CACHE_ENTRIES`
each under one lock:

* **exact** — whitespace-normalised SQL text → :class:`LogicalPlan`;
  a re-issued query skips tokenize → parse → plan → optimise entirely,
* **template** — literal-stripped token shape →
  :class:`~repro.sql.template.PlanTemplate`; a query that differs from
  an earlier one only in literal values (the next brush step) skips the
  parse and re-plans from the cloned statement.

Hits, misses and full parses are counted into the owning backend's
:class:`~repro.sql.engine.EngineMetrics`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from repro.sql.ast_nodes import SelectStatement
from repro.sql.optimizer import optimize_plan
from repro.sql.parser import parse_sql
from repro.sql.planner import LogicalPlan, build_logical_plan
from repro.sql.template import PlanTemplate, build_template, instantiate, template_shape

if TYPE_CHECKING:
    from repro.sql.engine import EngineMetrics

_MISSING = object()

#: Entry cap of each LRU level.
PLAN_CACHE_ENTRIES = 256


def normalize_sql(sql: str) -> str:
    """Collapse insignificant whitespace so equivalent query texts share a key.

    Whitespace inside quoted string literals (single- or double-quoted,
    both accepted by the tokenizer) is preserved; runs of whitespace
    elsewhere collapse to one space.  Used as the prepared-plan cache key
    so interactive clients re-issuing the same query with different
    formatting still hit the cache.
    """
    out: list[str] = []
    quote: str | None = None
    for ch in sql:
        if ch == quote:
            quote = None
            out.append(ch)
        elif quote is None and ch in ("'", '"'):
            quote = ch
            out.append(ch)
        elif quote is None and ch.isspace():
            if out and out[-1] != " ":
                out.append(" ")
        else:
            out.append(ch)
    return "".join(out).strip()


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
        (last insert wins).  Parse errors propagate and are not cached.
        """
        key = normalize_sql(sql)
        cached = self._lookup(self._plans, key)
        if cached is not _MISSING:
            self._metrics.add(plan_cache_hits=1)
            return cached
        self._metrics.add(plan_cache_misses=1)
        plan = optimize_plan(build_logical_plan(self._statement(sql)))
        self._store(self._plans, key, plan)
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
        shaped = template_shape(sql)
        if shaped is None:
            self._metrics.add(queries_parsed=1)
            return parse_sql(sql)
        shape_key, values = shaped
        template = self._lookup(self._templates, shape_key)
        if template is not _MISSING and template is not None:
            statement = instantiate(template, values)
            if statement is not None:
                self._metrics.add(plan_template_hits=1)
                return statement
        self._metrics.add(plan_template_misses=1, queries_parsed=1)
        statement = parse_sql(sql)
        if template is _MISSING:
            self._store(self._templates, shape_key, build_template(statement, values))
        return statement

    def clear(self) -> None:
        """Drop all cached plans and plan templates."""
        with self._lock:
            self._plans.clear()
            self._templates.clear()
