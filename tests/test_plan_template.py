"""Plan cache shape level: plan once per query shape, bind the values.

The headline contract is the parse-count pin: a crossfilter brush
sequence (same SQL text, different literal bounds each step) parses
exactly once, and every subsequent step binds its values into the
cached shape plan.  Everything else here guards the safety rails — a
literal the planner reads outside an expression (an alias, a LIMIT
count) stays in the shape key, and a shape that cannot be planned with
open slots is planned from each query's text: never a wrong plan.
"""

from __future__ import annotations

import pytest

from repro.backends import create_backend
from repro.sql import Database
from repro.sql.ast_nodes import children, map_children, walk_expression
from repro.sql.optimizer import optimize_plan
from repro.sql.parser import parse_sql
from repro.sql.planner import build_logical_plan
from repro.sql.plancache import prepare, token_shape
from repro.sql.tokenizer import PreparedSQL, tokenize


def _shape(sql: str) -> tuple[str, list[object]]:
    """The plan cache's shape key and slot values of raw ``sql``."""
    key, values, _slotted = token_shape(tokenize(sql))
    return key, values


def fresh_plan(sql: str):
    """The optimised plan of ``sql`` parsed from its text, no cache."""
    return optimize_plan(build_logical_plan(parse_sql(sql)))


@pytest.fixture()
def db() -> Database:
    database = Database(ivm=False)
    database.register_rows(
        "t",
        [{"g": "ab"[i % 2], "v": float(i), "w": float(i % 10)} for i in range(100)],
        column_order=["g", "v", "w"],
    )
    return database


def test_brush_sequence_parses_once(db):
    """20 brush steps over the same shape: one parse, 19 template hits."""
    for low in range(0, 60, 3):  # 20 distinct literal pairs
        rows = db.execute(
            f"SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t "
            f"WHERE v >= {low} AND v < {low + 40} GROUP BY g ORDER BY g"
        ).to_rows()
        assert rows  # the window always overlaps data
    snapshot = db.metrics.snapshot()
    assert snapshot["queries_parsed"] == 1.0
    assert snapshot["plan_template_hits"] == 19.0
    assert snapshot["plan_template_misses"] == 1.0
    # Every step was still a plan-cache miss (distinct literals, distinct
    # keys) — the template cache sits behind the exact-text LRU.
    assert snapshot["plan_cache_misses"] == 20.0


def test_sqlite_brush_sequence_parses_once():
    """The sqlite backend plans its IVM interception through the same
    :class:`PlanCache`: brush steps differing only in literals parse once
    (it used to re-parse every new literal), and the ``NULLS LAST`` the
    rewrite layer writes for both engines is read by the embedded parser."""
    backend = create_backend("sqlite")
    backend.register_rows(
        "t", [{"g": "ab"[i % 2], "v": float(i)} for i in range(100)], column_order=["g", "v"]
    )
    try:
        for low in range(0, 60, 3):  # 20 distinct literal pairs
            rows = backend.execute(
                f"SELECT g, COUNT(*) AS n FROM t WHERE v >= {low} AND v < {low + 40} "
                "GROUP BY g ORDER BY g NULLS LAST"
            ).to_rows()
            assert sum(row["n"] for row in rows) == min(low + 40, 100) - low
        stats = backend.stats()
        assert stats["queries_parsed"] == 1.0
        assert stats["plan_template_hits"] == 19.0
        assert stats["plan_cache_misses"] == 20.0
        # Text the embedded parser cannot read still runs on SQLite.
        assert backend.execute("SELECT COUNT(*) AS n FROM t WHERE v IS NOT 2").to_rows() == [{"n": 99}]
        backend.clear_plan_cache()
        backend.execute("SELECT g, COUNT(*) AS n FROM t WHERE v >= 1 AND v < 2 GROUP BY g").to_rows()
        assert backend.stats()["queries_parsed"] > stats["queries_parsed"]
    finally:
        backend.close()


def test_exact_repeat_hits_plan_cache_not_template(db):
    sql = "SELECT COUNT(*) AS n FROM t WHERE v > 10"
    db.execute(sql).to_rows()
    db.execute(sql).to_rows()
    snapshot = db.metrics.snapshot()
    assert snapshot["queries_parsed"] == 1.0
    assert snapshot["plan_cache_hits"] == 1.0
    assert snapshot["plan_template_hits"] == 0.0


def test_template_results_match_fresh_parse(db):
    """Template-instantiated plans return byte-identical rows to parsing."""
    uncached = Database(ivm=False)
    uncached.register_rows(
        "t",
        [{"g": "ab"[i % 2], "v": float(i), "w": float(i % 10)} for i in range(100)],
        column_order=["g", "v", "w"],
    )
    shapes = [
        "SELECT g, v FROM t WHERE v BETWEEN {lo} AND {hi} ORDER BY v LIMIT 5",
        "SELECT g, AVG(v) AS a FROM t WHERE w = {lo} GROUP BY g HAVING AVG(v) > {hi}",
        "SELECT DISTINCT g FROM t WHERE v > {lo} OR w < {hi}",
        "SELECT CASE WHEN v > {hi} THEN 'high' ELSE 'low' END AS bucket, "
        "COUNT(*) AS n FROM t WHERE v >= {lo} GROUP BY bucket",
        "SELECT g FROM t WHERE v IN ({lo}, {hi}, 42) ORDER BY g LIMIT 3 OFFSET 1",
        "SELECT -v AS neg FROM t WHERE v > -{lo} AND v < {hi} ORDER BY neg LIMIT 4",
    ]
    for shape in shapes:
        for lo, hi in ((1, 50), (7, 80), (3, 66)):
            sql = shape.format(lo=lo, hi=hi)
            uncached.clear_plan_cache()  # the reference parses every query fresh
            assert db.execute(sql).to_rows() == uncached.execute(sql).to_rows(), sql
    assert db.metrics.snapshot()["plan_template_hits"] > 0


def test_quoted_alias_stays_in_shape_key(db):
    """A double-quoted alias is a STRING token but not an expression: it
    keys the shape, and the WHERE literal is the slot."""
    first = db.execute('SELECT v + 1 AS "bumped" FROM t WHERE v < 3 ORDER BY v').to_rows()
    second = db.execute('SELECT v + 1 AS "bumped" FROM t WHERE v < 4 ORDER BY v').to_rows()
    other = db.execute('SELECT v + 1 AS "other" FROM t WHERE v < 3 ORDER BY v').to_rows()
    assert [row["bumped"] for row in first] == [1.0, 2.0, 3.0]
    assert [row["bumped"] for row in second] == [1.0, 2.0, 3.0, 4.0]
    assert [row["other"] for row in other] == [1.0, 2.0, 3.0]
    snapshot = db.metrics.snapshot()
    assert snapshot["plan_template_hits"] == 1.0
    assert snapshot["queries_parsed"] == 2.0


def test_limit_count_stays_in_shape_key(db):
    """LIMIT 5.5 truncates to 5 in the parser: the count keys the shape."""
    assert len(db.execute("SELECT v FROM t WHERE v > 1 ORDER BY v LIMIT 5.5").to_rows()) == 5
    assert len(db.execute("SELECT v FROM t WHERE v > 1 ORDER BY v LIMIT 6.5").to_rows()) == 6
    assert len(db.execute("SELECT v FROM t WHERE v > 2 ORDER BY v LIMIT 6.5").to_rows()) == 6
    snapshot = db.metrics.snapshot()
    assert snapshot["plan_template_hits"] == 1.0
    assert snapshot["queries_parsed"] == 2.0


def test_keyword_literals_stay_in_shape(db):
    """TRUE/FALSE/NULL are keywords, not slots: they key distinct shapes."""
    db.register_rows(
        "flags", [{"f": True, "v": 1.0}, {"f": False, "v": 2.0}], replace=True
    )
    on = db.execute("SELECT v FROM flags WHERE f = TRUE").to_rows()
    off = db.execute("SELECT v FROM flags WHERE f = FALSE").to_rows()
    assert on == [{"v": 1.0}] and off == [{"v": 2.0}]


def test_clear_plan_cache_drops_templates(db):
    db.execute("SELECT COUNT(*) AS n FROM t WHERE v > 5").to_rows()
    db.clear_plan_cache()
    db.execute("SELECT COUNT(*) AS n FROM t WHERE v > 6").to_rows()
    assert db.metrics.snapshot()["queries_parsed"] == 2.0


def test_plan_lexes_once_per_exact_level_miss(db, monkeypatch):
    """The one token list feeds the shape key, the literals and the parse."""
    import repro.sql.parser
    import repro.sql.plancache

    calls = []
    for module in (repro.sql.plancache, repro.sql.parser):
        lex = module.tokenize
        monkeypatch.setattr(
            module, "tokenize", lambda sql, lex=lex: calls.append(sql) or lex(sql)
        )

    def lexes(sql: str) -> int:
        before = len(calls)
        db.plan(sql)
        return len(calls) - before

    sql = "SELECT g, COUNT(*) AS n FROM t WHERE v >= {} GROUP BY g"
    aliased = 'SELECT g AS "k", COUNT(*) AS n FROM t WHERE v >= {} GROUP BY g'
    having = "SELECT g, COUNT(*) AS n FROM t WHERE v >= {} GROUP BY g HAVING COUNT(*) > 2"
    before = db.metrics.snapshot()
    assert lexes(sql.format(1)) == 1  # shape miss: parsed from the token list
    assert lexes(sql.format(1)) == 0  # exact-level hit
    assert lexes(sql.format(2)) == 1  # shape hit
    assert lexes(sql.format(2).replace(" ", "  ")) == 1  # whitespace variant
    assert lexes(aliased.format(1)) == 1  # the alias keys the shape
    assert lexes(aliased.format(2)) == 1  # ... and the shape hits
    assert lexes(having.format(1)) == 1  # HAVING literals key the shape too
    assert lexes(having.format(2)) == 1
    # A prepared query brings its shape: lexed once on the shape miss (to
    # parse it), never on a hit.
    shape = "SELECT g, COUNT(*) AS n FROM t WHERE v >= ? GROUP BY g"
    assert lexes(PreparedSQL(sql.format(3), shape, [3])) == 1
    assert lexes(PreparedSQL(sql.format(4), shape, [4])) == 0
    after = db.metrics.snapshot()
    assert after["plan_cache_hits"] - before["plan_cache_hits"] == 1
    assert after["plan_template_hits"] - before["plan_template_hits"] == 5
    assert after["queries_parsed"] - before["queries_parsed"] == 4


# --------------------------------------------------------------------------- #
# Unit level: shape extraction, shape plans, binding
# --------------------------------------------------------------------------- #


def test_template_shape_strips_literals():
    shape, values = _shape("SELECT a FROM t WHERE b > 5 AND c = 'x'")
    assert "?" in shape and "5" not in shape and "'x'" not in shape
    assert values == [5, "x"]
    same_shape, other_values = _shape("SELECT a FROM t WHERE b > 9 AND c = 'y'")
    assert same_shape == shape
    assert other_values == [9, "y"]


def test_build_and_instantiate_round_trip():
    """``prepare`` builds a shape's plan once; ``bind`` instantiates it per
    query, equal to the plan parsed from that query's text, and leaves the
    shared shape plan as it was."""
    text = "SELECT a, SUM(b) AS s FROM t WHERE b >= {} AND b < {} GROUP BY a LIMIT 3"
    shape, values = _shape(text.format(10, 20))
    prepared = prepare(shape)
    assert prepared is not None and prepared.slots == 2 == len(values)
    snapshot = repr(prepared.plan)
    assert prepared.bind([10, 20]) == fresh_plan(text.format(10, 20))
    assert prepared.bind([100, -200]) == fresh_plan(text.format(100, -200))
    assert repr(prepared.plan) == snapshot


def test_build_rejects_misaligned_shapes(db):
    """A slot where the grammar reads no expression (an alias, a LIMIT
    count) cannot be prepared; a query bringing such a shape is planned
    from its text, and so is a shape with a slot in HAVING."""
    assert prepare("SELECT a AS ? FROM t") is None
    assert prepare("SELECT a FROM t LIMIT ?") is None
    assert prepare("SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > ?") is None
    sql = "SELECT v FROM t WHERE v < 3 ORDER BY v LIMIT 2"
    rows = db.execute(PreparedSQL(sql, "SELECT v FROM t WHERE v < 3 ORDER BY v LIMIT ?", [2])).to_rows()
    assert rows == [{"v": 0.0}, {"v": 1.0}]
    snapshot = db.metrics.snapshot()
    assert snapshot["plan_template_hits"] == 0.0
    assert snapshot["queries_parsed"] == 2.0  # the shape, then the text


def test_select_slots_bind_unless_the_shape_has_having(db):
    """A slot may sit in a SELECT list, inside a window function too, and
    binds there like a WHERE slot; beside HAVING it is declined, because
    the planner matches HAVING terms to SELECT items by their text."""
    assert prepare("SELECT g, COUNT(*) AS n FROM t WHERE v > ? GROUP BY g HAVING COUNT(*) > 2")
    assert prepare("SELECT g, w * ? AS h, COUNT(*) AS n FROM t GROUP BY g, w HAVING w * 2 > 5") is None
    text = "SELECT v, SUM(v * {}) OVER (PARTITION BY g ORDER BY v) AS s FROM t WHERE v < 6 ORDER BY v"
    shape = text.format("?")
    for factor in (2, 3, 2.5):
        sql = text.format(factor)
        assert db.plan(PreparedSQL(sql, shape, [factor])) == fresh_plan(sql)
        running = [0, 1, 2, 4, 6, 9]  # per-g running sums of v = 0..5
        assert db.execute(PreparedSQL(sql, shape, [factor])).to_rows() == [
            {"v": float(v), "s": float(total * factor)} for v, total in enumerate(running)
        ]
    snapshot = db.metrics.snapshot()
    assert snapshot["queries_parsed"] == 1.0
    assert snapshot["plan_template_hits"] == 2.0  # bound for 3 and 2.5


def test_instantiate_rejects_wrong_value_count(db):
    """A value count that does not match the shape's slots is never bound:
    the query is planned from its text instead."""
    sql = "SELECT COUNT(*) AS n FROM t WHERE v > 5"
    shape = "SELECT COUNT(*) AS n FROM t WHERE v > ?"
    assert db.execute(PreparedSQL(sql, shape, [5])).to_rows() == [{"n": 94}]
    wrong = "SELECT COUNT(*) AS n FROM t WHERE v > 50"
    assert db.execute(PreparedSQL(wrong, shape, [50, 7])).to_rows() == [{"n": 49}]
    assert db.plan(PreparedSQL(wrong + " ", shape, [50, 7])) == fresh_plan(wrong)


def test_raw_question_mark_is_an_unbound_parameter(db):
    from repro.errors import ParseError

    with pytest.raises(ParseError, match="unbound parameter"):
        db.execute("SELECT v FROM t WHERE v > ?").to_rows()


# --------------------------------------------------------------------------- #
# The one child traversal
# --------------------------------------------------------------------------- #

#: One statement holding every expression node kind: CASE with ELSE, IN,
#: BETWEEN, IS NULL, unary minus, a window with PARTITION BY and ORDER
#: BY, a function call, a FROM sub-query, and LIMIT/OFFSET.
EVERY_NODE_SQL = (
    "SELECT CASE WHEN v > 1 THEN 'hi' WHEN v < -2 THEN 'lo' ELSE 'mid' END AS band, "
    "-v AS neg, ROUND(v * 2.5, 1) AS r, "
    "SUM(v + 3) OVER (PARTITION BY g || 'x' ORDER BY w - 4 DESC) AS running "
    "FROM (SELECT g, v, w FROM t WHERE w IN (5, 6.5, 'seven')) AS sub "
    "WHERE v BETWEEN -8 AND 9 AND g IS NOT NULL AND g <> 'z' "
    "ORDER BY r LIMIT 10 OFFSET 2"
)


def _every_expression(stmt):
    """Every top-level expression of ``stmt`` and its sub-query."""
    source = stmt.source
    inner = _every_expression(source.query) if hasattr(source, "query") else []
    exprs = [item.expression for item in stmt.items] + inner
    exprs += [stmt.where] + list(stmt.group_by) + [o.expression for o in stmt.order_by]
    return [expr for expr in exprs if expr is not None]


def test_children_are_what_map_children_visits():
    kinds = set()
    for top in _every_expression(parse_sql(EVERY_NODE_SQL)):
        for node in walk_expression(top):
            kinds.add(type(node).__name__)
            visited = []

            def record(child, visited=visited):
                visited.append(child)
                return child

            assert map_children(node, record) == node
            assert list(children(node)) == visited
    assert kinds >= {
        "CaseExpression", "InList", "Between", "IsNull", "UnaryOp", "BinaryOp",
        "WindowFunction", "FunctionCall", "Literal", "ColumnRef",
    }


def test_bind_matches_the_parse_of_the_substituted_text():
    """Every WHERE literal of a statement holding every node kind, bound
    with new values, gives the plan of the text with those values."""
    shape, values = _shape(EVERY_NODE_SQL)
    assert values == [5, 6.5, "seven", 8, 9, "z"]
    prepared = prepare(shape)
    assert prepared is not None
    replaced = [
        value + 100 if isinstance(value, (int, float)) else value + "!" for value in values
    ]
    text = EVERY_NODE_SQL
    for old, new in (
        ("(5, 6.5, 'seven')", "(105, 106.5, 'seven!')"),
        ("-8 AND 9", "-108 AND 109"),
        ("'z'", "'z!'"),
    ):
        text = text.replace(old, new)
    assert _shape(text) == (shape, replaced)
    assert prepared.bind(replaced) == fresh_plan(text)
    assert prepared.bind(values) == fresh_plan(EVERY_NODE_SQL)
