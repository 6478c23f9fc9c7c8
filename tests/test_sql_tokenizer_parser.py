"""Tests for the SQL tokenizer and parser."""

import pytest

from repro.errors import ParseError, TokenizeError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Star,
    SubquerySource,
    TableSource,
    WindowFunction,
    contains_aggregate,
    referenced_columns,
)
from repro.sql.parser import parse_sql
from repro.sql.tokenizer import TokenType, tokenize


# --------------------------------------------------------------------------- #
# Tokenizer
# --------------------------------------------------------------------------- #


def test_tokenize_basic_query():
    tokens = tokenize("SELECT a FROM t WHERE b >= 1.5")
    kinds = [t.ttype for t in tokens]
    assert kinds[-1] is TokenType.EOF
    values = [t.value for t in tokens[:-1]]
    assert values == ["SELECT", "a", "FROM", "t", "WHERE", "b", ">=", "1.5"]


def test_tokenize_string_with_escaped_quote():
    tokens = tokenize("SELECT 'it''s' FROM t")
    strings = [t for t in tokens if t.ttype is TokenType.STRING]
    assert strings[0].value == "it's"


def test_tokenize_scientific_number():
    tokens = tokenize("SELECT 1.5e-3 FROM t")
    numbers = [t for t in tokens if t.ttype is TokenType.NUMBER]
    assert numbers[0].value == "1.5e-3"


def test_tokenize_unterminated_string_raises():
    with pytest.raises(TokenizeError):
        tokenize("SELECT 'oops FROM t")


def test_tokenize_unexpected_character_raises():
    with pytest.raises(TokenizeError) as excinfo:
        tokenize("SELECT a ? b FROM t")
    assert excinfo.value.position is not None


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #


def test_parse_select_star():
    stmt = parse_sql("SELECT * FROM flights")
    assert isinstance(stmt.items[0].expression, Star)
    assert isinstance(stmt.source, TableSource)
    assert stmt.source.name == "flights"


def test_parse_aliases_and_group_order_limit():
    stmt = parse_sql(
        "SELECT carrier, COUNT(*) AS n FROM flights "
        "GROUP BY carrier ORDER BY n DESC LIMIT 10 OFFSET 2"
    )
    assert stmt.items[1].alias == "n"
    assert stmt.group_by == (ColumnRef("carrier"),)
    assert stmt.order_by[0].descending is True
    assert stmt.limit == 10
    assert stmt.offset == 2


def test_parse_where_precedence_and_or():
    stmt = parse_sql("SELECT a FROM t WHERE a > 1 AND b < 2 OR c = 3")
    assert isinstance(stmt.where, BinaryOp)
    assert stmt.where.op == "OR"
    assert stmt.where.left.op == "AND"


def test_parse_arithmetic_precedence():
    stmt = parse_sql("SELECT a + b * 2 FROM t")
    expr = stmt.items[0].expression
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_parse_in_between_isnull_like():
    stmt = parse_sql(
        "SELECT a FROM t WHERE a IN (1, 2) AND b BETWEEN 0 AND 5 "
        "AND c IS NOT NULL AND d LIKE 'x%'"
    )
    found = list(_flatten_conjunction(stmt.where))
    assert any(isinstance(e, InList) for e in found)
    assert any(isinstance(e, Between) for e in found)
    assert any(isinstance(e, IsNull) and e.negated for e in found)


def test_parse_not_in():
    stmt = parse_sql("SELECT a FROM t WHERE a NOT IN (1, 2)")
    assert isinstance(stmt.where, InList)
    assert stmt.where.negated


def test_parse_case_expression():
    stmt = parse_sql("SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END AS label FROM t")
    expr = stmt.items[0].expression
    assert isinstance(expr, CaseExpression)
    assert expr.default == Literal("small")


def test_parse_subquery_source():
    stmt = parse_sql("SELECT a FROM (SELECT a FROM t WHERE a > 1) AS sub")
    assert isinstance(stmt.source, SubquerySource)
    assert stmt.source.alias == "sub"
    assert stmt.source.query.where is not None


def test_parse_window_function():
    stmt = parse_sql("SELECT SUM(x) OVER (PARTITION BY g ORDER BY y) AS total FROM t")
    expr = stmt.items[0].expression
    assert isinstance(expr, WindowFunction)
    assert expr.partition_by == (ColumnRef("g"),)
    assert expr.order_by[0].expression == ColumnRef("y")


def test_parse_count_distinct_and_star():
    stmt = parse_sql("SELECT COUNT(DISTINCT a), COUNT(*) FROM t")
    first = stmt.items[0].expression
    second = stmt.items[1].expression
    assert isinstance(first, FunctionCall) and first.distinct
    assert isinstance(second, FunctionCall) and second.is_star


def test_parse_cast():
    stmt = parse_sql("SELECT CAST(a AS FLOAT) FROM t")
    expr = stmt.items[0].expression
    assert isinstance(expr, FunctionCall)
    assert expr.name == "CAST_FLOAT"


def test_parse_qualified_column():
    stmt = parse_sql("SELECT t.a FROM flights AS t")
    expr = stmt.items[0].expression
    assert expr == ColumnRef("a", table="t")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_sql("SELECT FROM t")
    with pytest.raises(ParseError):
        parse_sql("SELECT a FROM t WHERE")
    with pytest.raises(ParseError):
        parse_sql("SELECT a FROM t GROUP a")
    with pytest.raises(ParseError):
        parse_sql("SELECT a FROM t LIMIT x")
    with pytest.raises(ParseError):
        parse_sql("SELECT a FROM t extra garbage ,")


def test_statement_round_trips_through_str():
    sql = "SELECT carrier, COUNT(*) AS n FROM flights WHERE delay > 10 GROUP BY carrier"
    stmt = parse_sql(sql)
    reparsed = parse_sql(str(stmt))
    assert str(reparsed) == str(stmt)


def test_ast_helpers():
    stmt = parse_sql("SELECT SUM(a + b) FROM t WHERE c > 1")
    assert contains_aggregate(stmt.items[0].expression)
    assert referenced_columns(stmt.items[0].expression) == {"a", "b"}
    assert not contains_aggregate(stmt.where)


def _flatten_conjunction(expr):
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        yield from _flatten_conjunction(expr.left)
        yield from _flatten_conjunction(expr.right)
    else:
        yield expr
