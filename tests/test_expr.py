"""Tests for the Vega expression language: parsing, evaluation, SQL translation."""

import re

import pytest

from repro.errors import ExpressionError, ExpressionParseError, ExpressionTranslationError
from repro.expr import (
    BinaryNode,
    ConditionalNode,
    Evaluator,
    parse_expression,
    referenced_signals,
    to_sql,
)
from repro.expr.to_sql import compiles

from helpers import evaluate


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #


def test_parse_member_access_and_comparison():
    node = parse_expression("datum.delay > 10")
    assert isinstance(node, BinaryNode)
    assert node.op == ">"
    assert (node.left.obj.name, node.left.member) == ("datum", "delay")


def test_parse_bracket_member_access():
    node = parse_expression("datum['air time'] >= 5")
    assert (node.left.obj.name, node.left.member) == ("datum", "air time")


def test_parse_logical_precedence():
    node = parse_expression("a && b || c")
    assert node.op == "||"
    assert node.left.op == "&&"


def test_parse_arithmetic_precedence():
    node = parse_expression("1 + 2 * 3")
    assert evaluate(node) == 7


def test_parse_conditional():
    node = parse_expression("datum.x > 0 ? 'pos' : 'neg'")
    assert isinstance(node, ConditionalNode)
    assert evaluate(node, {"x": 3}) == "pos"
    assert evaluate(node, {"x": -1}) == "neg"


def test_parse_strict_equality_normalised():
    node = parse_expression("datum.a === 3")
    assert node.op == "=="


def test_parse_function_call_and_signals():
    node = parse_expression("abs(datum.delay) > threshold")
    assert referenced_signals(node) == {"threshold"}
    assert node.left.args[0].member == "delay"


def test_parse_errors():
    with pytest.raises(ExpressionParseError):
        parse_expression("datum.delay >")
    with pytest.raises(ExpressionParseError):
        parse_expression("'unterminated")
    with pytest.raises(ExpressionParseError):
        parse_expression("")
    with pytest.raises(ExpressionParseError):
        parse_expression("a ? b")
    with pytest.raises(ExpressionParseError):
        parse_expression("(a + b")


@pytest.mark.parametrize(
    ("text", "number", "position"),
    [("1e", "1e", 0), ("datum.x > 1e+", "1e+", 10), ("2 * .5E-", ".5E-", 4)],
)
def test_malformed_number_is_a_positioned_parse_error(text, number, position):
    message = f"malformed number {number!r} at position {position}"
    with pytest.raises(ExpressionParseError, match=re.escape(message)):
        parse_expression(text)


def test_number_literals_take_the_lexer_value():
    node = parse_expression("datum.x * 1.5e-3 + 2")
    assert node.left.right.value == 0.0015
    assert node.right.value == 2.0


def test_parse_is_memoised_on_the_source_string_but_errors_are_not(monkeypatch):
    from repro.expr import parser

    parser._parse.cache_clear()
    runs = []
    tokenize = parser.tokenize_expression
    monkeypatch.setattr(
        parser, "tokenize_expression", lambda text: runs.append(text) or tokenize(text)
    )
    first = parse_expression("datum.delay > lo && datum.delay < hi")
    assert parse_expression("datum.delay > lo && datum.delay < hi") is first
    assert parse_expression("datum.delay > lo") is not first
    assert len(runs) == 2
    for _ in range(2):
        with pytest.raises(ExpressionParseError):
            parse_expression("datum.delay >")
    assert runs.count("datum.delay >") == 2
    with pytest.raises(ExpressionParseError):
        parse_expression(["datum.delay"])
    assert parser._parse.cache_info().maxsize is not None


# --------------------------------------------------------------------------- #
# Evaluation
# --------------------------------------------------------------------------- #


def test_evaluate_filter_expression_from_paper():
    expr = "datum.delay > 10 && datum.delay < 30"
    assert evaluate(expr, {"delay": 20}) is True
    assert evaluate(expr, {"delay": 35}) is False
    assert evaluate(expr, {"delay": None}) is False


def test_evaluate_signals():
    assert evaluate("datum.v >= lo && datum.v <= hi", {"v": 5}, {"lo": 1, "hi": 10}) is True
    assert evaluate("datum.v >= lo && datum.v <= hi", {"v": 50}, {"lo": 1, "hi": 10}) is False


def test_evaluate_unknown_signal_raises():
    with pytest.raises(ExpressionError):
        evaluate("missing_signal > 1", {})


def test_evaluate_equality_is_loose():
    assert evaluate("datum.a == '3'", {"a": 3}) is True
    assert evaluate("datum.a == 'x'", {"a": 3}) is False
    assert evaluate("datum.a == null", {"a": None}) is True


def test_evaluate_arithmetic_with_nulls():
    assert evaluate("datum.a + 1", {"a": None}) is None
    assert evaluate("datum.a / 0", {"a": 4}) is None


def test_evaluate_string_concatenation():
    assert evaluate("datum.a + '!'", {"a": "hi"}) == "hi!"


def test_evaluate_math_functions():
    assert evaluate("floor(3.7)") == 3
    assert evaluate("ceil(3.2)") == 4
    assert evaluate("abs(0 - 5)") == 5
    assert evaluate("sqrt(16)") == 4
    assert evaluate("pow(2, 10)") == 1024
    assert evaluate("min(3, 1, 2)") == 1
    assert evaluate("max(3, 1, 2)") == 3
    assert evaluate("round(2.5)") == 2  # Python banker's rounding


def test_evaluate_isvalid_and_if():
    assert evaluate("isValid(datum.x)", {"x": 1}) is True
    assert evaluate("isValid(datum.x)", {"x": None}) is False
    assert evaluate("if(datum.x > 0, 'yes', 'no')", {"x": 2}) == "yes"


def test_evaluate_string_functions():
    assert evaluate("upper(datum.s)", {"s": "abc"}) == "ABC"
    assert evaluate("lower(datum.s)", {"s": "ABC"}) == "abc"
    assert evaluate("length(datum.s)", {"s": "abcd"}) == 4


def test_evaluate_negation_and_not():
    assert evaluate("!(datum.x > 0)", {"x": 5}) is False
    assert evaluate("-datum.x", {"x": 5}) == -5


def test_evaluate_unknown_function_raises():
    with pytest.raises(ExpressionError):
        evaluate("frobnicate(1)")


def test_evaluator_reuse_across_data():
    evaluator = Evaluator(signals={"lo": 10})
    ast = parse_expression("datum.v > lo")
    assert evaluator.evaluate(ast, {"v": 20}) is True
    assert evaluator.evaluate(ast, {"v": 5}) is False


# --------------------------------------------------------------------------- #
# SQL translation
# --------------------------------------------------------------------------- #


def test_to_sql_paper_example():
    sql = to_sql("datum.delay > 10 && datum.delay < 30")
    assert sql == "((delay > 10) AND (delay < 30))"


def test_to_sql_inlines_signal_values():
    sql = to_sql("datum.v >= lo && datum.v <= hi", {"lo": 1.5, "hi": 9})
    assert "1.5" in sql and "9" in sql


def test_to_sql_string_literal_escaped():
    sql = to_sql("datum.name == \"O'Hare\"")
    assert "O''Hare" in sql


def test_to_sql_null_comparison_becomes_is_null():
    assert to_sql("datum.x == null") == "x IS NULL"
    assert to_sql("datum.x != null") == "x IS NOT NULL"


def test_to_sql_isvalid_and_conditional():
    assert to_sql("isValid(datum.x)") == "x IS NOT NULL"
    sql = to_sql("datum.x > 0 ? 1 : 0")
    assert sql.startswith("CASE WHEN")


def test_to_sql_functions():
    assert to_sql("abs(datum.x)") == "ABS(x)"
    assert to_sql("floor(datum.x / 10)") == "FLOOR((x / 10))"


def test_to_sql_unbound_signal_fails():
    with pytest.raises(ExpressionTranslationError):
        to_sql("datum.v > threshold")


def test_to_sql_untranslatable_function_fails():
    with pytest.raises(ExpressionTranslationError):
        to_sql("year(datum.date) == 1999")
    assert compiles("datum.delay > 10")


def test_to_sql_round_trip_matches_evaluator(flights_db, flights_rows):
    """The translated predicate must select the same rows as the evaluator."""
    expr = "datum.delay > 10 && datum.distance < 2000"
    client_side = [
        r for r in flights_rows if evaluate(expr, r) is True
    ]
    server_side = flights_db.execute(f"SELECT * FROM flights WHERE {to_sql(expr)}").to_rows()
    assert len(client_side) == len(server_side)
