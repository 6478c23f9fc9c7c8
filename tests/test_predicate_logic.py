"""Three-valued logic differential: random predicate trees under NULL.

Hypothesis draws predicate trees — AND, OR, NOT, comparisons, [NOT]
BETWEEN, [NOT] IN, IS [NOT] NULL and [NOT] LIKE — over nullable numeric
columns ``v`` / ``u`` and a nullable string column ``s``.  Comparisons
put a literal on either side, and the literal may be NULL, TRUE / FALSE
or, against a numeric column, string text.  Every tree runs

* in WHERE, on the embedded engine over a flat and a partitioned copy of
  the table and on sqlite, whose rows must be ``==``;
* as a projected value (``SELECT (pred) AS p``), on the same three, whose
  values must also match a pure-Python Kleene oracle (TRUE 1, FALSE 0,
  UNKNOWN NULL);
* as a static conjunct beside an IVM brush, with IVM on and off.

WHERE clauses of 2–8 top-level conjuncts, each a leaf or a tree, run
the same WHERE differential: the executor evaluates those conjunct by
conjunct, with scalar operands.
"""

from __future__ import annotations

import functools
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import create_backend
from repro.sql import Database

NUMBERS = (-1.0, 0.0, 0.5, 1.0, 2.0)
STRINGS = ("a", "b", "ab", "B")
#: LIKE patterns over ``s``: LIKE is case-sensitive on both backends.
STRING_PATTERNS = ("a%", "%b", "_", "a_", "%", "B%", "%a%")
#: LIKE patterns over a numeric column that match the same rows however a
#: backend renders a number as text; ``n%`` / ``%a%`` would match the
#: text 'nan' if a numeric NULL were not UNKNOWN.
NUMBER_PATTERNS = ("%", "_%", "n%", "%a%")

COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

Row = dict[str, object]
Truth = bool | None


# --------------------------------------------------------------------------- #
# The Kleene oracle
# --------------------------------------------------------------------------- #


def kleene_and(left: Truth, right: Truth) -> Truth:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def kleene_or(left: Truth, right: Truth) -> Truth:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def kleene_not(value: Truth) -> Truth:
    return None if value is None else not value


def compare(op: str, left: object, right: object) -> Truth:
    if left is None or right is None:
        return None
    if isinstance(left, str) != isinstance(right, str):
        # A number sorts before any text; no drawn string looks numeric.
        left, right = isinstance(left, str), isinstance(right, str)
    return COMPARISONS[op](left, right)


def like(value: object, pattern: str) -> Truth:
    if value is None:
        return None
    regex = "".join(
        ".*" if char == "%" else "." if char == "_" else re.escape(char) for char in pattern
    )
    return re.fullmatch(regex, str(value), flags=re.DOTALL) is not None


def test_oracle_truth_tables():
    """The oracle itself: SQL's AND / OR / NOT tables over TRUE, FALSE, NULL."""
    values = (True, False, None)
    assert [[kleene_and(a, b) for b in values] for a in values] == [
        [True, False, None],
        [False, False, False],
        [None, False, None],
    ]
    assert [[kleene_or(a, b) for b in values] for a in values] == [
        [True, True, True],
        [True, False, None],
        [True, None, None],
    ]
    assert [kleene_not(a) for a in values] == [False, True, None]


# --------------------------------------------------------------------------- #
# Predicate trees
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Predicate:
    """One predicate tree: its SQL text and its oracle over a row."""

    sql: str
    truth: Callable[[Row], Truth]

    def __repr__(self) -> str:
        return self.sql


def _literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def _negated(negate: bool, predicate: Predicate) -> Predicate:
    if not negate:
        return predicate
    return Predicate(predicate.sql, lambda row: kleene_not(predicate.truth(row)))


numbers = st.one_of(st.none(), st.sampled_from(NUMBERS))
strings = st.one_of(st.none(), st.sampled_from(STRINGS))
#: What a numeric column is compared with: mostly a number or NULL, else
#: TRUE (1), FALSE (0) or string text.
numeric_operands = st.one_of(numbers, numbers, numbers, st.booleans(), st.sampled_from(STRINGS))
comparison_ops = st.sampled_from(sorted(COMPARISONS))


@st.composite
def numeric_comparisons(draw) -> Predicate:
    if draw(st.booleans()):
        return draw(scalar_comparisons())
    column = draw(st.sampled_from(("v", "u")))
    op = draw(comparison_ops)
    other = "u" if column == "v" else "v"
    return Predicate(f"{column} {op} {other}", lambda row: compare(op, row[column], row[other]))


@st.composite
def scalar_comparisons(draw) -> Predicate:
    """A numeric column against a literal, the literal on either side."""
    column = draw(st.sampled_from(("v", "u")))
    return _scalar(column, draw(comparison_ops), draw(numeric_operands), draw(st.booleans()))


def _scalar(column: str, op: str, value: object, literal_first: bool) -> Predicate:
    if literal_first:
        return Predicate(
            f"{_literal(value)} {op} {column}", lambda row: compare(op, value, row[column])
        )
    return Predicate(f"{column} {op} {_literal(value)}", lambda row: compare(op, row[column], value))


@st.composite
def string_comparisons(draw) -> Predicate:
    op = draw(comparison_ops)
    value = draw(strings)
    if draw(st.booleans()):
        return Predicate(f"{_literal(value)} {op} s", lambda row: compare(op, value, row["s"]))
    return Predicate(f"s {op} {_literal(value)}", lambda row: compare(op, row["s"], value))


@st.composite
def betweens(draw) -> Predicate:
    column = draw(st.sampled_from(("v", "u")))
    low, high = draw(numbers), draw(numbers)
    negate = draw(st.booleans())
    keyword = "NOT BETWEEN" if negate else "BETWEEN"

    def truth(row: Row) -> Truth:
        value = row[column]
        return kleene_and(compare(">=", value, low), compare("<=", value, high))

    return _negated(
        negate, Predicate(f"{column} {keyword} {_literal(low)} AND {_literal(high)}", truth)
    )


@st.composite
def in_lists(draw) -> Predicate:
    column, values = draw(st.sampled_from((("v", numbers), ("u", numbers), ("s", strings))))
    candidates = draw(st.lists(values, min_size=1, max_size=3))
    negate = draw(st.booleans())
    keyword = "NOT IN" if negate else "IN"

    def truth(row: Row) -> Truth:
        result: Truth = False
        for candidate in candidates:
            result = kleene_or(result, compare("=", row[column], candidate))
        return result

    rendered = ", ".join(map(_literal, candidates))
    return _negated(negate, Predicate(f"{column} {keyword} ({rendered})", truth))


@st.composite
def null_tests(draw) -> Predicate:
    column = draw(st.sampled_from(("v", "u", "s")))
    negate = draw(st.booleans())
    keyword = "IS NOT NULL" if negate else "IS NULL"
    return Predicate(
        f"{column} {keyword}", lambda row: (row[column] is None) != negate
    )


@st.composite
def likes(draw) -> Predicate:
    column, patterns = draw(
        st.sampled_from((("s", STRING_PATTERNS), ("v", NUMBER_PATTERNS), ("u", NUMBER_PATTERNS)))
    )
    pattern = draw(st.sampled_from(patterns))
    negate = draw(st.booleans())
    keyword = "NOT LIKE" if negate else "LIKE"
    return _negated(
        negate,
        Predicate(f"{column} {keyword} '{pattern}'", lambda row: like(row[column], pattern)),
    )


def _combine(children: st.SearchStrategy[Predicate]) -> st.SearchStrategy[Predicate]:
    def conjunction(pair: tuple[Predicate, Predicate]) -> Predicate:
        left, right = pair
        return Predicate(
            f"({left.sql}) AND ({right.sql})",
            lambda row: kleene_and(left.truth(row), right.truth(row)),
        )

    def disjunction(pair: tuple[Predicate, Predicate]) -> Predicate:
        left, right = pair
        return Predicate(
            f"({left.sql}) OR ({right.sql})",
            lambda row: kleene_or(left.truth(row), right.truth(row)),
        )

    def negation(child: Predicate) -> Predicate:
        return Predicate(f"NOT ({child.sql})", lambda row: kleene_not(child.truth(row)))

    pairs = st.tuples(children, children)
    return st.one_of(pairs.map(conjunction), pairs.map(disjunction), children.map(negation))


leaves = st.one_of(
    numeric_comparisons(), string_comparisons(), betweens(), in_lists(), null_tests(), likes()
)
predicates = st.recursive(leaves, _combine, max_leaves=6)


def _conjunction(parts: list[Predicate]) -> Predicate:
    return Predicate(
        " AND ".join(f"({part.sql})" for part in parts),
        lambda row: functools.reduce(kleene_and, (part.truth(row) for part in parts)),
    )


#: WHERE clauses of 2–8 top-level conjuncts, mostly scalar comparisons.
conjunctions = st.lists(
    st.one_of(scalar_comparisons(), scalar_comparisons(), scalar_comparisons(), leaves, predicates),
    min_size=2,
    max_size=8,
).map(_conjunction)

rows_strategy = st.lists(
    st.fixed_dictionaries({"v": numbers, "u": numbers, "s": strings}), min_size=1, max_size=12
)


# --------------------------------------------------------------------------- #
# The differential
# --------------------------------------------------------------------------- #

COLUMNS = ["i", "b", "k", "v", "u", "s"]


def _table(rows: list[Row]) -> list[Row]:
    """The drawn rows with a unique row id ``i``, a brush column ``b`` and
    a NULL-free group key ``k``."""
    return [
        {"i": float(i), "b": float(i % 4), "k": "xy"[i % 2], **row} for i, row in enumerate(rows)
    ]


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, predicate=predicates)
def test_predicates_identical_across_backends_and_oracle(rows, predicate):
    _assert_identical_across_backends_and_oracle(rows, predicate)


@settings(max_examples=150, deadline=None)
@given(rows=rows_strategy, predicate=conjunctions)
@example(
    # A NULL ``v`` must not pass ``v <> 1.0``, and ``0.5 < u`` is ``u > 0.5``
    # (not ``u >= 0.5``): the second row sits on that edge.
    rows=[
        {"v": None, "u": 2.0, "s": "a"},
        {"v": 2.0, "u": 0.5, "s": "a"},
        {"v": 0.5, "u": 1.0, "s": None},
        {"v": 1.0, "u": 2.0, "s": "b"},
    ],
    predicate=_conjunction([_scalar("v", "<>", 1.0, False), _scalar("u", "<", 0.5, True)]),
)
@example(
    # ``0.0 <= u`` is ``u >= 0.0``: the second row sits on that edge.
    rows=[
        {"v": None, "u": 1.0, "s": "a"},
        {"v": 0.5, "u": 0.0, "s": "b"},
        {"v": 2.0, "u": None, "s": "b"},
    ],
    predicate=_conjunction([_scalar("v", "<>", 1.0, True), _scalar("u", "<=", 0.0, True)]),
)
def test_top_level_conjunctions_identical_across_backends_and_oracle(rows, predicate):
    _assert_identical_across_backends_and_oracle(rows, predicate)


def _assert_identical_across_backends_and_oracle(rows: list[Row], predicate: Predicate) -> None:
    table = _table(rows)
    embedded = Database()
    embedded.register_rows("t", table, column_order=COLUMNS)
    embedded.register_rows("tp", table, column_order=COLUMNS)
    embedded.repartition("tp", 3)
    sqlite = create_backend("sqlite")
    sqlite.register_rows("t", table, column_order=COLUMNS)
    try:
        where = f"SELECT i FROM {{table}} WHERE {predicate.sql} ORDER BY i"
        projected = f"SELECT i, ({predicate.sql}) AS p FROM {{table}} ORDER BY i"
        truths = [predicate.truth(row) for row in table]
        for sql, want in (
            (where, [{"i": row["i"]} for row, truth in zip(table, truths) if truth]),
            (projected, [
                {"i": row["i"], "p": None if truth is None else float(truth)}
                for row, truth in zip(table, truths)
            ]),
        ):
            assert sqlite.execute(sql.format(table="t")).to_rows() == want, sql
            assert embedded.execute(sql.format(table="t")).to_rows() == want, sql
            assert embedded.execute(sql.format(table="tp")).to_rows() == want, sql
    finally:
        embedded.close()
        sqlite.close()


@settings(max_examples=30, deadline=None)
@given(rows=rows_strategy, predicate=predicates)
def test_predicate_as_ivm_static_conjunct(rows, predicate):
    """The IVM view's domain reads the same TRUE mask as the filter."""
    table = _table(rows)
    with_ivm, without_ivm = Database(), Database(ivm=False)
    for database in (with_ivm, without_ivm):
        database.register_rows("t", table, column_order=COLUMNS)
    try:
        for low in (0, 1, 2, 0):
            sql = (
                f"SELECT k, COUNT(*) AS n, COUNT(v) AS nv, MAX(v) AS hi FROM t "
                f"WHERE b >= {low} AND ({predicate.sql}) GROUP BY k"
            )
            assert with_ivm.execute(sql).to_rows() == without_ivm.execute(sql).to_rows(), sql
        assert with_ivm.stats()["ivm_hits"] >= 1
    finally:
        with_ivm.close()
        without_ivm.close()
