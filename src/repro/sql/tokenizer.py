"""SQL tokenizer.

Turns SQL text into a flat list of :class:`Token` objects.  The tokenizer
is deliberately small: it supports the lexical forms that appear in queries
emitted by the VegaPlus query rewriter and hand-written benchmark queries.
It is also the one place a literal's text becomes a value
(:attr:`Token.number`): the parser, the plan cache's shape key and the
rewriter's prepared statements (:class:`PreparedSQL`, whose shape has a
``?`` token, :attr:`TokenType.PARAMETER`, per slot) all read that value.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from typing import NamedTuple

from repro.errors import TokenizeError


class TokenType(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PARAMETER = "parameter"
    EOF = "eof"


#: Reserved words recognised as keywords (case-insensitive).
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "HAVING", "LIMIT",
        "OFFSET", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL", "BETWEEN",
        "LIKE", "ASC", "DESC", "DISTINCT", "CASE", "WHEN", "THEN", "ELSE",
        "END", "OVER", "PARTITION", "ROWS", "TRUE", "FALSE",
        "UNION", "ALL", "CAST",
    }
)

#: Multi-character operators, longest first so they win over prefixes.
_MULTI_CHAR_OPERATORS = ("<>", "!=", ">=", "<=", "||")
_SINGLE_CHAR_OPERATORS = "+-*/%=<>"
_PUNCTUATION = "(),."


class Token(NamedTuple):
    """One lexical token with its source position (for error messages).

    ``number`` is a NUMBER token's value: an ``int`` when the text has no
    ``.`` or exponent, else a ``float``; ``None`` for every other token.
    """

    ttype: TokenType
    value: str
    position: int
    number: int | float | None = None

    def is_keyword(self, *names: str) -> bool:
        """Whether this token is one of the given keywords."""
        return self.ttype is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.ttype.value}, {self.value!r})"


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list ending with an EOF token.

    Raises
    ------
    TokenizeError
        If an unexpected character, an unterminated string or a malformed
        number (``1e``, ``1e+``) is found.
    """
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'" or ch == '"':
            token, i = _read_string(sql, i, ch)
            tokens.append(token)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            token, i = _read_number(sql, i)
            tokens.append(token)
            continue
        if ch.isalpha() or ch == "_":
            token, i = _read_word(sql, i)
            tokens.append(token)
            continue
        matched_multi = False
        for op in _MULTI_CHAR_OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched_multi = True
                break
        if matched_multi:
            continue
        if ch in _SINGLE_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, ch, i))
            i += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token(TokenType.PUNCTUATION, ch, i))
            i += 1
            continue
        if ch == "?":
            tokens.append(Token(TokenType.PARAMETER, ch, i))
            i += 1
            continue
        raise TokenizeError(f"unexpected character {ch!r} at position {i}", position=i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _read_string(sql: str, start: int, quote: str) -> tuple[Token, int]:
    i = start + 1
    parts: list[str] = []
    while i < len(sql):
        ch = sql[i]
        if ch == quote:
            # Doubled quote is an escaped quote ('' -> ').
            if i + 1 < len(sql) and sql[i + 1] == quote:
                parts.append(quote)
                i += 2
                continue
            return Token(TokenType.STRING, "".join(parts), start), i + 1
        parts.append(ch)
        i += 1
    raise TokenizeError(f"unterminated string starting at position {start}", position=start)


def _read_number(sql: str, start: int) -> tuple[Token, int]:
    i = start
    seen_dot = False
    seen_exp = False
    while i < len(sql):
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < len(sql) and sql[i] in "+-":
                i += 1
        else:
            break
    text = sql[start:i]
    try:
        value = float(text)
    except ValueError:
        raise TokenizeError(
            f"malformed number {text!r} at position {start}", position=start
        ) from None
    number = int(value) if value.is_integer() and not seen_dot and not seen_exp else value
    return Token(TokenType.NUMBER, text, start, number), i


def _read_word(sql: str, start: int) -> tuple[Token, int]:
    i = start
    while i < len(sql) and (sql[i].isalnum() or sql[i] == "_"):
        i += 1
    word = sql[start:i]
    upper = word.upper()
    if upper in KEYWORDS:
        return Token(TokenType.KEYWORD, upper, start), i
    return Token(TokenType.IDENTIFIER, word, start), i


class PreparedSQL(str):
    """SQL text that also carries its prepared-statement form.

    The string itself is the query text, so result caches, frames, spans
    and backends that only read text see no difference.  ``shape`` is
    the same text with ``?`` in place of each slot's literal and
    ``values`` the slot values in order (:func:`literal_shape`).  String
    operations return plain ``str``.
    """

    shape: str
    values: tuple[object, ...]

    def __new__(cls, text: str, shape: str, values: Sequence[object] = ()) -> PreparedSQL:
        prepared = super().__new__(cls, text)
        prepared.shape = shape
        prepared.values = tuple(values)
        return prepared

    def __reduce__(self):
        return PreparedSQL, (str(self), self.shape, self.values)


def literal_shape(text: str, values: list[object]) -> str:
    """The shape of one rendered literal: ``?``, with the value the lexer
    reads from ``text`` appended to ``values``; ``text`` itself when it is
    no single string or number (``NULL``, ``TRUE``, ``nan``).

    A leading minus is folded into the value, as constant folding folds
    the text's ``-`` into its literal, so a value crossing zero keeps its
    shape.
    """
    negative = text[:1] == "-"
    if text[negative:negative + 1].isdigit():
        token, end = _read_number(text, int(negative))
        value = -token.number if negative else token.number
    elif text[:1] == "'":
        token, end = _read_string(text, 0, "'")
        value = token.value
    else:
        return text
    if end != len(text):
        return text
    values.append(value)
    return "?"
