"""SQL tokenizer.

Turns SQL text into a flat list of :class:`Token` objects.  The tokenizer
is deliberately small: it supports the lexical forms that appear in queries
emitted by the VegaPlus query rewriter and hand-written benchmark queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TokenizeError


class TokenType(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
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


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    ttype: TokenType
    value: str
    position: int

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
        If an unexpected character or an unterminated string is found.
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
    return Token(TokenType.NUMBER, sql[start:i], start), i


def _read_word(sql: str, start: int) -> tuple[Token, int]:
    i = start
    while i < len(sql) and (sql[i].isalnum() or sql[i] == "_"):
        i += 1
    word = sql[start:i]
    upper = word.upper()
    if upper in KEYWORDS:
        return Token(TokenType.KEYWORD, upper, start), i
    return Token(TokenType.IDENTIFIER, word, start), i
