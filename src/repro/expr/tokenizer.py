"""Tokenizer for the Vega expression language.

The one place a number's text becomes a value (:attr:`ExprToken.number`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ExpressionParseError


class ExprTokenType(enum.Enum):
    """Lexical category of an expression token."""

    NUMBER = "number"
    STRING = "string"
    IDENTIFIER = "identifier"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


#: Multi-character operators ordered longest-first.
_MULTI_OPERATORS = ("===", "!==", "==", "!=", "<=", ">=", "&&", "||")
_SINGLE_OPERATORS = "+-*/%<>!?:"
_PUNCTUATION = "()[],."


@dataclass(frozen=True)
class ExprToken:
    """A single token with source position; ``number`` is a NUMBER's value."""

    ttype: ExprTokenType
    value: str
    position: int
    number: float | None = None


def tokenize_expression(text: str) -> list[ExprToken]:
    """Tokenize a Vega expression string."""
    tokens: list[ExprToken] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "'\"":
            j = i + 1
            parts: list[str] = []
            while j < n and text[j] != ch:
                if text[j] == "\\" and j + 1 < n:
                    parts.append(text[j + 1])
                    j += 2
                    continue
                parts.append(text[j])
                j += 1
            if j >= n:
                raise ExpressionParseError(
                    f"unterminated string literal at position {i} in {text!r}"
                )
            tokens.append(ExprToken(ExprTokenType.STRING, "".join(parts), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                j += 1
                if j < n and text[j] in "+-":
                    j += 1
                while j < n and text[j].isdigit():
                    j += 1
            try:
                number = float(text[i:j])
            except ValueError:
                raise ExpressionParseError(
                    f"malformed number {text[i:j]!r} at position {i} in {text!r}"
                ) from None
            tokens.append(ExprToken(ExprTokenType.NUMBER, text[i:j], i, number))
            i = j
            continue
        if ch.isalpha() or ch in "_$":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            tokens.append(ExprToken(ExprTokenType.IDENTIFIER, text[i:j], i))
            i = j
            continue
        matched = False
        for op in _MULTI_OPERATORS:
            if text.startswith(op, i):
                tokens.append(ExprToken(ExprTokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE_OPERATORS:
            tokens.append(ExprToken(ExprTokenType.OPERATOR, ch, i))
            i += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append(ExprToken(ExprTokenType.PUNCTUATION, ch, i))
            i += 1
            continue
        raise ExpressionParseError(
            f"unexpected character {ch!r} at position {i} in {text!r}"
        )
    tokens.append(ExprToken(ExprTokenType.EOF, "", n))
    return tokens
