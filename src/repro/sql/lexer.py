"""A hand-written SQL lexer.

The lexer produces a flat list of :class:`Token` objects.  Keywords are not
distinguished from identifiers at this level (the parser decides), but the
token carries the upper-cased form so the parser can match case-insensitively
without losing the original spelling of identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import LexerError


class TokenType(Enum):
    IDENT = "IDENT"
    QUOTED_IDENT = "QUOTED_IDENT"  # "name": an identifier, never a keyword
    NUMBER = "NUMBER"
    STRING = "STRING"
    PARAM = "PARAM"  # $1, $2 ... inside SQL function bodies
    PLACEHOLDER = "PLACEHOLDER"  # bind parameters: ?, ?3, :name
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"  # ( ) , ; .
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    position: int

    @property
    def upper(self) -> str:
        return self.text.upper()

    def matches(self, keyword: str) -> bool:
        return self.type is TokenType.IDENT and self.upper == keyword.upper()


_OPERATORS = (
    "<>",
    "<=",
    ">=",
    "!=",
    "||",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "@",
)

_PUNCTUATION = "(),;."


def tokenize(text: str) -> list[Token]:
    """Convert SQL text into a token list (always terminated by an EOF token)."""
    tokens: list[Token] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        # -- line comments
        if char == "-" and text.startswith("--", index):
            newline = text.find("\n", index)
            index = length if newline == -1 else newline + 1
            continue
        # /* block comments */
        if char == "/" and text.startswith("/*", index):
            end = text.find("*/", index + 2)
            if end == -1:
                raise LexerError("unterminated block comment", index)
            index = end + 2
            continue
        if char == "'":
            token, index = _lex_string(text, index)
            tokens.append(token)
            continue
        if char == '"':
            token, index = _lex_quoted_identifier(text, index)
            tokens.append(token)
            continue
        if char.isdigit() or (
            char == "." and index + 1 < length and text[index + 1].isdigit()
        ):
            token, index = _lex_number(text, index)
            tokens.append(token)
            continue
        if char == "?":
            start = index
            index += 1
            while index < length and text[index].isdigit():
                index += 1
            tokens.append(Token(TokenType.PLACEHOLDER, text[start:index], start))
            continue
        if char == ":" and index + 1 < length and (
            text[index + 1].isalpha() or text[index + 1] == "_"
        ):
            start = index
            index += 1
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            tokens.append(Token(TokenType.PLACEHOLDER, text[start:index], start))
            continue
        if char == "$" and index + 1 < length and text[index + 1].isdigit():
            start = index
            index += 1
            while index < length and text[index].isdigit():
                index += 1
            tokens.append(Token(TokenType.PARAM, text[start:index], start))
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            tokens.append(Token(TokenType.IDENT, text[start:index], start))
            continue
        matched_operator = _match_operator(text, index)
        if matched_operator is not None:
            tokens.append(Token(TokenType.OPERATOR, matched_operator, index))
            index += len(matched_operator)
            continue
        if char in _PUNCTUATION:
            tokens.append(Token(TokenType.PUNCT, char, index))
            index += 1
            continue
        raise LexerError(f"unexpected character {char!r} at position {index}", index)
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens


def _match_operator(text: str, index: int) -> str | None:
    for operator in _OPERATORS:
        if text.startswith(operator, index):
            return operator
    return None


def _lex_string(text: str, index: int) -> tuple[Token, int]:
    """Lex a single-quoted string; '' escapes a quote (standard SQL)."""
    start = index
    index += 1
    chunks: list[str] = []
    while index < len(text):
        char = text[index]
        if char == "'":
            if index + 1 < len(text) and text[index + 1] == "'":
                chunks.append("'")
                index += 2
                continue
            return Token(TokenType.STRING, "".join(chunks), start), index + 1
        chunks.append(char)
        index += 1
    raise LexerError("unterminated string literal", start)


def _lex_quoted_identifier(text: str, index: int) -> tuple[Token, int]:
    """Lex a double-quoted identifier (the parser also takes one as the
    scope text of ``SET SCOPE = "..."``)."""
    start = index
    index += 1
    chunks: list[str] = []
    while index < len(text):
        char = text[index]
        if char == '"':
            if index + 1 < len(text) and text[index + 1] == '"':
                chunks.append('"')
                index += 2
                continue
            return Token(TokenType.QUOTED_IDENT, "".join(chunks), start), index + 1
        chunks.append(char)
        index += 1
    raise LexerError("unterminated quoted identifier", start)


def _lex_number(text: str, index: int) -> tuple[Token, int]:
    start = index
    seen_dot = False
    while index < len(text):
        char = text[index]
        if char.isdigit():
            index += 1
        elif char == "." and not seen_dot:
            seen_dot = True
            index += 1
        else:
            break
    return Token(TokenType.NUMBER, text[start:index], start), index
