"""The rule lexer as it stood before it became one regular expression,
kept as a test oracle: ``tests/test_parser.py`` requires the new lexer to
give the same tokens and the same errors on any text that holds no
character that is a digit but not a decimal one (``²``, ``①``). Such a
character was lexed here as part of an integer, which ``int`` then refused
without a position; the new lexer reports it as an unexpected character.

Copied verbatim; do not edit the function below.
"""
from __future__ import annotations

from dataclasses import dataclass

from stratalog.parser import ParseError


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    ",": "COMMA", ".": "PERIOD", "+": "PLUS", "-": "MINUS",
}

_KEYWORD_DIRECTIVES = {"const": "CONST", "count": "COUNT"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    i, n = 0, len(text)

    def error(msg: str) -> ParseError:
        return ParseError(msg, line, column)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            column = 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_column = line, column
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, start_line, start_column))
            i += 1
            column += 1
            continue
        if ch == ":":
            if i + 1 < n and text[i + 1] == "-":
                tokens.append(_Token("IMPLIES", ":-", start_line, start_column))
                i += 2
                column += 2
            else:
                tokens.append(_Token("COLON", ":", start_line, start_column))
                i += 1
                column += 1
            continue
        if ch in "=!<>":
            two = text[i:i + 2]
            if two in ("==", "!=", ">=", "<="):
                tokens.append(_Token("CMP", two, start_line, start_column))
                i += 2
                column += 2
                continue
            if ch == "=":
                tokens.append(_Token("ASSIGN", "=", start_line, start_column))
            elif ch in "<>":
                tokens.append(_Token("CMP", ch, start_line, start_column))
            else:
                raise error(f"unexpected character {ch!r}")
            i += 1
            column += 1
            continue
        if ch == "#":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i + 1:j]
            kind = _KEYWORD_DIRECTIVES.get(word)
            if kind is None:
                raise error(f"unknown directive #{word}")
            tokens.append(_Token(kind, "#" + word, start_line, start_column))
            column += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n or text[j] == "\n":
                    raise error("unterminated string")
                c = text[j]
                if c == "\\":
                    if j + 1 >= n:
                        raise error("unterminated string")
                    esc = text[j + 1]
                    if esc == '"':
                        parts.append('"')
                    elif esc == "\\":
                        parts.append("\\")
                    elif esc == "n":
                        parts.append("\n")
                    elif esc == "t":
                        parts.append("\t")
                    else:
                        raise error(f"unknown escape \\{esc}")
                    j += 2
                    continue
                if c == '"':
                    j += 1
                    break
                parts.append(c)
                j += 1
            tokens.append(_Token("STRING", "".join(parts), start_line, start_column))
            column += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], start_line, start_column))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "not":
                kind = "NOT"
            elif word[0].isupper() or word[0] == "_":
                kind = "VAR"
            else:
                kind = "IDENT"
            tokens.append(_Token(kind, word, start_line, start_column))
            column += j - i
            i = j
            continue
        raise error(f"unexpected character {ch!r}")
    tokens.append(_Token("EOF", "", line, column))
    return tokens
