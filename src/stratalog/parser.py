r"""Lexer and recursive-descent parser for the rule language.

Grammar, informally::

    program    := (const | statement)*
    const      := "#const" IDENT "=" INT "."
    statement  := atom "."                     (ground -> fact)
                | atom ":-" body "."
                | ":-" body "."                (constraint)
    body       := literal ("," literal)*
    literal    := "not" atom
                | atom
                | aggregate CMP term           (guard form)
                | VAR "=" aggregate            (assignment form)
                | term CMP term
    aggregate  := "#count" "{" term ("," term)* ":" condition "}"
    condition  := (atom | term CMP term) ("," ...)*
    term       := primary (("+"|"-") primary)*
    primary    := VAR | "_" | INT | "-" INT | STRING | IDENT

Tokens: blanks are space, tab and carriage return, and ``%`` comments
run to the end of the line. A symbol is one of ``( ) { } , . + - : :- =
== != < <= > >=`` or a directive: ``#`` and a run of word characters
(``str.isalnum`` or ``_``), of which only ``#const`` and ``#count``
exist. A string is one line in double quotes with the escapes ``\"``,
``\\``, ``\n`` and ``\t``. An INT is a run of decimal digits
(``str.isdecimal``, as ``int`` reads them). A word is a run of word
characters that starts with a letter or ``_``: the keyword ``not``, a VAR
when it starts upper-case or with ``_``, otherwise an IDENT. Any other
character is unexpected, ``!`` alone and digits that are not decimal
(``²``, ``①``) included.

Each ``#const`` name is replaced by its value as it is read. ``=`` is only
legal as aggregate assignment; bare ``X = Y`` is rejected with a hint to
use ``==``. A term holds at most :data:`MAX_TERM_DEPTH` ``+``/``-``
operators, and an integer at most ``sys.get_int_max_str_digits()`` digits.
Errors carry line/column.
"""
from __future__ import annotations

import re
import sys
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, TypeVar

from .facts import Fact, Symbol, new_tuple
from .lang import (
    ANON_PREFIX,
    AggregateLiteral,
    ArithTerm,
    Atom,
    BodyLiteral,
    Comparison,
    ConditionLiteral,
    CountAggregate,
    NafLiteral,
    Program,
    Rule,
    Span,
    Term,
    Variable,
)


_T = TypeVar("_T")

#: The most ``+``/``-`` operators one term may hold. The grammar has no
#: parentheses, so this is the deepest an arithmetic term nests, and every
#: recursive walk of a term stays far inside the interpreter's stack.
MAX_TERM_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


#: One token per match, after the blanks before it. A comment is matched
#: with the newline or the end of text that closes it, so the EOF token
#: after a trailing comment sits at its ``%``. BAD_STRING matches the good
#: part of a string that STRING cannot match; no group matches at an
#: unexpected character.
_SCANNER = re.compile(r"""[ \t\r]*(?:
    (?P<NEWLINE>(?:%[^\n]*)?\n)
  | (?P<EOF>(?:%[^\n]*)?\Z)
  | (?P<SYMBOL>:-|[=!<>]=|[-(){},.+:=<>]|\#\w*)
  | (?P<STRING>"(?:[^"\\\n]|\\["\\nt])*")
  | (?P<BAD_STRING>"(?:[^"\\\n]|\\["\\nt])*)
  | (?P<INT>\d+)
  | (?P<WORD>\w+)
)?""", re.VERBOSE)

_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

_SYMBOLS = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE", ",": "COMMA",
    ".": "PERIOD", "+": "PLUS", "-": "MINUS", ":": "COLON", ":-": "IMPLIES",
    "=": "ASSIGN", "==": "CMP", "!=": "CMP", "<": "CMP", "<=": "CMP",
    ">": "CMP", ">=": "CMP", "#const": "CONST", "#count": "COUNT",
}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    scan = _SCANNER.match
    line, line_start, pos = 1, 0, 0
    while True:
        match = scan(text, pos)
        kind = match.lastgroup
        if kind is None:
            start = match.end()
            raise ParseError(f"unexpected character {text[start]!r}", line, start - line_start + 1)
        start, pos = match.span(kind)
        if kind == "NEWLINE":
            line += 1
            line_start = pos
            continue
        value = match[kind]
        column = start - line_start + 1
        if kind == "SYMBOL":
            kind = _SYMBOLS.get(value)
            if kind is None:
                raise ParseError(f"unknown directive {value}", line, column)
        elif kind == "WORD":
            first = value[0]
            if not (first.isalpha() or first == "_"):
                raise ParseError(f"unexpected character {first!r}", line, column)
            kind = "NOT" if value == "not" else \
                "VAR" if first.isupper() or first == "_" else "IDENT"
        elif kind == "STRING":
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(lambda escape: _ESCAPES[escape[1]], value)
        elif kind == "BAD_STRING":  # a bad escape follows, or the end of the line
            bad = text[pos:pos + 2]
            raise ParseError(f"unknown escape {bad}" if len(bad) == 2 and bad[0] == "\\"
                             else "unterminated string", line, column)
        elif kind == "EOF":
            tokens.append(new_tuple(_Token, ("EOF", "", line, column)))
            return tokens
        tokens.append(new_tuple(_Token, (kind, value, line, column)))


def _integer(token: _Token, negative: bool = False) -> int:
    """An INT token's value; a ParseError at the token when it has more
    digits than the interpreter converts."""
    try:
        value = int(token.value)
    except ValueError:
        raise ParseError(f"integer has more than {sys.get_int_max_str_digits()} digits",
                         token.line, token.column) from None
    return -value if negative else value


def _const_statements(tokens: list[_Token]) -> Iterator[tuple[int, int]]:
    """Each ``#const NAME = [-]INT`` statement the tokens hold, as the index
    of its name token and of its INT token. The value starts two tokens
    after the name; a statement without these tokens is left for the parser
    to report."""
    for i, token in enumerate(tokens):
        if token.kind == "CONST" and tokens[i + 1].kind == "IDENT" \
                and tokens[i + 2].kind == "ASSIGN":  # an EOF token ends every list
            last = i + 4 if tokens[i + 3].kind == "MINUS" else i + 3
            if tokens[last].kind == "INT":
                yield i + 1, last


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        #: Each ``#const`` name's value, read before parsing, so that a name
        #: is replaced wherever it is used, before or after its statement;
        #: ``_parse_const`` checks each statement and rejects a repeated name.
        self.values = {tokens[name].value: _integer(tokens[last], tokens[last - 1].kind == "MINUS")
                       for name, last in _const_statements(tokens)}
        self.consts: dict[str, int] = {}
        self.rules: list[Rule] = []
        self.facts: list[Fact] = []
        self._anon_counter = 0

    # -- token helpers -----------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        token = self.current
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.current
        if token.kind != kind:
            got = token.value or "end of input"
            raise ParseError(f"expected {what}, got {got!r}", token.line, token.column)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        token = self.current
        return ParseError(message, token.line, token.column)

    def comma_separated(self, parse_one: Callable[[], _T]) -> tuple[_T, ...]:
        items = [parse_one()]
        while self.current.kind == "COMMA":
            self.advance()
            items.append(parse_one())
        return tuple(items)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Program:
        while self.current.kind != "EOF":
            if self.current.kind == "CONST":
                self._parse_const()
            else:
                self._parse_statement()
        return Program(self.consts, self.rules, self.facts)

    def _parse_const(self) -> None:
        self.advance()
        name_token = self.expect("IDENT", "constant name")
        if name_token.value in self.consts:
            raise ParseError(f"duplicate #const {name_token.value}",
                             name_token.line, name_token.column)
        self.expect("ASSIGN", "'='")
        if self.current.kind == "MINUS":
            self.advance()
        self.expect("INT", "integer value")
        self.expect("PERIOD", "'.'")
        self.consts[name_token.value] = self.values[name_token.value]

    def _parse_statement(self) -> None:
        start = self.current
        span = Span(start.line, start.column)
        self._anon_counter = 0
        if start.kind == "IMPLIES":
            self.advance()
            body = self.comma_separated(self._parse_body_literal)
            self.expect("PERIOD", "'.'")
            self.rules.append(Rule(None, body, span))
            return
        head = self._parse_atom()
        if self.current.kind == "PERIOD":
            self.advance()
            ground = _atom_as_fact(head)
            if ground is not None:
                self.facts.append(ground)
            else:
                # non-ground bare head; kept as a bodyless rule for the
                # safety check to reject with a precise message
                self.rules.append(Rule(head, (), span))
            return
        self.expect("IMPLIES", "':-' or '.'")
        body = self.comma_separated(self._parse_body_literal)
        self.expect("PERIOD", "'.'")
        self.rules.append(Rule(head, body, span))

    def _parse_body_literal(self) -> BodyLiteral:
        token = self.current
        if token.kind == "NOT":
            self.advance()
            return NafLiteral(self._parse_atom())
        if token.kind == "COUNT":
            aggregate = self._parse_aggregate()
            op_token = self.current
            if op_token.kind != "CMP":
                raise self.fail("aggregate needs a comparison guard or an assignment")
            self.advance()
            bound = self._parse_term()
            return AggregateLiteral(aggregate, op_token.value, bound)
        if token.kind == "IDENT" and self.peek().kind in ("LPAREN", "COMMA", "PERIOD", "RBRACE"):
            return self._parse_atom()
        # term-led literal: comparison or aggregate assignment
        left = self._parse_term()
        if self.current.kind == "ASSIGN" and self.peek().kind == "COUNT":
            if not isinstance(left, Variable):
                raise self.fail("aggregate assignment target must be a variable")
            self.advance()
            return AggregateLiteral(self._parse_aggregate(), "=", left)
        if self.current.kind == "CMP" and self.peek().kind == "COUNT":
            self.advance()
            raise self.fail("aggregate must appear on the left of its guard")
        return self._parse_comparison(left)

    def _parse_aggregate(self) -> CountAggregate:
        self.expect("COUNT", "'#count'")
        self.expect("LBRACE", "'{'")
        elements = self.comma_separated(self._parse_term)
        self.expect("COLON", "':' between aggregate elements and condition")
        condition = self.comma_separated(self._parse_condition_literal)
        self.expect("RBRACE", "'}'")
        return CountAggregate(elements, condition)

    def _parse_condition_literal(self) -> ConditionLiteral:
        token = self.current
        if token.kind == "NOT":
            raise self.fail("negation is not allowed inside aggregates")
        if token.kind == "COUNT":
            raise self.fail("aggregates cannot be nested")
        if token.kind == "IDENT" and self.peek().kind in ("LPAREN", "COMMA", "RBRACE"):
            return self._parse_atom()
        return self._parse_comparison(self._parse_term())

    def _parse_comparison(self, left: Term) -> Comparison:
        op_token = self.current
        if op_token.kind == "ASSIGN":
            raise self.fail("'=' is only legal as aggregate assignment; use '==' for comparison")
        if op_token.kind != "CMP":
            raise self.fail("expected comparison operator")
        self.advance()
        return Comparison(left, op_token.value, self._parse_term())

    def _parse_atom(self) -> Atom:
        name = self.expect("IDENT", "predicate name")
        if self.current.kind != "LPAREN":
            return Atom(name.value)
        self.advance()
        terms = self.comma_separated(self._parse_term)
        self.expect("RPAREN", "')'")
        return Atom(name.value, terms)

    def _parse_term(self) -> Term:
        term = self._parse_primary()
        depth = 0
        while self.current.kind in ("PLUS", "MINUS"):
            depth += 1
            if depth > MAX_TERM_DEPTH:
                raise self.fail(f"term nests deeper than {MAX_TERM_DEPTH} '+'/'-' operators")
            op = self.advance().value
            right = self._parse_primary()
            term = ArithTerm(op, term, right)
        return term

    def _parse_primary(self) -> Term:
        token = self.current
        if token.kind == "VAR":
            self.advance()
            if token.value == "_":
                self._anon_counter += 1
                return Variable(f"{ANON_PREFIX}{self._anon_counter}")
            return Variable(token.value)
        if token.kind == "INT":
            self.advance()
            return _integer(token)
        if token.kind == "MINUS":
            self.advance()
            return _integer(self.expect("INT", "integer after unary '-'"), negative=True)
        if token.kind == "STRING":
            self.advance()
            return token.value
        if token.kind == "IDENT":
            self.advance()
            try:  # checks the name even where it is a #const
                symbol = Symbol(token.value)
            except ValueError as error:
                raise ParseError(str(error), token.line, token.column) from None
            return self.values.get(token.value, symbol)
        raise self.fail(f"expected a term, got {token.value or 'end of input'!r}")


def _atom_as_fact(atom: Atom) -> Optional[Fact]:
    if any(isinstance(term, (Variable, ArithTerm)) for term in atom.terms):
        return None
    return Fact(atom.predicate, atom.terms)


def parse_program(text: str) -> Program:
    """Parse program text into an AST, each ``#const`` name replaced by its
    value."""
    return _Parser(_tokenize(text)).parse()


def parse_facts(text: str) -> list[Fact]:
    """Parse a facts file (facts and comments only; rules are rejected)."""
    program = parse_program(text)
    if program.rules:
        span = program.rules[0].span
        raise ParseError("facts file must contain only facts", span.line, span.column)
    if program.consts:  # lexed again only here, for the first #const's place
        const = next(token for token in _tokenize(text) if token.kind == "CONST")
        raise ParseError("facts file must not define constants", const.line, const.column)
    return program.facts


def override_consts(text: str, overrides: Mapping[str, int]) -> str:
    """Set the value of each named ``#const`` statement and keep every other
    character of the text. Statements are found by the lexer, so a
    ``#const`` inside a comment or a string is never rewritten.

    Any integer the parser can read is a legal value. With nothing to set,
    the text comes back as it is, unlexed.

    Raises ValueError for a value whose type is not ``int`` (so for a
    ``bool`` too) and for a name the text defines no ``#const`` for.
    """
    for name, value in overrides.items():
        if type(value) is not int:
            raise ValueError(f"#const {name} must be set to an integer, got {value!r}")
    if not overrides:
        return text
    tokens = _tokenize(text)
    edits = [(tokens[name], tokens[name + 2], tokens[last])
             for name, last in _const_statements(tokens) if tokens[name].value in overrides]
    missing = sorted(set(overrides) - {name.value for name, _, _ in edits})
    if missing:
        raise ValueError(f"rule file defines no #const {missing[0]}")
    line_starts = [0, *(newline.end() for newline in re.finditer("\n", text))]

    def offset(token: _Token) -> int:
        return line_starts[token.line - 1] + token.column - 1

    pieces: list[str] = []
    done = 0
    for name, first, last in edits:
        pieces += [text[done:offset(first)], str(overrides[name.value])]
        done = offset(last) + len(last.value)
    pieces.append(text[done:])
    return "".join(pieces)
