"""Lexer and recursive-descent parser for the rule language.

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

``%`` starts a comment. ``=`` is only legal as aggregate assignment; bare
``X = Y`` is rejected with a hint to use ``==``. A term holds at most
:data:`MAX_TERM_DEPTH` ``+``/``-`` operators. Errors carry line/column.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .facts import Constant, Fact, Symbol
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
    substitute_consts,
)


#: The most ``+``/``-`` operators one term may hold. The grammar has no
#: parentheses, so this is the deepest an arithmetic term nests, and every
#: recursive walk of a term stays far inside the interpreter's stack.
MAX_TERM_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


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


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
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

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Program:
        while self.current.kind != "EOF":
            if self.current.kind == "CONST":
                self._parse_const()
            else:
                self._parse_statement()
        program = Program(self.consts, self.rules, self.facts)
        return _resolve_consts(program)

    def _parse_const(self) -> None:
        self.advance()
        name_token = self.expect("IDENT", "constant name")
        if name_token.value in self.consts:
            raise ParseError(f"duplicate #const {name_token.value}",
                             name_token.line, name_token.column)
        self.expect("ASSIGN", "'='")
        negative = False
        if self.current.kind == "MINUS":
            negative = True
            self.advance()
        value_token = self.expect("INT", "integer value")
        self.expect("PERIOD", "'.'")
        value = int(value_token.value)
        self.consts[name_token.value] = -value if negative else value

    def _parse_statement(self) -> None:
        start = self.current
        span = Span(start.line, start.column)
        self._anon_counter = 0
        if start.kind == "IMPLIES":
            self.advance()
            body = self._parse_body()
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
        body = self._parse_body()
        self.expect("PERIOD", "'.'")
        self.rules.append(Rule(head, body, span))

    def _parse_body(self) -> tuple[BodyLiteral, ...]:
        literals = [self._parse_body_literal()]
        while self.current.kind == "COMMA":
            self.advance()
            literals.append(self._parse_body_literal())
        return tuple(literals)

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
        op_token = self.current
        if op_token.kind == "ASSIGN":
            self.advance()
            if self.current.kind != "COUNT":
                raise ParseError("'=' is only legal as aggregate assignment; "
                                 "use '==' for comparison",
                                 op_token.line, op_token.column)
            if not isinstance(left, Variable):
                raise ParseError("aggregate assignment target must be a variable",
                                 op_token.line, op_token.column)
            aggregate = self._parse_aggregate()
            return AggregateLiteral(aggregate, "=", left)
        if op_token.kind != "CMP":
            raise self.fail("expected comparison operator")
        self.advance()
        if self.current.kind == "COUNT":
            raise self.fail("aggregate must appear on the left of its guard")
        right = self._parse_term()
        return Comparison(left, op_token.value, right)

    def _parse_aggregate(self) -> CountAggregate:
        self.expect("COUNT", "'#count'")
        self.expect("LBRACE", "'{'")
        elements = [self._parse_term()]
        while self.current.kind == "COMMA":
            self.advance()
            elements.append(self._parse_term())
        self.expect("COLON", "':' between aggregate elements and condition")
        condition = [self._parse_condition_literal()]
        while self.current.kind == "COMMA":
            self.advance()
            condition.append(self._parse_condition_literal())
        self.expect("RBRACE", "'}'")
        return CountAggregate(tuple(elements), tuple(condition))

    def _parse_condition_literal(self) -> ConditionLiteral:
        token = self.current
        if token.kind == "NOT":
            raise self.fail("negation is not allowed inside aggregates")
        if token.kind == "COUNT":
            raise self.fail("aggregates cannot be nested")
        if token.kind == "IDENT" and self.peek().kind in ("LPAREN", "COMMA", "RBRACE"):
            return self._parse_atom()
        left = self._parse_term()
        op_token = self.current
        if op_token.kind == "ASSIGN":
            raise ParseError("'=' is only legal as aggregate assignment; "
                             "use '==' for comparison", op_token.line, op_token.column)
        if op_token.kind != "CMP":
            raise self.fail("expected comparison operator")
        self.advance()
        right = self._parse_term()
        return Comparison(left, op_token.value, right)

    def _parse_atom(self) -> Atom:
        name = self.expect("IDENT", "predicate name")
        if self.current.kind != "LPAREN":
            return Atom(name.value)
        self.advance()
        terms = [self._parse_term()]
        while self.current.kind == "COMMA":
            self.advance()
            terms.append(self._parse_term())
        self.expect("RPAREN", "')'")
        return Atom(name.value, tuple(terms))

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
            return int(token.value)
        if token.kind == "MINUS":
            self.advance()
            value = self.expect("INT", "integer after unary '-'")
            return -int(value.value)
        if token.kind == "STRING":
            self.advance()
            return token.value
        if token.kind == "IDENT":
            self.advance()
            return Symbol(token.value)
        raise self.fail(f"expected a term, got {token.value or 'end of input'!r}")


def _atom_as_fact(atom: Atom) -> Optional[Fact]:
    args: list[Constant] = []
    for term in atom.terms:
        if isinstance(term, (Variable, ArithTerm)):
            return None
        args.append(term)
    return Fact(atom.predicate, tuple(args))


def _map_atom(atom: Atom, consts: dict[str, int]) -> Atom:
    return Atom(atom.predicate, tuple(substitute_consts(t, consts) for t in atom.terms))


def _map_literal(literal: BodyLiteral, consts: dict[str, int]) -> BodyLiteral:
    if isinstance(literal, Atom):
        return _map_atom(literal, consts)
    if isinstance(literal, Comparison):
        return Comparison(substitute_consts(literal.left, consts), literal.op,
                          substitute_consts(literal.right, consts))
    if isinstance(literal, NafLiteral):
        return NafLiteral(_map_atom(literal.atom, consts))
    if isinstance(literal, AggregateLiteral):
        aggregate = CountAggregate(
            tuple(substitute_consts(t, consts) for t in literal.aggregate.elements),
            tuple(_map_literal(c, consts) for c in literal.aggregate.condition),
        )
        return AggregateLiteral(aggregate, literal.op, substitute_consts(literal.bound, consts))
    raise TypeError(f"not a body literal: {literal!r}")


def _resolve_consts(program: Program) -> Program:
    """Substitute ``#const`` values for symbol references program-wide."""
    if not program.consts:
        return program
    consts = program.consts
    rules = [
        Rule(_map_atom(rule.head, consts) if rule.head is not None else None,
             tuple(_map_literal(lit, consts) for lit in rule.body),
             rule.span)
        for rule in program.rules
    ]
    facts = [Fact(f.predicate, tuple(substitute_consts(a, consts) for a in f.args))
             for f in program.facts]
    return Program(consts, rules, facts)


def parse_program(text: str) -> Program:
    """Parse program text into an AST with ``#const`` references resolved."""
    return _Parser(_tokenize(text)).parse()


def parse_facts(text: str) -> list[Fact]:
    """Parse a facts file (facts and comments only; rules are rejected)."""
    program = parse_program(text)
    if program.rules:
        span = program.rules[0].span
        raise ParseError("facts file must contain only facts", span.line, span.column)
    if program.consts:
        raise ParseError("facts file must not define constants", 1, 1)
    return program.facts


def override_consts(text: str, overrides: Mapping[str, int]) -> str:
    """Set the value of each named ``#const`` statement and keep every other
    character of the text. Statements are found by the lexer, so a
    ``#const`` inside a comment or a string is never rewritten.

    Raises ValueError for a name the text defines no ``#const`` for.
    """
    return _override(text, overrides)[0]


def _override(text: str, overrides: Mapping[str, int]) -> tuple[str, list[_Token]]:
    """:func:`override_consts`, also returning the tokens of the new text:
    the old tokens with the values replaced and the positions after each
    replacement moved, so the new text is never lexed again."""
    tokens = _tokenize(text)
    edits: dict[int, tuple[int, int]] = {}  # first value token -> (last one, value)
    for i, token in enumerate(tokens):
        if token.kind != "CONST" or tokens[i + 1].kind != "IDENT" \
                or tokens[i + 2].kind != "ASSIGN" or tokens[i + 1].value not in overrides:
            continue
        first = tokens[i + 3]  # an EOF token always follows ASSIGN and MINUS
        last = i + 4 if first.kind == "MINUS" else i + 3
        if tokens[last].kind != "INT":
            continue  # malformed; parse_program reports it
        edits[i + 3] = (last, overrides[tokens[i + 1].value])
    missing = sorted(set(overrides) - {tokens[i - 2].value for i in edits})
    if missing:
        raise ValueError(f"rule file defines no #const {missing[0]}")
    if not edits:
        return text, tokens

    line_starts = [0]
    while (newline := text.find("\n", line_starts[-1])) >= 0:
        line_starts.append(newline + 1)

    def offset(token: _Token) -> int:
        return line_starts[token.line - 1] + token.column - 1

    pieces: list[str] = []
    moved: list[_Token] = []
    done = lines_removed = i = 0
    edit_line = shift = 0  # old line of the last replacement's end; column shift after it
    while i < len(tokens):
        token = tokens[i]
        line = token.line - lines_removed
        column = token.column + shift if token.line == edit_line else token.column
        if i not in edits:
            moved.append(token if (line, column) == (token.line, token.column)
                         else _Token(token.kind, token.value, line, column))
            i += 1
            continue
        last_index, value = edits[i]
        last = tokens[last_index]
        new = str(value)
        if value < 0:
            moved += [_Token("MINUS", "-", line, column), _Token("INT", new[1:], line, column + 1)]
        else:
            moved.append(_Token("INT", new, line, column))
        pieces += [text[done:offset(token)], new]
        done = offset(last) + len(last.value)
        lines_removed += last.line - token.line
        edit_line, shift = last.line, column + len(new) - last.column - len(last.value)
        i = last_index + 1
    pieces.append(text[done:])
    return "".join(pieces), moved
