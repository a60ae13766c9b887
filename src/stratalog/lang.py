"""AST for the detection rule language.

The language covers exactly what the bundled detection programs need:
``#const`` directives, rules with negation-as-failure, comparison guards,
``#count`` aggregates (guard or assignment form), and headless constraints.
Nodes are immutable named tuples, except :class:`Rule`, an immutable
slotted class whose span stays out of equality so that a parse /
pretty-print / re-parse round trip compares equal.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Union

from .facts import Fact, Frozen, Symbol, format_constant

#: Variables created for each anonymous ``_`` occurrence use this prefix;
#: it cannot collide with surface syntax, and they print back as ``_``.
ANON_PREFIX = "_#"


class Variable(NamedTuple):
    name: str

    @property
    def is_anonymous(self) -> bool:
        return self.name.startswith(ANON_PREFIX)

    def __str__(self) -> str:
        return "_" if self.is_anonymous else self.name


class ArithTerm(NamedTuple):
    """Integer arithmetic over two terms; only ``+`` and ``-`` exist."""

    op: str  # '+' or '-'
    left: "Term"
    right: "Term"

    def __str__(self) -> str:
        return f"{format_term(self.left)} {self.op} {format_term(self.right)}"


Term = Union[Variable, ArithTerm, int, Symbol, str]


class Atom(NamedTuple):
    predicate: str
    terms: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        return f"{self.predicate}({', '.join(format_term(t) for t in self.terms)})"


class NafLiteral(NamedTuple):
    """Negation-as-failure: holds when the atom is not derivable."""

    atom: Atom

    def __str__(self) -> str:
        return f"not {self.atom}"


class Comparison(NamedTuple):
    left: Term
    op: str
    right: Term

    def __str__(self) -> str:
        return f"{format_term(self.left)} {self.op} {format_term(self.right)}"


ConditionLiteral = Union[Atom, Comparison]


class CountAggregate(NamedTuple):
    """``#count{elem, ... : cond, ...}`` counting distinct element tuples."""

    elements: tuple[Term, ...]
    condition: tuple[ConditionLiteral, ...]

    def __str__(self) -> str:
        elems = ", ".join(format_term(t) for t in self.elements)
        conds = ", ".join(str(c) for c in self.condition)
        return f"#count{{{elems} : {conds}}}"


class AggregateLiteral(NamedTuple):
    """Aggregate in guard form (``#count{...} >= k``) or assignment form
    (``Var = #count{...}``, where op is ``=`` and bound is the variable)."""

    aggregate: CountAggregate
    op: str
    bound: Term

    @property
    def is_assignment(self) -> bool:
        return self.op == "="

    def __str__(self) -> str:
        if self.is_assignment:
            return f"{format_term(self.bound)} = {self.aggregate}"
        return f"{self.aggregate} {self.op} {format_term(self.bound)}"


BodyLiteral = Union[Atom, NafLiteral, Comparison, AggregateLiteral]


class Span(NamedTuple):
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


_NO_SPAN = Span(0, 0)


class Rule(Frozen):
    """A rule, or a constraint when ``head`` is None."""

    __slots__ = ("head", "body", "span")

    def __init__(self, head: Optional[Atom], body: tuple[BodyLiteral, ...],
                 span: Span = _NO_SPAN) -> None:
        for name, value in zip(self.__slots__, (head, body, span)):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rule) and (self.head, self.body) == (other.head, other.body)

    def __hash__(self) -> int:
        return hash((self.head, self.body))

    def __repr__(self) -> str:
        return f"Rule(head={self.head!r}, body={self.body!r}, span={self.span!r})"

    def __str__(self) -> str:
        body = ", ".join(str(lit) for lit in self.body)
        if self.head is None:
            return f":- {body}."
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {body}."


class Program(NamedTuple):
    consts: dict[str, int]
    rules: list[Rule]
    facts: list[Fact]


def format_term(term: Term) -> str:
    if isinstance(term, (Variable, ArithTerm)):
        return str(term)
    return format_constant(term)


def format_program(program: Program) -> str:
    """Canonical text form; re-parsing yields a structurally identical AST."""
    lines = [f"#const {name} = {value}." for name, value in program.consts.items()]
    lines.extend(str(rule) for rule in program.rules)
    lines.extend(f"{f}." for f in program.facts)
    return "\n".join(lines) + ("\n" if lines else "")


def term_variables(term: Term) -> Iterator[Variable]:
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, ArithTerm):
        yield from term_variables(term.left)
        yield from term_variables(term.right)


def literal_variables(literal: BodyLiteral) -> Iterator[Variable]:
    """All variables of a literal, aggregate-local ones included."""
    if isinstance(literal, Atom):
        for term in literal.terms:
            yield from term_variables(term)
    elif isinstance(literal, NafLiteral):
        yield from literal_variables(literal.atom)
    elif isinstance(literal, Comparison):
        yield from term_variables(literal.left)
        yield from term_variables(literal.right)
    elif isinstance(literal, AggregateLiteral):
        for term in literal.aggregate.elements:
            yield from term_variables(term)
        for cond in literal.aggregate.condition:
            yield from literal_variables(cond)
        yield from term_variables(literal.bound)
    else:
        raise TypeError(f"not a body literal: {literal!r}")


def rule_global_variables(rule: Rule) -> set[Variable]:
    """Variables visible rule-wide. Variables occurring only inside one
    aggregate's element/condition are local to that aggregate."""
    names: set[Variable] = set()
    if rule.head is not None:
        for term in rule.head.terms:
            names.update(term_variables(term))
    for literal in rule.body:
        if isinstance(literal, AggregateLiteral):
            names.update(term_variables(literal.bound))
        else:
            names.update(literal_variables(literal))
    return names

