"""Bottom-up evaluation of safe, stratified programs.

The unique stable model is computed stratum by stratum: every rule fires
once over the model, then recursive rules run semi-naive rounds. A round
re-joins each recursive rule once per body atom of the stratum, scanning
there only the atoms new in the previous round. Rows only grow, in
insertion order, so those atoms are the window of rows the previous round
appended to the model's relation; every scan visits only the rows present
when it starts, so a round never joins its own output. Negation and
aggregates only consult strata that are already complete.

Grounding is on-the-fly: ``evaluate`` takes every rule's join orders from
one ``analysis.analyze`` call, and each stratum writes its rules' plans as
Python source, one function per plan with a nested ``for`` loop per scan
and an ``if`` per check, a local per variable, and the head atom and its
record built inline where it is emitted. A stratum's static plans compile
in one ``compile`` call when it starts, and its round plans in one more
when its first round starts; the constraints run last, as a stratum of no
predicates. A plan that can only join nothing is not written, and the code
lives only as long as that ``evaluate`` call. The source names every
constant, relation and helper by reference, never by value.

The model holds one relation per predicate and arity, with one kind of
index: a hash map from the values at a set of positions to exactly the rows
that hold them, kept current once built. A generated function fetches each
index it reads once, at its top, which builds the index if it does not exist
yet. A ``#count`` of one range-guarded variable is answered from the sorted
values of that variable in each bucket of the index on its group positions:
the range starts as the whole bucket and each guard, in the condition's join
order, narrows it by one bisection. Every other aggregate enumerates its
matches.

A relation maps each argument tuple to its :data:`Record`: the rule and
supports that first derived the atom, from which any alert unfolds into
its derivation, in one flat tuple of constants and plain tuples that the
cyclic collector can untrack. :class:`DerivationGraph` resolves a record
when it is read. Checks, derivations and nodes are named tuples, as facts
are; :class:`Inconsistent` is a class, so it cannot unpack as a result.
``evaluate`` pauses the cyclic collector while it runs. Iteration never
depends on hash seeds: atom storage is insertion-ordered and all query
output is sorted.
"""
from __future__ import annotations

import gc
import math
import re
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Set
from functools import cache, partial
from itertools import chain, count, islice, repeat
from operator import countOf, itemgetter
from types import CodeType
from typing import AbstractSet, Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .analysis import EvaluationError, RulePlan, analyze, literal_binds, literal_needs
from .facts import Constant, Fact, constant_key, format_constant, new_tuple
from .lang import (
    AggregateLiteral,
    ArithTerm,
    Atom,
    BodyLiteral,
    Comparison,
    NafLiteral,
    Program,
    Rule,
    Term,
    Variable,
    literal_variables,
    term_variables,
)


class NotDerivedError(LookupError):
    def __init__(self, atom: Fact):
        self.atom = atom
        super().__init__(f"atom not in model: {atom}")


Row = tuple[Constant, ...]


class _Relation:
    """One predicate's atoms of one arity: argument tuples in insertion
    order, the derivation record of each tuple (None for an input fact),
    and the hash indexes built so far, one per set of bound positions.

    A semi-naive delta is a relation over a copy of a window of another
    relation's rows; its ``atoms`` stay empty, since only scans read it."""

    __slots__ = ("predicate", "rows", "atoms", "indexes")

    def __init__(self, predicate: str, rows: Optional[list[Row]] = None) -> None:
        self.predicate = predicate
        self.rows: list[Row] = [] if rows is None else rows
        self.atoms: dict[Row, Optional[Record]] = {}
        # bound positions -> (their item getter, rows by its value)
        self.indexes: dict[tuple[int, ...], tuple[Callable, dict[object, list[Row]]]] = {}

    def index(self, positions: tuple[int, ...]) -> dict[object, list[Row]]:
        """Rows by ``itemgetter(*positions)`` of their arguments (the value
        itself for one position, a tuple for several), each list in
        insertion order. Built on first use and kept current by every
        append from then on; ``()`` maps ``()`` to all rows. The lists are
        live, so a caller that appends while it scans takes a length first."""
        if not positions:
            return {(): self.rows}
        found = self.indexes.get(positions)
        if found is None:
            key, index = found = self.indexes[positions] = itemgetter(*positions), {}
            for args in self.rows:
                index.setdefault(key(args), []).append(args)
        return found[1]


class Model:
    """Insertion-ordered set of ground atoms, held as one relation per
    predicate and arity, each with a hash index per set of bound positions
    that a lookup has used.

    No :class:`Fact` is kept: a relation maps each of its argument tuples
    to the atom's derivation record, None for an input fact, and the
    model's order lists the relation of each atom. Iteration rebuilds the
    atoms in that order, with one cursor per relation over its rows.

    A relation's rows only grow, in insertion order, so the atoms one
    semi-naive round derives are the window of rows it appended; the next
    round's delta scans that window."""

    __slots__ = ("_order", "_relations")

    def __init__(self) -> None:
        self._order: list[_Relation] = []
        self._relations: dict[tuple[str, int], _Relation] = {}

    def add(self, atom: Fact) -> bool:
        """Add an atom as an input fact, one with no derivation record."""
        args = atom.args
        relation = self.relation(atom.predicate, len(args))
        if args in relation.atoms:
            return False
        relation.atoms[args] = None
        relation.rows.append(args)
        self._order.append(relation)
        for key, index in relation.indexes.values():
            index.setdefault(key(args), []).append(args)
        return True

    def relation(self, predicate: str, arity: int) -> _Relation:
        """The live relation of a predicate at an arity, empty until an atom
        is added."""
        relation = self._relations.get((predicate, arity))
        if relation is None:
            relation = self._relations[predicate, arity] = _Relation(predicate)
        return relation

    def __contains__(self, atom: Fact) -> bool:
        relation = self._relations.get((atom.predicate, len(atom.args)))
        return relation is not None and atom.args in relation.atoms

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Fact]:
        for relation, args in self._walk():
            yield new_tuple(Fact, (relation.predicate, args))

    def atoms(self, predicate: str) -> list[Row]:
        """The predicate's argument tuples at every arity, in model order."""
        return [args for relation, args in self._walk() if relation.predicate == predicate]

    def _walk(self) -> Iterator[tuple[_Relation, Row]]:
        """Each atom's relation and argument tuple, in model order: the
        order names the relation, and that relation's cursor the row."""
        cursors = {relation: iter(relation.rows) for relation in self._relations.values()}
        return zip(self._order, map(next, map(cursors.__getitem__, self._order)))


# -- derivation bookkeeping --------------------------------------------------


class NafCheck(NamedTuple):
    atom: Fact

    def __str__(self) -> str:
        return f"not {self.atom} holds"


class ComparisonCheck(NamedTuple):
    left: Constant
    op: str
    right: Constant

    def __str__(self) -> str:
        return f"{format_constant(self.left)} {self.op} {format_constant(self.right)}"


class AggregateCheck(NamedTuple):
    count: int
    op: str  # '=' when the count was assigned to a variable
    bound: Constant

    def __str__(self) -> str:
        if self.op == "=":
            return f"count {self.count}"
        return f"count {self.count} {self.op} threshold {format_constant(self.bound)}"


Check = Union[NafCheck, ComparisonCheck, AggregateCheck]


class Derivation(NamedTuple):
    """The rule and ground supports that first derived an atom, and the
    checks its binding passed: what ``DerivationGraph.entries`` resolves a
    record into. A named tuple, as :class:`Fact` is."""

    rule: Rule
    supports: tuple[Fact, ...]
    checks: tuple[Check, ...]


#: A derivation as ``emit`` records it, one flat tuple: the rule's index in
#: :attr:`DerivationGraph.rules`, the supports' argument tuples, and each
#: check as the plain tuple of its fields (a negation's: its atom's pair).
Record = tuple[Union[int, Row, tuple], ...]

#: Each kind of body literal's check, built from its plain tuple in a record.
_CHECK_OF: dict[type, Callable[[tuple], Check]] = {
    NafLiteral: lambda raw: new_tuple(NafCheck, (new_tuple(Fact, raw),)),
    Comparison: partial(new_tuple, ComparisonCheck),
    AggregateLiteral: partial(new_tuple, AggregateCheck),
}


class _Records(Mapping[Fact, Record]):
    """Each derived atom's record, read from its relation, in derivation
    order: the model's order without its input facts."""

    def __init__(self, graph: "DerivationGraph") -> None:
        self._graph = graph

    def __getitem__(self, atom: Fact) -> Record:
        try:
            record = self._graph.record(atom)
        except NotDerivedError:
            record = None
        if record is None:
            raise KeyError(atom)
        return record

    def __iter__(self) -> Iterator[Fact]:
        return self._graph._atoms(derived=True)

    def __len__(self) -> int:
        return sum(len(relation.atoms) - countOf(relation.atoms.values(), None)
                   for relation in self._graph.model._relations.values())


class _Entries(_Records):
    """Each derived atom's :class:`Derivation`, resolved from its record
    when read, in derivation order."""

    def __getitem__(self, atom: Fact) -> Derivation:  # type: ignore[override]
        return self._graph.resolve(super().__getitem__(atom))


class _FactAtoms(Set[Fact]):
    """The model's input facts, in model order."""

    def __init__(self, graph: "DerivationGraph") -> None:
        self._graph = graph

    def __contains__(self, atom: object) -> bool:
        try:
            return self._graph.record(atom) is None  # type: ignore[arg-type]
        except NotDerivedError:
            return False

    def __iter__(self) -> Iterator[Fact]:
        return self._graph._atoms(derived=False)

    def __len__(self) -> int:
        return len(self._graph.model) - len(self._graph.records)


class DerivationGraph:
    """The first derivation of every atom of a model, read from the model
    itself: each relation maps an argument tuple to its record, None for an
    input fact. ``rules[i]`` is rule i, its supports' predicates and what
    builds each of its checks. ``records``, ``entries`` and ``fact_atoms``
    are read-only views that build each :class:`Fact` as they yield it.

    A record holds no :class:`Rule` and no check object, which the collector
    always tracks, so the collector can untrack it once it has untracked the
    tuples in it; ``resolve`` builds the checks from those tuples.
    The graph references the model; the model does not reference the graph."""

    __slots__ = ("model", "rules")

    def __init__(self, model: Model) -> None:
        self.model = model
        self.rules: list[tuple[Rule, tuple[str, ...], tuple[Callable[[tuple], Check], ...]]] = []

    @property
    def records(self) -> Mapping[Fact, Record]:
        return _Records(self)

    @property
    def entries(self) -> Mapping[Fact, Derivation]:
        return _Entries(self)

    @property
    def fact_atoms(self) -> AbstractSet[Fact]:
        return _FactAtoms(self)

    def record(self, atom: Fact) -> Optional[Record]:
        """An atom's record, None for an input fact. Raises
        :class:`NotDerivedError` for an atom the model does not hold."""
        try:
            return self.model._relations[atom.predicate, len(atom.args)].atoms[atom.args]
        except KeyError:
            raise NotDerivedError(atom) from None

    def _atoms(self, derived: bool) -> Iterator[Fact]:
        """The model's derived atoms, or else its input facts, in model order."""
        for relation, args in self.model._walk():
            if (relation.atoms[args] is not None) is derived:
                yield new_tuple(Fact, (relation.predicate, args))

    def resolve(self, record: Record) -> Derivation:
        """The derivation a record stands for, its supports as facts."""
        rule, predicates, makers = self.rules[record[0]]
        end = 1 + len(predicates)
        supports = tuple([new_tuple(Fact, support) for support in zip(predicates, record[1:end])])
        checks = tuple([make(raw) for make, raw in zip(makers, record[end:])])
        return new_tuple(Derivation, (rule, supports, checks))


class DerivationNode(NamedTuple):
    atom: Fact
    rule: Optional[Rule]
    checks: tuple[Check, ...]
    children: list["DerivationNode"]

    @property
    def is_fact(self) -> bool:
        return self.rule is None


class Inconsistent:
    """A headless constraint fired; no model exists for this fact base.
    Not a tuple, so ``model, graph = evaluate(...)`` raises at once."""

    __slots__ = ("constraint", "witness")

    def __init__(self, constraint: Rule, witness: dict[str, Constant]) -> None:
        self.constraint, self.witness = constraint, witness

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Inconsistent) and \
            (self.constraint, self.witness) == (other.constraint, other.witness)

    def __repr__(self) -> str:
        return f"Inconsistent(constraint={self.constraint!r}, witness={self.witness!r})"

    def __str__(self) -> str:
        binding = ", ".join(f"{name}={format_constant(value)}"
                            for name, value in sorted(self.witness.items()))
        return f"constraint at {self.constraint.span} violated ({binding or 'ground'})"


# -- body planning -------------------------------------------------------------

#: Each ordering comparison, and the one that holds with its sides swapped.
_FLIPPED = {">=": "<=", "<=": ">=", ">": "<", "<": ">"}


class _RangeCount(NamedTuple):
    """A ``#count{T : p(...), T >= lo, T <= hi}`` answered by bisecting the
    sorted distinct ``constant_key(T)`` values of the matching group.

    ``index`` names the sorted index: predicate, arity, the position of
    ``T`` and the group positions, those holding constants or outer
    variables; ``key_terms`` are the terms at the group positions. Each
    guard is ``T <op> term`` with the term over outer variables.
    """

    index: tuple[str, int, int, tuple[int, ...]]
    key_terms: tuple[Term, ...]
    guards: tuple[tuple[str, Term], ...]


def _range_count_plan(literal: AggregateLiteral,
                      global_vars: AbstractSet[Variable]) -> Optional[_RangeCount]:
    """The range-count plan of an aggregate, or None when it does not fit."""
    agg = literal.aggregate
    atoms = [c for c in agg.condition if isinstance(c, Atom)]
    if len(agg.elements) != 1 or len(atoms) != 1:
        return None
    element, (atom,) = agg.elements[0], atoms
    outer = literal_needs(literal, global_vars)
    occurrences: dict[Variable, int] = {}
    for var in literal_variables(literal):
        occurrences[var] = occurrences.get(var, 0) + 1
    if not isinstance(element, Variable) or element in outer \
            or atom.terms.count(element) != 1:
        return None
    key_positions: list[int] = []
    key_terms: list[Term] = []
    for position, term in enumerate(atom.terms):
        if term == element:
            continue
        if isinstance(term, ArithTerm):
            return None
        if not isinstance(term, Variable) or term in outer:
            key_positions.append(position)
            key_terms.append(term)
        elif occurrences[term] != 1:
            return None
    guards: list[tuple[str, Term]] = []
    for cond in agg.condition:
        if cond is atom:
            continue
        if cond.op not in _FLIPPED:
            return None
        if cond.left == element:
            op, other = cond.op, cond.right
        elif cond.right == element:
            op, other = _FLIPPED[cond.op], cond.left
        else:
            return None
        if not set(term_variables(other)) <= outer:
            return None
        guards.append((op, other))
    index = (atom.predicate, len(atom.terms), atom.terms.index(element), tuple(key_positions))
    return _RangeCount(index, tuple(key_terms), tuple(guards))


class _CompiledRule(NamedTuple):
    """A rule, its index in :attr:`DerivationGraph.rules`, its plan from the
    analysis, and what each step of a plan needs.

    Every variable has a slot, a local of each generated plan. A record
    holds the supports in the static order of the positive atoms, then the
    checks in the static order of the other literals, whatever order a plan
    joins them in."""

    rule: Rule
    index: int
    plan: RulePlan
    slots: dict[Variable, int]
    range_counts: dict[int, _RangeCount]
    records: dict[int, int]  # body index -> its position in a Record
    support_predicates: tuple[str, ...]
    checks: tuple[Callable[[tuple], Check], ...]  # per check in a Record, what makes it


def _compile_rule(rule: Rule, plan: RulePlan, index: int) -> _CompiledRule:
    slots: dict[Variable, int] = {}  # the rule is safe: its head's variables are among these
    for literal in rule.body:
        for var in literal_variables(literal):
            slots.setdefault(var, len(slots))
    atoms = [i for i in plan.order if isinstance(rule.body[i], Atom)]
    others = [i for i in plan.order if not isinstance(rule.body[i], Atom)]
    return _CompiledRule(
        rule, index, plan, slots,
        range_counts={i: count for i in plan.conditions
                      if (count := _range_count_plan(rule.body[i], plan.global_variables))
                      is not None},
        records={i: k for k, i in enumerate(atoms + others, 1)},
        support_predicates=tuple(rule.body[i].predicate for i in atoms),
        checks=tuple(_CHECK_OF[type(rule.body[i])] for i in others))


# -- generated join code ---------------------------------------------------------

#: The nesting one generated function may reach before the rest of a plan
#: moves into a helper function that it calls. CPython refuses more than 20
#: statically nested blocks and 100 levels of indentation, and a literal
#: opens at most a few more levels below this one.
_MAX_DEPTH = 16

#: The comparisons of the rule language, each spelled as in Python.
_COMPARISONS = frozenset(("==", "!=", ">=", "<=", ">", "<"))

#: A name the generator gives a referenced object (``k``) or a function
#: (``f``); compiled by ``re`` on first use, not at import.
_REFERENCE = r"\b[kf]\d+\b"


@cache
def _integer_limit(digits: int) -> Union[int, float]:
    """The least integer of more than ``digits`` digits (none if 0)."""
    return 10 ** digits if digits else math.inf


def _unbound(variable: Variable, rule: Rule) -> None:
    raise EvaluationError(f"unbound variable {variable}", rule)


def _sum(rule: Rule, op: str, digits: int, a: Constant, b: Constant) -> int:
    """``a op b`` for two integers whose result can be written out in at
    most ``digits`` digits; any other operands end in an EvaluationError."""
    if not isinstance(a, int) or not isinstance(b, int):
        raise EvaluationError("arithmetic on non-integer constant "
                              f"({format_constant(a)} {op} {format_constant(b)})", rule)
    value = a + b if op == "+" else a - b
    limit = _integer_limit(digits)
    if -limit < value < limit:
        return value
    raise EvaluationError(f"'{op}' gives an integer of more than {digits} digits, "
                          "the interpreter's limit for writing one out", rule)


def _tuple(items: Sequence[str]) -> str:
    """Source of a tuple display of the given expressions."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _compile(source: str) -> CodeType:
    """The one place generated source is compiled, so a test can read it."""
    return compile(source, "<plans>", "exec")


class _Found(Exception):
    """Stops a constraint's join at its first solution; its arguments are
    the constraint and the witness."""


class _Function:
    """A generated function: its name, its parameters, its body as indented
    lines, and its prelude: each index it reads, as the expression that
    fetches it and the local set to it once, at the top of the function."""

    __slots__ = ("name", "params", "lines", "prelude")

    def __init__(self, name: str, params: Sequence[str]) -> None:
        self.name, self.params = name, tuple(params)
        self.lines: list[str] = []
        self.prelude: dict[str, str] = {}  # expression -> its local

    def write(self, depth: int, line: str) -> None:
        self.lines.append("    " * (depth + 1) + line)


class _Source:
    """The Python source of a batch of plans, compiled with one ``compile``
    call. The source holds only names it makes and small integers: every
    constant, relation and helper is a default argument named ``k<n>``, so
    no value or name of the program is ever written into it."""

    def __init__(self, evaluator: _Evaluator) -> None:
        self.evaluator = evaluator
        self.functions: list[_Function] = []
        self.namespace: dict[str, object] = {}
        self.names: dict[int, str] = {}  # id of a referenced object -> its name
        self.counter = count()

    def local(self, prefix: str) -> str:
        return f"{prefix}{next(self.counter)}"

    def ref(self, value: object) -> str:
        """The name a generated function reads the object by."""
        name = self.names.get(id(value))
        if name is None:
            name = self.names[id(value)] = self.local("k")
            self.namespace[name] = value
        return name

    def function(self, params: Sequence[str]) -> _Function:
        function = _Function(self.local("f"), params)
        self.functions.append(function)
        return function

    def build(self, names: Sequence[str]) -> list[Callable[[], None]]:
        """Compile every function and return the named ones. A function
        takes each name it reads as a default argument, so once they are
        defined the namespace is emptied and holds no reference cycle."""
        lines: list[str] = []
        for function in reversed(self.functions):  # a helper before its caller
            body = [*(f"    {name} = {fetch}" for fetch, name in function.prelude.items()),
                    *function.lines]
            used = dict.fromkeys(re.findall(_REFERENCE, "\n".join(body)))
            params = [*function.params, *(f"{name}={name}" for name in used)]
            lines.append(f"def {function.name}({', '.join(params)}):")
            lines.extend(body)
        exec(_compile("\n".join(lines)), self.namespace)
        built = [self.namespace[name] for name in names]
        self.namespace.clear()
        return built  # type: ignore[return-value]


class _PlanWriter:
    """Writes one plan of a rule as one function of a :class:`_Source`,
    with one nested ``for`` loop per scan and one ``if`` per check. A
    variable's slot ``s`` is the local ``v<s>``; a record is built from the
    locals that hold each support row and each check's values. Past
    ``_MAX_DEPTH`` levels the rest of the steps go into a helper function,
    which takes the bound slots that they read and, in a rule's body, the
    record's entries so far packed into one tuple, so the source stays
    linear in the rule."""

    def __init__(self, source: _Source, compiled: _CompiledRule,
                 delta_index: Optional[int]) -> None:
        self.source, self.compiled, self.delta_index = source, compiled, delta_index
        self.ref, self.local = source.ref, source.local
        self.slots, self.rule = compiled.slots, compiled.rule
        self.entries: dict[int, str] = {}  # body index -> its entry in a record
        self.pack: Optional[str] = None  # the local holding the entries packed at splits
        self.packs: list[tuple[bool, list[int]]] = []  # per split: chained?, body indexes

    def write(self) -> str:
        """Write the plan; return its function's name."""
        function = self.source.function(())
        body, plan = self.rule.body, self.compiled.plan
        order = plan.order if self.delta_index is None else plan.deltas[self.delta_index]
        steps = [(body[i], i) for i in order]
        if self.rule.head is None:
            named = {slot for var, slot in self.slots.items() if not var.is_anonymous}
            self.steps(function, 0, steps, frozenset(), self.found, named, (), True)
        else:
            self.steps(function, 0, steps, frozenset(), self.emit,
                       self.slots_of(self.rule.head.terms), (), True)
        return function.name

    def slots_of(self, terms: Sequence[Term]) -> set[int]:
        return {self.slots[var] for term in terms for var in term_variables(term)}

    def slots_of_literal(self, literal: BodyLiteral) -> set[int]:
        return {self.slots[var] for var in literal_variables(literal)}

    def steps(self, function: _Function, depth: int,
              steps: Sequence[tuple[BodyLiteral, Optional[int]]], bound: frozenset[int],
              finish: Callable[[_Function, int, frozenset[int]], None], reads: AbstractSet[int],
              extra: tuple[str, ...], body: bool) -> None:
        """Write steps, each a literal and its body index (None inside an
        aggregate), nested from ``depth``; then ``finish`` at the innermost
        level, given the slots bound there. ``finish`` reads the slots
        ``reads`` and the locals ``extra``; ``body`` says whether the steps
        are a rule's body, whose entries a record holds."""
        last: dict[int, int] = {}  # slot -> the last step that reads or binds it
        for position, (literal, _) in enumerate(steps):
            last.update(dict.fromkeys(self.slots_of_literal(literal), position))
        for position, (literal, index) in enumerate(steps):
            if depth >= _MAX_DEPTH:
                used = {slot for slot in bound if slot in reads or last.get(slot, -1) >= position}
                function, depth = self.split(function, depth, used, extra, body), 0
            if isinstance(literal, Atom):
                depth = self.scan(function, depth, literal, index, bound)
            elif isinstance(literal, NafLiteral):
                depth = self.naf(function, depth, literal, index, bound)
            elif isinstance(literal, Comparison):
                depth = self.compare(function, depth, literal, index, bound)
            elif isinstance(literal, AggregateLiteral) and index is not None:
                depth = self.aggregate(function, depth, literal, index, bound)
            else:
                raise EvaluationError(f"unsupported body literal {literal!r}", self.rule)
            bound = bound | {self.slots[var] for var in literal_binds(literal)}
        finish(function, depth, bound)

    def split(self, function: _Function, depth: int, used: AbstractSet[int],
              extra: tuple[str, ...], body: bool) -> _Function:
        """A new helper function for the rest of the steps, which the
        function calls with the slots ``used`` and the locals ``extra``;
        in a body also with the record's entries so far, packed into one
        tuple after the pack the function was given, if any."""
        params = [*(f"v{slot}" for slot in sorted(used)), *extra]
        args = list(params)
        if body and (self.entries or self.pack):
            self.packs.append((self.pack is not None, list(self.entries)))
            args.append(_tuple([*([self.pack] if self.pack else []), *self.entries.values()]))
            self.pack = self.local("r")
            params.append(self.pack)
            self.entries = {}
        helper = self.source.function(params)
        function.write(depth, f"{helper.name}({', '.join(args)})")
        return helper

    def value(self, function: _Function, depth: int, term: Term, bound: AbstractSet[int]) -> str:
        """A name that holds a term's value: a slot's local, a referenced
        constant, or a local set here to a sum, its left operand first."""
        if isinstance(term, Variable):
            if self.slots[term] in bound:
                return f"v{self.slots[term]}"
            name = self.local("t")
            function.write(depth, f"{name} = {self.ref(partial(_unbound, term, self.rule))}()")
            return name
        if isinstance(term, ArithTerm):
            left = self.value(function, depth, term.left, bound)
            right = self.value(function, depth, term.right, bound)
            add = partial(_sum, self.rule, term.op, sys.get_int_max_str_digits())
            name = self.local("t")
            function.write(depth, f"{name} = {self.ref(add)}({left}, {right})")
            return name
        return self.ref(term)

    def fetch(self, function: _Function, expression: str) -> str:
        """The local that the function sets to an index's expression once,
        at its top."""
        name = function.prelude.get(expression)
        if name is None:
            name = function.prelude[expression] = self.local("i")
        return name

    def key(self, function: _Function, depth: int, terms: Sequence[Term],
            bound: AbstractSet[int]) -> str:
        """The terms' values as a key of :meth:`_Relation.index` on their
        positions: the value itself for one term, a tuple otherwise."""
        values = [self.value(function, depth, term, bound) for term in terms]
        return values[0] if len(values) == 1 else _tuple(values)

    def scan(self, function: _Function, depth: int, atom: Atom, index: Optional[int],
             bound: frozenset[int]) -> int:
        """Join one positive atom: loop over the rows that match its bound
        positions in the relation's index on them, skip a row whose repeats
        within the atom differ, and bind its new slots. Only the rows
        present when the scan starts are visited. A delta scan reads the
        current round's window. Only a model relation of the stratum being
        evaluated grows during a scan, so only its rows are cut to their
        length at the start: a delta window is a copy, and a lower stratum
        is complete. The index is fetched at the top of the function, and
        so built, if it does not exist yet, when the function is called."""
        positions: list[int] = []
        key_terms: list[Term] = []
        targets: list[str] = []  # per position, the local it sets or "_"
        repeats: list[tuple[str, int]] = []  # a later occurrence's local, the slot
        for position, term in enumerate(atom.terms):
            slot = self.slots[term] if isinstance(term, Variable) else None
            if slot is None or slot in bound:
                positions.append(position)
                key_terms.append(term)
                targets.append("_")
            elif f"v{slot}" in targets:
                targets.append(self.local("t"))
                repeats.append((targets[-1], slot))
            else:
                targets.append(f"v{slot}")
        name = (atom.predicate, len(atom.terms))
        delta = index is not None and index == self.delta_index
        if delta:
            relation = f"{self.ref(self.source.evaluator.windows)}[{self.ref(name)}]"
        else:
            relation = self.ref(self.source.evaluator.model.relation(*name))
        if positions:
            key = self.key(function, depth, key_terms, bound)
            lookup = self.fetch(function, f"{relation}.index({tuple(positions)!r})")
            rows = f"{lookup}.get({key}, ())"
        else:
            rows = f"{relation}.rows"
        if not delta and index in self.compiled.plan.deltas:  # it grows
            cut = self.local("x")
            function.write(depth, f"{cut} = {rows}")
            rows = f"{self.ref(islice)}({cut}, {self.ref(len)}({cut}))"
        row = self.local("a")
        function.write(depth, f"for {row} in {rows}:")
        if any(target != "_" for target in targets):
            function.write(depth + 1, f"{', '.join(targets)}, = {row}")
        for target, slot in repeats:
            function.write(depth + 1, f"if {target} != v{slot}: continue")
        if index is not None:
            self.entries[index] = row
        return depth + 1

    def naf(self, function: _Function, depth: int, literal: NafLiteral, index: Optional[int],
            bound: frozenset[int]) -> int:
        atom = literal.atom
        values = [self.value(function, depth, term, bound) for term in atom.terms]
        args = self.local("n")
        known = self.source.evaluator.model.relation(atom.predicate, len(atom.terms)).atoms
        function.write(depth, f"{args} = {_tuple(values)}")
        function.write(depth, f"if {args} not in {self.ref(known)}:")
        if index is not None:
            self.entries[index] = f"({self.ref(atom.predicate)}, {args})"
        return depth + 1

    def compare(self, function: _Function, depth: int, literal: Comparison,
                index: Optional[int], bound: frozenset[int]) -> int:
        """``==``/``!=`` across kinds are plain inequality; ordering
        comparisons use the kind-first total order (integers < symbols <
        strings)."""
        left = self.value(function, depth, literal.left, bound)
        right = self.value(function, depth, literal.right, bound)
        op = literal.op
        if op not in _COMPARISONS:
            raise ValueError(f"unknown comparison operator {op!r}")
        if op in ("==", "!="):
            function.write(depth, f"if {left} {op} {right}:")
        else:  # a constant's key is worked out here, once
            left_key, right_key = (
                f"{self.ref(constant_key)}({value})" if isinstance(term, (Variable, ArithTerm))
                else self.ref(constant_key(term))
                for term, value in ((literal.left, left), (literal.right, right)))
            function.write(depth, f"if {left_key} {op} {right_key}:")
        if index is not None:
            self.entries[index] = f"({left}, {self.ref(op)}, {right})"
        return depth + 1

    def aggregate(self, function: _Function, depth: int, literal: AggregateLiteral, index: int,
                  bound: frozenset[int]) -> int:
        """Count the aggregate's elements, by bisection when it has a range
        plan, else by joining its condition; then assign or test the count."""
        count = self.local("n")
        plan = self.compiled.range_counts.get(index)
        if plan is None:
            elements = self.enumerate(function, depth, literal, index, bound)
            function.write(depth, f"{count} = {self.ref(len)}({elements})")
        else:
            self.range_count(function, depth, bound, plan, count)
        op = literal.op
        if literal.is_assignment:
            assert isinstance(literal.bound, Variable)
            slot = self.slots[literal.bound]
            self.entries[index] = f"({count}, {self.ref(op)}, {count})"
            if slot in bound:
                function.write(depth, f"if v{slot} == {count}:")
                return depth + 1
            function.write(depth, f"v{slot} = {count}")
            return depth
        if op not in _COMPARISONS:
            raise ValueError(f"unknown comparison operator {op!r}")
        threshold = self.value(function, depth, literal.bound, bound)
        self.entries[index] = f"({count}, {self.ref(op)}, {threshold})"
        function.write(depth, f"if {self.ref(isinstance)}({threshold}, {self.ref(int)}) and "
                              f"{count} {op} {threshold}:")
        return depth + 1

    def enumerate(self, function: _Function, depth: int, literal: AggregateLiteral, index: int,
                  bound: frozenset[int]) -> str:
        """Join the aggregate's condition, collecting its distinct elements
        into a set; return the set's local."""
        elements = self.local("e")
        function.write(depth, f"{elements} = {self.ref(set)}()")
        terms = literal.aggregate.elements

        def collect(function: _Function, depth: int, inner: frozenset[int]) -> None:
            values = [self.value(function, depth, term, inner) for term in terms]
            # one element is counted as itself: distinct 1-tuples are distinct values
            element = values[0] if len(values) == 1 else _tuple(values)
            function.write(depth, f"{elements}.add({element})")

        condition = literal.aggregate.condition
        self.steps(function, depth,
                   [(condition[k], None) for k in self.compiled.plan.conditions[index]],
                   bound, collect, self.slots_of(terms), (elements,), False)
        return elements

    def range_count(self, function: _Function, depth: int, bound: frozenset[int],
                    plan: _RangeCount, count: str) -> None:
        """Set ``count`` to how many of the group's sorted keys lie in range.
        The range starts as the whole group; each guard, in the condition's
        join order, narrows it from below or above by one bisection. A
        guard's value is worked out only while the range holds a key, as
        the general path works it out only on a row that passed the guards
        before it, so the two raise alike."""
        groups = self.fetch(function, f"{self.ref(self.source.evaluator.range_index)}"
                                      f"({self.ref(plan.index)})")
        keys, low = self.local("x"), self.local("l")
        function.write(depth, f"{keys} = {groups}.get("
                              f"{self.key(function, depth, plan.key_terms, bound)}, ())")
        function.write(depth, f"{low}, {count} = 0, {self.ref(len)}({keys})")
        for op, term in plan.guards:
            function.write(depth, f"if {low} < {count}:")
            value = self.value(function, depth + 1, term, bound)
            search = bisect_left if op in (">=", "<") else bisect_right
            narrowed = low if op in (">=", ">") else count
            function.write(depth + 1, f"{narrowed} = {self.ref(search)}({keys}, "
                                      f"{self.ref(constant_key)}({value}), {low}, {count})")
        function.write(depth, f"{count} -= {low}")

    def emit(self, function: _Function, depth: int, bound: frozenset[int]) -> None:
        """The last step of a rule's plans: append the head atom if it is
        new, with the record of the binding's supports and checks, as
        :meth:`Model.add` would with no record."""
        head = self.rule.head
        assert head is not None
        model, ref = self.source.evaluator.model, self.ref
        relation = model.relation(head.predicate, len(head.terms))
        values = [self.value(function, depth, term, bound) for term in head.terms]
        args, key, index = self.local("h"), self.local("x"), self.local("i")
        function.write(depth, f"{args} = {_tuple(values)}")
        function.write(depth, f"if {args} not in {ref(relation.atoms)}:")
        packed = self.pack
        for chained, indexes in reversed(self.packs):  # the entries packed at splits
            previous = self.local("r") if chained else None
            names = [self.local("c") for _ in indexes]
            targets = [*([previous] if previous else []), *names]
            function.write(depth + 1, f"{', '.join(targets)}, = {packed}")
            self.entries.update(zip(indexes, names))
            packed = previous
        records = self.compiled.records
        record = [str(self.compiled.index),
                  *(self.entries[i] for i in sorted(records, key=records.get))]
        function.write(depth + 1, f"{ref(relation.atoms)}[{args}] = {_tuple(record)}")
        function.write(depth + 1, f"{ref(relation.rows)}.append({args})")
        function.write(depth + 1, f"{ref(model._order)}.append({ref(relation)})")
        function.write(depth + 1, f"if {ref(relation.indexes)}:")
        function.write(depth + 2, f"for {key}, {index} in {ref(relation.indexes)}.values():")
        function.write(depth + 3, f"{index}.setdefault({key}({args}), []).append({args})")

    def found(self, function: _Function, depth: int, bound: frozenset[int]) -> None:
        """The last step of a constraint's plan: stop at the first binding,
        with its named variables as the witness."""
        named = sorted((var.name, slot) for var, slot in self.slots.items()
                       if slot in bound and not var.is_anonymous)
        names = tuple(name for name, _ in named)
        values = _tuple([f"v{slot}" for _, slot in named])
        function.write(depth, f"raise {self.ref(_Found)}({self.ref(self.rule)}, "
                              f"{self.ref(dict)}({self.ref(zip)}({self.ref(names)}, {values})))")


class _Evaluator:
    def __init__(self, model: Model):
        self.model = model
        # per stratum relation, the rows the last semi-naive round appended
        self.windows: dict[tuple[str, int], _Relation] = {}
        # sorted range indexes, built on first use: group key -> sorted keys
        self.ranges: dict[tuple, dict[object, list[tuple]]] = {}

    def plans(self, jobs: Sequence[tuple[_CompiledRule, Optional[int]]],
              stratum_predicates: frozenset[str]) -> list[Callable[[], None]]:
        """Compile in one batch the plans of a stratum, each a rule and the
        body index of its delta atom (None for its static plan). A plan is
        left out when its first literal is an atom with no arithmetic term
        over a complete relation, one outside the stratum, that holds no row
        at its arity: its scan joins nothing and raises nothing. A batch
        left with no plan compiles nothing."""
        source = _Source(self)
        names = [_PlanWriter(source, compiled, delta).write() for compiled, delta in jobs
                 if not self.joins_nothing(compiled, delta, stratum_predicates)]
        return source.build(names) if names else []

    def joins_nothing(self, compiled: _CompiledRule, delta: Optional[int],
                      stratum_predicates: frozenset[str]) -> bool:
        order = compiled.plan.order if delta is None else compiled.plan.deltas[delta]
        first = compiled.rule.body[order[0]] if order else None
        return isinstance(first, Atom) and first.predicate not in stratum_predicates \
            and not any(isinstance(term, ArithTerm) for term in first.terms) \
            and not self.model.relation(first.predicate, len(first.terms)).rows

    def range_index(self, index: tuple) -> dict[object, list[tuple]]:
        """Sorted distinct keys of the counted position per group, read from
        the relation's index on the group positions. The counted predicate
        sits in a strictly lower, complete stratum, so the sorted index
        built on first use stays valid for the whole evaluation."""
        groups = self.ranges.get(index)
        if groups is None:
            predicate, arity, position, group_positions = index
            buckets = self.model.relation(predicate, arity).index(group_positions)
            groups = self.ranges[index] = {
                group: sorted({constant_key(args[position]) for args in rows})
                for group, rows in buckets.items()}
        return groups

    # stratum evaluation

    def run_stratum(self, rules: Sequence[_CompiledRule],
                    stratum_predicates: frozenset[str]) -> None:
        """Compile the rules' static plans in one batch and run each once
        over the model, then run semi-naive rounds: each recursive rule
        re-joins once per body atom of the stratum, scanning there only the
        window of rows the last round appended, until a round appends none.
        The round plans compile in a second batch when the first round
        starts. A constraint's plan raises :class:`_Found` at its first
        witness."""
        for compiled in rules:  # every relation of the stratum that a round reads
            for atom in (compiled.rule.head, *compiled.rule.body):
                if isinstance(atom, Atom) and atom.predicate in stratum_predicates:
                    self.model.relation(atom.predicate, len(atom.terms))
        relations = {name: relation for name, relation in self.model._relations.items()
                     if name[0] in stratum_predicates}
        before = {name: len(relation.rows) for name, relation in relations.items()}
        for plan in self.plans([(compiled, None) for compiled in rules], stratum_predicates):
            plan()
        deltas = [(compiled, i) for compiled in rules for i in compiled.plan.deltas]
        rounds: Optional[list[Callable[[], None]]] = None
        while deltas:
            after = {name: len(relation.rows) for name, relation in relations.items()}
            if after == before:
                break
            if rounds is None:
                rounds = self.plans(deltas, stratum_predicates)
            self.windows.clear()
            for name, relation in relations.items():
                self.windows[name] = _Relation(name[0], relation.rows[before[name]:after[name]])
            before = after
            for plan in rounds:
                plan()


# -- public API ----------------------------------------------------------------


def evaluate(program: Program,
             extra_facts: Sequence[Fact] = (),
             ) -> Union[tuple[Model, DerivationGraph], Inconsistent]:
    """Compute the unique stable model and its derivation graph.

    Returns :class:`Inconsistent` (a result, not an exception) when a
    headless constraint is violated, naming the constraint and a witness
    binding. Raises :class:`SafetyError` / :class:`CycleThroughNegation`
    for programs outside the supported fragment.

    The cyclic collector is paused while it runs: a run makes many tracked
    objects and almost no cyclic garbage. It is on again afterwards only if
    it was on before.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        analysis = analyze(program)

        model = Model()
        for atom in chain(program.facts, extra_facts):
            model.add(atom)
        graph = DerivationGraph(model)

        evaluator = _Evaluator(model)
        rules = [_compile_rule(rule, plan, index)
                 for index, (rule, plan) in enumerate(zip(program.rules, analysis.plans))]
        graph.rules.extend((c.rule, c.support_predicates, c.checks) for c in rules)
        strata = [*analysis.stratification.strata, ()]  # the constraints' stratum last
        stratum_rules: list[list[_CompiledRule]] = [[] for _ in strata]
        for compiled in rules:
            head = compiled.rule.head
            level = -1 if head is None else analysis.stratification.level[head.predicate]
            stratum_rules[level].append(compiled)
        try:
            for stratum, predicates in zip(stratum_rules, strata):
                evaluator.run_stratum(stratum, frozenset(predicates))
        except _Found as found:
            return Inconsistent(*found.args)
        return model, graph
    finally:
        if enabled:
            gc.enable()


def query(model: Model, predicate: str) -> list[Fact]:
    """The model's atoms of a predicate at every arity, sorted by arguments
    in ``constant_key`` order; unknown predicates yield an empty list. The
    argument tuples are sorted, and each :class:`Fact` is built once sorted.

    The tuples are first sorted as they are. Two constants of one kind
    compare as their keys do, or raise (two symbols); two of different
    kinds are never equal, and ordering them raises. So a sort that ends
    has compared as the keys would and is in key order; one that raises is
    redone by key, and distinct rows never tie."""
    rows = [args for (name, _), relation in model._relations.items() if name == predicate
            for args in relation.rows]
    try:
        rows.sort()
    except TypeError:
        rows.sort(key=lambda args: tuple(map(constant_key, args)))
    return list(map(new_tuple, repeat(Fact), zip(repeat(predicate), rows)))


def explain(graph: DerivationGraph, atom: Fact) -> DerivationNode:
    """Unfold an atom's first recorded derivation down to input facts: a
    DAG with one node per derived atom, which unfolds to the tree of first
    derivations; each input-fact leaf is a node of its own. Iterative, so a
    derivation of any depth unfolds."""
    nodes: dict[Fact, DerivationNode] = {}
    roots: list[DerivationNode] = []
    pending: list[tuple[list[DerivationNode], Fact]] = [(roots, atom)]
    record_of = graph.record
    while pending:  # depth first, supports left to right
        siblings, atom = pending.pop()
        node = nodes.get(atom)
        if node is None:
            record = record_of(atom)
            if record is None:
                siblings.append(new_tuple(DerivationNode, (atom, None, (), [])))
                continue
            entry = graph.resolve(record)
            node = nodes[atom] = new_tuple(DerivationNode, (atom, entry.rule, entry.checks, []))
            pending.extend((node.children, support) for support in reversed(entry.supports))
        siblings.append(node)
    return roots[0]
