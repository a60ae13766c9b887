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
one ``analysis.analyze`` call and compiles each into a plan, a chain of
closures over a list environment with one slot per variable; each step
knows at compile time which positions bind a slot, which check a bound
slot or a repeat within the atom, and which hold constants or arithmetic.

The model holds one relation per predicate and arity, with one kind of
index: a hash map from the values at a set of positions to exactly the rows
that hold them, built on first use and kept current. A ``#count`` of one
range-guarded variable is answered by bisecting the sorted values of that
variable in each bucket of the index on its group positions; every other
aggregate enumerates its matches.

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
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Set
from functools import cache, partial
from itertools import chain, islice, repeat
from operator import countOf, ge, gt, itemgetter, le, lt
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


# -- comparison and arithmetic ------------------------------------------------

_ORDERED = {">=": ge, "<=": le, ">": gt, "<": lt}


def compare_constants(left: Constant, op: str, right: Constant) -> bool:
    """``==``/``!=`` across kinds are plain inequality; ordering comparisons
    use the kind-first total order (integers < symbols < strings)."""
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op not in _ORDERED:
        raise ValueError(f"unknown comparison operator {op!r}")
    return _ORDERED[op](constant_key(left), constant_key(right))


# -- body planning -------------------------------------------------------------

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
        if cond.op not in _ORDERED:
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
    """A rule, its plan from the analysis, what each step needs, and the
    :data:`Record` of the binding its plans are building.

    Every variable has a slot in a list environment. A record holds the
    supports in the static order of the positive atoms, then the checks in
    the static order of the other literals, whatever order a plan joins
    them in."""

    rule: Rule
    plan: RulePlan
    slots: dict[Variable, int]
    range_counts: dict[int, _RangeCount]
    records: dict[int, int]  # body index -> its position in a Record
    support_predicates: tuple[str, ...]
    checks: tuple[Callable[[tuple], Check], ...]  # per check in a Record, what makes it
    record: list  # the rule's index in DerivationGraph.rules, then the binding


def _compile_rule(rule: Rule, plan: RulePlan, index: int) -> _CompiledRule:
    slots: dict[Variable, int] = {}  # the rule is safe: its head's variables are among these
    for literal in rule.body:
        for var in literal_variables(literal):
            slots.setdefault(var, len(slots))
    atoms = [i for i in plan.order if isinstance(rule.body[i], Atom)]
    others = [i for i in plan.order if not isinstance(rule.body[i], Atom)]
    return _CompiledRule(
        rule, plan, slots,
        range_counts={i: count for i in plan.conditions
                      if (count := _range_count_plan(rule.body[i], plan.global_variables))
                      is not None},
        records={i: k for k, i in enumerate(atoms + others, 1)},
        support_predicates=tuple(rule.body[i].predicate for i in atoms),
        checks=tuple(_CHECK_OF[type(rule.body[i])] for i in others),
        record=[index] + [None] * len(rule.body))


# -- slot-compiled matchers ------------------------------------------------------

Env = list  # slot -> bound constant
Step = Callable[[Env], None]


@cache
def _integer_limit(digits: int) -> Union[int, float]:
    """The least integer of more than ``digits`` digits (none if 0)."""
    return 10 ** digits if digits else math.inf


def _getter(term: Term, slots: dict[Variable, int], bound: set[int],
            rule: Rule) -> Callable[[Env], Constant]:
    """A term's value in an environment whose bound slots are ``bound``."""
    if isinstance(term, Variable):
        if slots[term] in bound:
            return itemgetter(slots[term])

        def unbound(env: Env) -> Constant:
            raise EvaluationError(f"unbound variable {term}", rule)
        return unbound
    if isinstance(term, ArithTerm):
        left = _getter(term.left, slots, bound, rule)
        right = _getter(term.right, slots, bound, rule)
        op = term.op
        digits = sys.get_int_max_str_digits()
        limit = _integer_limit(digits)

        def arith(env: Env) -> Constant:
            a, b = left(env), right(env)
            if not isinstance(a, int) or not isinstance(b, int):
                raise EvaluationError(
                    "arithmetic on non-integer constant "
                    f"({format_constant(a)} {op} {format_constant(b)})", rule)
            value = a + b if op == "+" else a - b
            if -limit < value < limit:
                return value
            raise EvaluationError(f"'{op}' gives an integer of more than {digits} digits, "
                                  "the interpreter's limit for writing one out", rule)
        return arith
    return lambda env: term


def _tuple_getter(terms: Sequence[Term], slots: dict[Variable, int], bound: set[int],
                  rule: Rule) -> Callable[[Env], tuple[Constant, ...]]:
    """The terms' values as a tuple; a C-level item getter when all of them
    are bound variables."""
    if all(isinstance(t, Variable) and slots[t] in bound for t in terms):
        if len(terms) > 1:
            return itemgetter(*(slots[t] for t in terms))
        if terms:
            slot = slots[terms[0]]
            return lambda env: (env[slot],)
        return lambda env: ()
    getters = [_getter(t, slots, bound, rule) for t in terms]
    return lambda env: tuple([get(env) for get in getters])


def _key_getter(terms: Sequence[Term], slots: dict[Variable, int], bound: set[int],
                rule: Rule) -> Callable[[Env], object]:
    """The terms' values as a key of :meth:`_Relation.index` on their
    positions: the value itself for one term, a tuple otherwise."""
    if len(terms) == 1:
        return _getter(terms[0], slots, bound, rule)
    return _tuple_getter(terms, slots, bound, rule)


class _Found(Exception):
    """Stops a join at its first solution."""


class _Evaluator:
    def __init__(self, model: Model):
        self.model = model
        # per stratum relation, the rows the last semi-naive round appended
        self.windows: dict[tuple[str, int], _Relation] = {}
        # sorted range indexes, built on first use: group key -> sorted keys
        self.ranges: dict[tuple, dict[object, list[tuple]]] = {}

    # plan compilation

    def _chain(self, compiled: _CompiledRule, steps: Sequence[tuple[BodyLiteral, Optional[int]]],
               bound: set[int], finish: Callable[[set[int]], Step],
               delta_index: Optional[int] = None) -> Step:
        """Compile steps, each a literal and its body index (None inside an
        aggregate), into closures over a slot environment. Each step calls
        the next one per match; the last calls ``finish(slots bound then)``."""
        slots, rule = compiled.slots, compiled.rule
        before: list[set[int]] = []
        for literal, _ in steps:
            before.append(bound)
            bound = bound | {slots[var] for var in literal_binds(literal)}
        step = finish(bound)
        for (literal, index), known in zip(reversed(steps), reversed(before)):
            record = None if index is None else compiled.records[index]
            if isinstance(literal, Atom):
                step = self._scan(compiled, literal, known, record, step,
                                  index is not None and index == delta_index,
                                  index in compiled.plan.deltas)
            elif isinstance(literal, NafLiteral):
                step = self._naf(compiled, literal, known, record, step)
            elif isinstance(literal, Comparison):
                step = self._compare(compiled, literal, known, record, step)
            elif isinstance(literal, AggregateLiteral) and index is not None:
                step = self._aggregate(compiled, literal, index, known, record, step)
            else:
                raise EvaluationError(f"unsupported body literal {literal!r}", rule)
        return step

    def _plan(self, compiled: _CompiledRule, order: Sequence[int],
              finish: Callable[[set[int]], Step], delta_index: Optional[int] = None) -> Step:
        body = compiled.rule.body
        return self._chain(compiled, [(body[i], i) for i in order], set(), finish, delta_index)

    def _scan(self, compiled: _CompiledRule, atom: Atom, bound: set[int], record: Optional[int],
              step: Step, from_delta: bool, in_stratum: bool) -> Step:
        """Join one positive atom: look up the rows that match its bound
        positions in the relation's index on them, then per row check
        repeats within the atom and bind its new slots. Only the rows
        present when the scan starts are visited. A model relation's index
        is kept from the scan's first lookup; a delta scan reads the current
        round's window. Only a model relation of the stratum being evaluated
        grows during a scan, so only its rows are cut to their length at the
        start: a delta window is a copy, and a lower stratum is complete."""
        slots, rule = compiled.slots, compiled.rule
        positions: list[int] = []
        key_terms: list[Term] = []
        binds: list[tuple[int, int]] = []
        first_at: dict[int, int] = {}
        repeats: list[tuple[int, int]] = []
        for position, term in enumerate(atom.terms):
            slot = slots[term] if isinstance(term, Variable) else None
            if slot is None or slot in bound:
                positions.append(position)
                key_terms.append(term)
            elif slot in first_at:
                repeats.append((first_at[slot], position))
            else:
                first_at[slot] = position
                binds.append((position, slot))
        bound_positions = tuple(positions)
        key = _key_getter(key_terms, slots, bound, rule)
        repeat_check = (itemgetter(*(p for p, _ in repeats)),
                        itemgetter(*(q for _, q in repeats))) if repeats else None
        name = (atom.predicate, len(atom.terms))
        relation = None if from_delta else self.model.relation(*name)
        grows = relation is not None and in_stratum
        binding = compiled.record
        index = None

        def scan(env: Env) -> None:
            nonlocal index
            if index is None or relation is None:
                index = (relation or self.windows[name]).index(bound_positions)
            rows = index.get(key(env), ())
            for args in islice(rows, len(rows)) if grows else rows:
                if repeat_check is not None and repeat_check[0](args) != repeat_check[1](args):
                    continue
                for position, slot in binds:
                    env[slot] = args[position]
                if record is not None:
                    binding[record] = args
                step(env)
        return scan

    def _naf(self, compiled: _CompiledRule, literal: NafLiteral, bound: set[int], record: int,
             step: Step) -> Step:
        predicate, terms = literal.atom.predicate, literal.atom.terms
        ground = _tuple_getter(terms, compiled.slots, bound, compiled.rule)
        known, binding = self.model.relation(predicate, len(terms)).atoms, compiled.record

        def naf(env: Env) -> None:
            args = ground(env)
            if args not in known:
                binding[record] = (predicate, args)
                step(env)
        return naf

    def _compare(self, compiled: _CompiledRule, literal: Comparison, bound: set[int],
                 record: Optional[int], step: Step) -> Step:
        slots, rule = compiled.slots, compiled.rule
        left, right = _getter(literal.left, slots, bound, rule), \
            _getter(literal.right, slots, bound, rule)
        op, binding = literal.op, compiled.record

        def compare(env: Env) -> None:
            a, b = left(env), right(env)
            if compare_constants(a, op, b):
                if record is not None:
                    binding[record] = (a, op, b)
                step(env)
        return compare

    def _aggregate(self, compiled: _CompiledRule, literal: AggregateLiteral, index: int,
                   bound: set[int], record: int, step: Step) -> Step:
        count = self._counter(compiled, literal, index, bound)
        op, binding = literal.op, compiled.record
        if literal.is_assignment:
            assert isinstance(literal.bound, Variable)
            slot = compiled.slots[literal.bound]
            assigns = slot not in bound

            def assign(env: Env) -> None:
                n = count(env)
                if assigns:
                    env[slot] = n
                elif env[slot] != n:
                    return
                binding[record] = (n, "=", n)
                step(env)
            return assign
        threshold = _getter(literal.bound, compiled.slots, bound, compiled.rule)

        def guard(env: Env) -> None:
            n = count(env)
            value = threshold(env)
            if isinstance(value, int) and compare_constants(n, op, value):
                binding[record] = (n, op, value)
                step(env)
        return guard

    def _counter(self, compiled: _CompiledRule, literal: AggregateLiteral, index: int,
                 bound: set[int]) -> Callable[[Env], int]:
        """The aggregate's count: by bisection when it has a range plan,
        else by joining its condition and collecting distinct elements."""
        slots, rule = compiled.slots, compiled.rule
        elements: set[tuple[Constant, ...]] = set()

        def finish(inner: set[int]) -> Step:
            element = _tuple_getter(literal.aggregate.elements, slots, inner, rule)
            return lambda env: elements.add(element(env))

        literals = literal.aggregate.condition
        condition = self._chain(
            compiled, [(literals[k], None) for k in compiled.plan.conditions[index]], bound, finish)

        def enumerate_count(env: Env) -> int:
            elements.clear()
            condition(env)
            return len(elements)

        plan = compiled.range_counts.get(index)
        if plan is None:
            return enumerate_count
        group = _key_getter(plan.key_terms, slots, bound, rule)
        guards = [(op, _getter(term, slots, bound, rule)) for op, term in plan.guards]
        groups = None

        def range_count(env: Env) -> int:
            nonlocal groups
            if groups is None:
                groups = self._range_index(plan.index)
            keys = groups.get(group(env))
            if not keys:
                return 0  # guards are never evaluated over an empty group
            low, high = 0, len(keys)
            for op, get in guards:
                try:
                    value = constant_key(get(env))
                except EvaluationError:
                    return enumerate_count(env)  # raises the general path's error
                if op == ">=":
                    low = max(low, bisect_left(keys, value))
                elif op == ">":
                    low = max(low, bisect_right(keys, value))
                elif op == "<=":
                    high = min(high, bisect_right(keys, value))
                else:
                    high = min(high, bisect_left(keys, value))
            return max(0, high - low)
        return range_count

    def _range_index(self, index: tuple) -> dict[object, list[tuple]]:
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

    def _emitter(self, compiled: _CompiledRule) -> Callable[[set[int]], Step]:
        """The last step of a rule's plans: append the head atom if it is
        new, with the binding's supports and checks as its derivation."""
        rule = compiled.rule
        head = rule.head
        assert head is not None
        relation = self.model.relation(head.predicate, len(head.terms))
        known, rows, indexes = relation.atoms, relation.rows, relation.indexes
        order = self.model._order
        binding = compiled.record

        def finish(bound: set[int]) -> Step:
            head_args = _tuple_getter(head.terms, compiled.slots, bound, rule)

            def emit(env: Env) -> None:
                args = head_args(env)
                if args in known:
                    return
                # Model.add without its membership test, inlined: a call per
                # derived atom costs a few per cent of a recursive evaluation
                known[args] = tuple(binding)
                rows.append(args)
                order.append(relation)
                if indexes:
                    for key, index in indexes.values():
                        index.setdefault(key(args), []).append(args)
            return emit
        return finish

    def run_stratum(self, compiled_rules: list[_CompiledRule],
                    stratum_predicates: frozenset[str]) -> None:
        """Fire every rule once over the model, then run semi-naive rounds:
        each recursive rule re-joins once per body atom of the stratum,
        scanning there only the window of rows the last round appended,
        until a round appends none."""
        firsts: list[tuple[Step, int]] = []
        rounds: list[tuple[Step, int]] = []
        for compiled in compiled_rules:
            finish, width = self._emitter(compiled), len(compiled.slots)
            firsts.append((self._plan(compiled, compiled.plan.order, finish), width))
            for i, order in compiled.plan.deltas.items():
                rounds.append((self._plan(compiled, order, finish, i), width))
        relations = {name: relation for name, relation in self.model._relations.items()
                     if name[0] in stratum_predicates}
        before = {name: len(relation.rows) for name, relation in relations.items()}
        for plan, width in firsts:
            plan([None] * width)
        while rounds:
            after = {name: len(relation.rows) for name, relation in relations.items()}
            if after == before:
                break
            self.windows = {name: _Relation(name[0], relation.rows[before[name]:after[name]])
                            for name, relation in relations.items()}
            before = after
            for plan, width in rounds:
                plan([None] * width)

    def find_witness(self, compiled: _CompiledRule) -> Optional[dict[str, Constant]]:
        def finish(bound: set[int]) -> Step:
            named = sorted((var.name, slot) for var, slot in compiled.slots.items()
                           if slot in bound and not var.is_anonymous)

            def found(env: Env) -> None:
                raise _Found({name: env[slot] for name, slot in named})
            return found

        try:
            self._plan(compiled, compiled.plan.order, finish)([None] * len(compiled.slots))
        except _Found as witness:
            return witness.args[0]
        return None


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
        by_level: dict[int, list[_CompiledRule]] = {}
        constraints: list[_CompiledRule] = []
        for index, (rule, plan) in enumerate(zip(program.rules, analysis.plans)):
            compiled = _compile_rule(rule, plan, index)
            graph.rules.append((rule, compiled.support_predicates, compiled.checks))
            if rule.head is None:
                constraints.append(compiled)
            else:
                level = analysis.stratification.level[rule.head.predicate]
                by_level.setdefault(level, []).append(compiled)
        for level, predicates in enumerate(analysis.stratification.strata):
            evaluator.run_stratum(by_level.get(level, []), frozenset(predicates))

        for compiled in constraints:
            witness = evaluator.find_witness(compiled)
            if witness is not None:
                return Inconsistent(compiled.rule, witness)
        return model, graph
    finally:
        if enabled:
            gc.enable()


def query(model: Model, predicate: str) -> list[Fact]:
    """The model's atoms of a predicate at every arity, sorted by arguments
    in ``constant_key`` order; unknown predicates yield an empty list. The
    argument tuples are sorted, and each :class:`Fact` is built once sorted.

    When every argument is a plain ``int``, or every argument a plain
    ``str``, the values order as their keys do, so the argument tuples are
    the sort key as they are."""
    rows = [args for (name, _), relation in model._relations.items() if name == predicate
            for args in relation.rows]
    kinds = set(map(type, chain.from_iterable(rows)))
    if kinds <= {int} or kinds <= {str}:
        rows.sort()
    else:
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
