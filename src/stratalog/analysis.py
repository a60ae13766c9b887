"""Static analysis: rule safety, stratification and join orders.

Safety guarantees every rule can be grounded: variables in heads, under
negation, in comparisons, and in arithmetic must be bound by a positive
body atom or by an aggregate assignment; aggregate-local variables must be
bound by a positive atom inside the aggregate's own condition. A safe rule
is also orderable: :func:`join_order` orders its whole body and each
aggregate's whole condition.

:func:`analyze` is the one place join orders are computed: the safety pass
keeps the orders it checks each rule with, and each recursive body atom
then gets one that joins it first. The engine compiles from these orders.

Stratification orders predicates so that negation and aggregation only ever
look at already-completed strata. Strata are the levels of the dependency
graph's strongly-connected-component condensation: every cross-component
edge bumps the level, so e.g. an aggregated predicate always sits strictly
below the predicate counting it. A negative or aggregate edge inside a
component means the program has no unique model and is rejected.
"""
from __future__ import annotations

from heapq import heappop, heappush
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Optional, Sequence

from .lang import (
    AggregateLiteral,
    ArithTerm,
    Atom,
    BodyLiteral,
    Comparison,
    NafLiteral,
    Program,
    Rule,
    Span,
    Variable,
    literal_variables,
    rule_global_variables,
    term_variables,
)


class SafetyViolation(NamedTuple):
    span: Span
    rule: str
    variable: str
    reason: str

    def __str__(self) -> str:
        return f"{self.span}: variable {self.variable} {self.reason} in: {self.rule}"


class SafetyError(ValueError):
    def __init__(self, violations: list[SafetyViolation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class EvaluationError(ValueError):
    def __init__(self, message: str, rule: Optional[Rule] = None):
        self.rule = rule
        if rule is not None:
            message = f"{rule.span}: {message}"
        super().__init__(message)


class CycleThroughNegation(ValueError):
    """Negation or aggregation occurs inside a recursive predicate cycle."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__(
            "negation/aggregation cycle through: " + " -> ".join(cycle + (cycle[0],)))


def literal_binds(literal: BodyLiteral) -> set[Variable]:
    """The variables a body or condition literal binds: an atom's direct
    arguments (not those nested in arithmetic), the only ones matching it
    against ground facts can bind, or the variable an aggregate assigns."""
    if isinstance(literal, Atom):
        return {t for t in literal.terms if isinstance(t, Variable)}
    if isinstance(literal, AggregateLiteral) and literal.is_assignment:
        assert isinstance(literal.bound, Variable)
        return {literal.bound}
    return set()


def literal_needs(literal: BodyLiteral, outer: AbstractSet[Variable]) -> set[Variable]:
    """The variables that must be bound before a literal can be evaluated:
    those in an atom's arithmetic, every variable of a negation or a
    comparison, and those an aggregate shares with ``outer``, the rule's
    global variables, except the one it assigns."""
    if isinstance(literal, Atom):
        return {v for t in literal.terms if isinstance(t, ArithTerm)
                for v in term_variables(t)}
    if isinstance(literal, AggregateLiteral):
        needs = set(literal_variables(literal)).intersection(outer)
        if literal.is_assignment:
            needs.discard(literal.bound)  # type: ignore[arg-type]
        return needs
    return set(literal_variables(literal))


def join_order(literals: Sequence[BodyLiteral], outer: AbstractSet[Variable],
               bound: Iterable[Variable], first: Optional[int] = None,
               needs: Optional[Sequence[AbstractSet[Variable]]] = None) -> tuple[int, ...]:
    """The order a rule's literals (or an aggregate's condition) join in, as
    indexes: ``first`` if given, then repeatedly the first literal as
    written whose needs are bound. Stops when no remaining literal is
    ready, so a shorter result than ``literals`` means they cannot all be
    ordered. ``needs``, if given, holds each literal's ``literal_needs``
    over ``outer``, computed once by a caller that orders the same literals
    many times; it is read, never changed.

    The ready literals wait in a heap, ``first`` ahead of all, so the cost
    is linear in the literals and their variables, times a logarithm."""
    if needs is None:
        needs = [literal_needs(literal, outer) for literal in literals]
    if not any(needs):  # all ready, so no heap: first, then the others as written
        others = [index for index in range(len(literals)) if index != first]
        return tuple(others) if first is None else (first, *others)
    bound = set(bound)
    needs = [need - bound for need in needs]
    waiting: dict[Variable, list[int]] = {}  # variable -> the literals needing it
    for index, need in enumerate(needs):
        for var in need:
            waiting.setdefault(var, []).append(index)
    ready = sorted((index != first, index) for index, need in enumerate(needs)
                   if not need or index == first)  # sorted, so a heap
    order: list[int] = []
    while ready:
        index = heappop(ready)[1]
        order.append(index)
        for var in literal_binds(literals[index]) if waiting else ():
            for other in waiting.pop(var, ()):
                needs[other].discard(var)
                if not needs[other] and other != first:
                    heappush(ready, (True, other))
    return tuple(order)


_NEEDS_REASONS = {
    Atom: "in atom arithmetic is unbound",
    NafLiteral: "under negation is unbound",
    Comparison: "in a comparison is unbound",
}


class RulePlan(NamedTuple):
    """A rule's join orders, as indexes: its body's static order; each
    aggregate's condition order once the global variables are bound; and,
    per body atom of the rule's own stratum in static order, the order of a
    semi-naive round whose delta sits there. Both maps key by body index."""

    global_variables: frozenset[Variable]
    order: tuple[int, ...]
    conditions: dict[int, tuple[int, ...]]
    deltas: dict[int, tuple[int, ...]]


def check_safety(program: Program) -> list[SafetyViolation]:
    """Return all safety violations; empty list means the program is safe.
    Only a rule with no other violation is checked to be orderable."""
    return _check(program)[0]


def _check(program: Program) -> tuple[list[SafetyViolation], list[RulePlan]]:
    """The violations, and each rule's plan while there are none; analyze adds delta orders."""
    violations: list[SafetyViolation] = []
    plans: list[RulePlan] = []
    for rule in program.rules:
        seen: set[str] = set()

        def report(var: Variable, reason: str, rule: Rule = rule) -> None:
            display = str(var)
            if display not in seen:
                seen.add(display)
                violations.append(SafetyViolation(rule.span, str(rule), display, reason))

        bound: set[Variable] = set().union(*map(literal_binds, rule.body))

        def require(var_iter, reason: str) -> None:
            for var in var_iter:
                if var not in bound:
                    report(var, reason)

        if rule.head is not None:
            require((v for t in rule.head.terms for v in term_variables(t)),
                    "in the head is unbound")
        global_vars = rule_global_variables(rule)
        for literal in rule.body:
            if not isinstance(literal, AggregateLiteral):
                needs = literal_needs(literal, global_vars)
                if not needs <= bound:  # report in written order
                    require((v for v in literal_variables(literal) if v in needs),
                            _NEEDS_REASONS[type(literal)])
            else:
                agg = literal.aggregate
                agg_vars: set[Variable] = set()
                for term in agg.elements:
                    agg_vars.update(term_variables(term))
                for cond in agg.condition:
                    agg_vars.update(literal_variables(cond))
                if literal.is_assignment and literal.bound in agg_vars:
                    report(literal.bound,  # type: ignore[arg-type]
                           "is both aggregate result and aggregate-local")
                    continue
                require(term_variables(literal.bound) if not literal.is_assignment else (),
                        "in the aggregate guard is unbound")
                # outer variables must be bound outside; locals inside
                locally_bound = set().union(*map(literal_binds, agg.condition))
                for var in sorted(agg_vars, key=lambda v: v.name):
                    if var in global_vars:
                        if var not in bound:
                            report(var, "shared with the aggregate is unbound")
                    elif var not in locally_bound:
                        report(var, "local to the aggregate is unbound")
        if seen:
            continue
        order = join_order(rule.body, global_vars, ())
        # an aggregate runs once the outer variables it shares are bound
        conditions = {i: join_order(literal.aggregate.condition, global_vars, global_vars)
                      for i, literal in enumerate(rule.body)
                      if isinstance(literal, AggregateLiteral)}
        joins = [(rule.body, set(), order)] + [
            (rule.body[i].aggregate.condition, global_vars, joined)
            for i, joined in conditions.items()]
        for literals, outside, joined in joins:
            left = sorted(set(range(len(literals))).difference(joined))
            if left:  # report the first need of the first literal left out
                needs = literal_needs(literals[left[0]], global_vars).difference(
                    outside, *(literal_binds(literals[i]) for i in joined))
                report(next(v for v in literal_variables(literals[left[0]]) if v in needs),
                       "is needed before it can be bound")
        plans.append(RulePlan(frozenset(global_vars), order, conditions, {}))
    return violations, plans


# -- dependency graph and strata -------------------------------------------


def _dependencies(program: Program) -> tuple[list[str], dict[str, set[str]], set[tuple[str, str]]]:
    """Nodes, positive-closure adjacency (dep -> heads), and the set of
    strict (negation/aggregate) edges as (dep, head) pairs."""
    nodes: dict[str, None] = {}
    edges: dict[str, set[str]] = {}
    strict: set[tuple[str, str]] = set()
    for f in program.facts:
        nodes.setdefault(f.predicate)
    for rule in program.rules:
        if rule.head is not None:
            nodes.setdefault(rule.head.predicate)
        for literal in rule.body:
            for atom in _literal_atoms(literal):
                nodes.setdefault(atom.predicate)
                if rule.head is not None:
                    edges.setdefault(atom.predicate, set()).add(rule.head.predicate)
                    if not isinstance(literal, Atom):  # under negation or in a count
                        strict.add((atom.predicate, rule.head.predicate))
    return list(nodes), edges, strict


def _literal_atoms(literal) -> list[Atom]:
    if isinstance(literal, Atom):
        return [literal]
    if isinstance(literal, NafLiteral):
        return [literal.atom]
    if isinstance(literal, AggregateLiteral):
        return [c for c in literal.aggregate.condition if isinstance(c, Atom)]
    return []


def _strongly_connected(nodes: list[str], edges: dict[str, set[str]]) -> list[list[str]]:
    """Iterative Tarjan; deterministic given node and adjacency order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    work: list[tuple[str, Iterator[str]]] = []  # each vertex being visited and its successors left

    def visit(v: str) -> None:
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(sorted(edges.get(v, ())))))

    for root in nodes:
        if root in index:
            continue
        visit(root)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            else:  # every successor is visited: v is done
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                        on_stack.remove(component[-1])
                    components.append(component)
    return components


class Stratification:
    __slots__ = ("strata", "level")

    def __init__(self, strata: list[tuple[str, ...]], level: dict[str, int]) -> None:
        self.strata, self.level = strata, level

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Stratification) and \
            (self.strata, self.level) == (other.strata, other.level)

    def __len__(self) -> int:
        return len(self.strata)

    def __repr__(self) -> str:
        return f"Stratification(strata={self.strata!r}, level={self.level!r})"


def stratify(program: Program) -> Stratification:
    """Partition predicates into evaluation strata.

    Raises :class:`CycleThroughNegation` when a negation or aggregate edge
    lands inside a recursive component.
    """
    nodes, edges, strict = _dependencies(program)
    components = _strongly_connected(nodes, edges)
    component_of: dict[str, int] = {}
    for i, members in enumerate(components):
        for name in members:
            component_of[name] = i
    for dep, head in sorted(strict):
        if component_of[dep] == component_of[head]:
            cycle = tuple(sorted(components[component_of[dep]]))
            raise CycleThroughNegation(cycle)

    # Condensation levels: every cross-component edge raises the level, so
    # derived predicates land strictly above everything they read.
    level = [0] * len(components)
    # Tarjan emits components in reverse topological order.
    for ci in range(len(components) - 1, -1, -1):
        for name in components[ci]:
            for succ in edges.get(name, ()):
                si = component_of[succ]
                if si != ci:
                    level[si] = max(level[si], level[ci] + 1)

    depth = max(level, default=0) + 1 if components else 0
    strata_members: list[list[str]] = [[] for _ in range(depth)]
    for ci, members in enumerate(components):
        strata_members[level[ci]].extend(members)
    strata = [tuple(sorted(members)) for members in strata_members]
    predicate_level = {name: level[component_of[name]] for name in nodes}
    return Stratification(strata, predicate_level)


#: The most literals one rule may join, its body and its aggregates'
#: conditions together: each literal is a nested block of generated code,
#: and every 16 levels a helper function call, so the compiled size and the
#: depth of calls grow with the rule.
MAX_JOIN_LITERALS = 500

#: The most body atoms of its own stratum one rule may have. Each gets a
#: delta order, and a semi-naive plan of the whole body, so the code
#: compiled for the rule grows with this number times its length.
MAX_STRATUM_ATOMS = 40


class Analysis(NamedTuple):
    """A program's strata, and the plan of each of its rules in program order."""

    stratification: Stratification
    plans: tuple[RulePlan, ...]


def analyze(program: Program) -> Analysis:
    """Check, stratify and plan a program, computing each join order once.
    Raises :class:`SafetyError`, then :class:`CycleThroughNegation`, then
    :class:`EvaluationError` for the first rule that joins more than
    ``MAX_JOIN_LITERALS`` literals, before any delta order is built, and
    for the first rule with more than ``MAX_STRATUM_ATOMS`` body atoms of
    its own stratum, before its delta orders are built."""
    violations, plans = _check(program)
    if violations:
        raise SafetyError(violations)
    stratification = stratify(program)
    for rule, plan in zip(program.rules, plans):
        joined = len(rule.body) + sum(len(rule.body[i].aggregate.condition)
                                      for i in plan.conditions)
        if joined > MAX_JOIN_LITERALS:
            raise EvaluationError(f"rule joins {joined} literals, body and aggregate conditions "
                                  f"together; the limit is {MAX_JOIN_LITERALS}", rule)
    level = stratification.level
    for rule, plan in zip(program.rules, plans):
        if rule.head is None:
            continue
        recursive = [i for i in plan.order if isinstance(rule.body[i], Atom)
                     and level[rule.body[i].predicate] == level[rule.head.predicate]]
        if len(recursive) > MAX_STRATUM_ATOMS:
            raise EvaluationError(f"rule has {len(recursive)} body atoms of its own stratum, "
                                  f"each joined first in a plan of its own; the limit is "
                                  f"{MAX_STRATUM_ATOMS}", rule)
        # each delta order starts from a copy of these, so they are worked out once per rule
        needs = [literal_needs(literal, plan.global_variables) for literal in rule.body] \
            if recursive else []
        for i in recursive:
            # the delta atom first, unless its arithmetic needs variables bound before it
            arithmetic = any(isinstance(t, ArithTerm) for t in rule.body[i].terms)
            plan.deltas[i] = plan.order if arithmetic else \
                join_order(rule.body, plan.global_variables, (), first=i, needs=needs)
    return Analysis(stratification, tuple(plans))
