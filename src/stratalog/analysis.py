"""Static analysis: rule safety and stratification.

Safety guarantees every rule can be grounded: variables in heads, under
negation, in comparisons, and in arithmetic must be bound by a positive
body atom or by an aggregate assignment; aggregate-local variables must be
bound by a positive atom inside the aggregate's own condition.

Stratification orders predicates so that negation and aggregation only ever
look at already-completed strata. Strata are the levels of the dependency
graph's strongly-connected-component condensation: every cross-component
edge bumps the level, so e.g. an aggregated predicate always sits strictly
below the predicate counting it. A negative or aggregate edge inside a
component means the program has no unique model and is rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .lang import (
    AggregateLiteral,
    ArithTerm,
    Atom,
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


@dataclass(frozen=True)
class SafetyViolation:
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


class CycleThroughNegation(ValueError):
    """Negation or aggregation occurs inside a recursive predicate cycle."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__(
            "negation/aggregation cycle through: " + " -> ".join(cycle + (cycle[0],)))


def _direct_atom_variables(atom: Atom) -> set[Variable]:
    """Variables occurring as direct arguments (not nested in arithmetic);
    only these can be bound by matching the atom against ground facts."""
    return {t for t in atom.terms if isinstance(t, Variable)}


def _atom_arith_variables(atom: Atom) -> set[Variable]:
    out: set[Variable] = set()
    for term in atom.terms:
        if isinstance(term, ArithTerm):
            out.update(term_variables(term))
    return out


def check_safety(program: Program) -> list[SafetyViolation]:
    """Return all safety violations; empty list means the program is safe."""
    violations: list[SafetyViolation] = []
    for rule in program.rules:
        seen: set[str] = set()

        def report(var: Variable, reason: str, rule: Rule = rule) -> None:
            display = str(var)
            if display not in seen:
                seen.add(display)
                violations.append(SafetyViolation(rule.span, str(rule), display, reason))

        bound: set[Variable] = set()
        for literal in rule.body:
            if isinstance(literal, Atom):
                bound.update(_direct_atom_variables(literal))
            elif isinstance(literal, AggregateLiteral) and literal.is_assignment:
                assert isinstance(literal.bound, Variable)
                bound.add(literal.bound)

        def require(var_iter, reason: str) -> None:
            for var in var_iter:
                if var not in bound:
                    report(var, reason)

        if rule.head is not None:
            require((v for t in rule.head.terms for v in term_variables(t)),
                    "in the head is unbound")
        global_vars = rule_global_variables(rule)
        for literal in rule.body:
            if isinstance(literal, Atom):
                require(_atom_arith_variables(literal),
                        "in atom arithmetic is unbound")
            elif isinstance(literal, NafLiteral):
                require(literal_variables(literal), "under negation is unbound")
            elif isinstance(literal, Comparison):
                require(literal_variables(literal), "in a comparison is unbound")
            elif isinstance(literal, AggregateLiteral):
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
                locally_bound: set[Variable] = set()
                for cond in agg.condition:
                    if isinstance(cond, Atom):
                        locally_bound.update(_direct_atom_variables(cond))
                for var in sorted(agg_vars, key=lambda v: v.name):
                    if var in global_vars:
                        if var not in bound:
                            report(var, "shared with the aggregate is unbound")
                    elif var not in locally_bound:
                        report(var, "local to the aggregate is unbound")
    return violations


# -- dependency graph and strata -------------------------------------------


def _dependencies(program: Program) -> tuple[list[str], dict[str, set[str]], set[tuple[str, str]]]:
    """Nodes, positive-closure adjacency (dep -> heads), and the set of
    strict (negation/aggregate) edges as (dep, head) pairs."""
    nodes: dict[str, None] = {}
    edges: dict[str, set[str]] = {}
    strict: set[tuple[str, str]] = set()

    def node(name: str) -> None:
        nodes.setdefault(name)

    def edge(dep: str, head: str, is_strict: bool) -> None:
        node(dep)
        node(head)
        edges.setdefault(dep, set()).add(head)
        if is_strict:
            strict.add((dep, head))

    for f in program.facts:
        node(f.predicate)
    for rule in program.rules:
        if rule.head is None:
            for literal in rule.body:
                for atom in _literal_atoms(literal):
                    node(atom.predicate)
            continue
        head = rule.head.predicate
        node(head)
        for literal in rule.body:
            if isinstance(literal, Atom):
                edge(literal.predicate, head, is_strict=False)
            elif isinstance(literal, NafLiteral):
                edge(literal.atom.predicate, head, is_strict=True)
            elif isinstance(literal, AggregateLiteral):
                for cond in literal.aggregate.condition:
                    if isinstance(cond, Atom):
                        edge(cond.predicate, head, is_strict=True)
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
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, Iterator[str]]] = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


@dataclass
class Stratification:
    strata: list[tuple[str, ...]]
    level: dict[str, int]

    def __len__(self) -> int:
        return len(self.strata)


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
