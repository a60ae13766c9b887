"""Bottom-up evaluation of safe, stratified programs.

The unique stable model is computed stratum by stratum: within a stratum,
positive rules run semi-naively (each round re-joins only against atoms new
in the previous round); negation and aggregates only ever consult strata
that are already complete, which stratification guarantees. Grounding is
on-the-fly: rule bodies are joined left to right in a statically computed
order, binding variables from indexed fact lookups instead of enumerating
the Herbrand universe.

Each body atom is looked up through the narrowest per-argument index among
its bound positions. A ``#count`` of one range-guarded variable is answered
by bisecting a sorted index of that variable's values per group, built once
per evaluation; every other aggregate enumerates its matches.

Every derived atom records the rule and ground supports that first produced
it, so any alert can be unfolded into a full derivation tree. Iteration
never depends on hash seeds: atom storage is insertion-ordered and all
query output is sorted.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .analysis import SafetyError, check_safety, stratify
from .facts import Constant, Fact, constant_key, format_constant
from .lang import (
    AggregateLiteral,
    ArithTerm,
    Atom,
    BodyLiteral,
    Comparison,
    ConditionLiteral,
    NafLiteral,
    Program,
    Rule,
    Term,
    Variable,
    literal_variables,
    rule_global_variables,
    term_variables,
)


class EvaluationError(ValueError):
    def __init__(self, message: str, rule: Optional[Rule] = None):
        self.rule = rule
        if rule is not None:
            message = f"{rule.span}: {message}"
        super().__init__(message)


class NotDerivedError(LookupError):
    def __init__(self, atom: Fact):
        self.atom = atom
        super().__init__(f"atom not in model: {atom}")


class Model:
    """Insertion-ordered set of ground atoms with per-argument hash indexes.

    Holds the model and, during evaluation, each semi-naive round's delta."""

    __slots__ = ("_atoms", "_by_pred", "_index")

    def __init__(self) -> None:
        self._atoms: dict[Fact, None] = {}
        self._by_pred: dict[str, list[tuple[Constant, ...]]] = {}
        self._index: dict[tuple[str, int, Constant], list[tuple[Constant, ...]]] = {}

    def add(self, atom: Fact) -> bool:
        if atom in self._atoms:
            return False
        self._atoms[atom] = None
        self._by_pred.setdefault(atom.predicate, []).append(atom.args)
        for position, value in enumerate(atom.args):
            self._index.setdefault((atom.predicate, position, value), []).append(atom.args)
        return True

    def __contains__(self, atom: Fact) -> bool:
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._atoms)

    def atoms(self, predicate: str) -> list[tuple[Constant, ...]]:
        return self._by_pred.get(predicate, [])

    def candidates(self, predicate: str,
                   pattern: Sequence[Optional[Constant]]) -> list[tuple[Constant, ...]]:
        """Arg tuples possibly matching the pattern (None = free position):
        the shortest index list among the bound positions, which the caller
        filters while binding. Every list keeps insertion order."""
        narrowest = None
        for position, value in enumerate(pattern):
            if value is not None:
                found = self._index.get((predicate, position, value))
                if found is None:
                    return []
                if narrowest is None or len(found) < len(narrowest):
                    narrowest = found
        return self._by_pred.get(predicate, []) if narrowest is None else narrowest


# -- derivation bookkeeping --------------------------------------------------


@dataclass(frozen=True)
class NafCheck:
    atom: Fact

    def __str__(self) -> str:
        return f"not {self.atom} holds"


@dataclass(frozen=True)
class ComparisonCheck:
    left: Constant
    op: str
    right: Constant

    def __str__(self) -> str:
        return f"{format_constant(self.left)} {self.op} {format_constant(self.right)}"


@dataclass(frozen=True)
class AggregateCheck:
    count: int
    op: str  # '=' when the count was assigned to a variable
    bound: Constant

    def __str__(self) -> str:
        if self.op == "=":
            return f"count {self.count}"
        return f"count {self.count} {self.op} threshold {format_constant(self.bound)}"


Check = Union[NafCheck, ComparisonCheck, AggregateCheck]


@dataclass(frozen=True)
class Derivation:
    rule: Rule
    supports: tuple[Fact, ...]
    checks: tuple[Check, ...]


@dataclass
class DerivationGraph:
    entries: dict[Fact, Derivation] = field(default_factory=dict)
    fact_atoms: set[Fact] = field(default_factory=set)


@dataclass
class DerivationNode:
    atom: Fact
    rule: Optional[Rule]
    checks: tuple[Check, ...]
    children: list["DerivationNode"]

    @property
    def is_fact(self) -> bool:
        return self.rule is None


@dataclass
class Inconsistent:
    """A headless constraint fired; no model exists for this fact base."""

    constraint: Rule
    witness: dict[str, Constant]

    def __str__(self) -> str:
        binding = ", ".join(f"{name}={format_constant(value)}"
                            for name, value in sorted(self.witness.items()))
        return f"constraint at {self.constraint.span} violated ({binding or 'ground'})"


# -- comparison and arithmetic ------------------------------------------------

_ORDERED = {">=", "<=", ">", "<"}


def compare_constants(left: Constant, op: str, right: Constant) -> bool:
    """``==``/``!=`` across kinds are plain inequality; ordering comparisons
    use the kind-first total order (integers < symbols < strings)."""
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op not in _ORDERED:
        raise ValueError(f"unknown comparison operator {op!r}")
    lk, rk = constant_key(left), constant_key(right)
    if op == ">=":
        return lk >= rk
    if op == "<=":
        return lk <= rk
    if op == ">":
        return lk > rk
    return lk < rk


# -- body planning -------------------------------------------------------------


def _aggregate_required(literal: AggregateLiteral, global_vars: set[Variable]) -> set[Variable]:
    required: set[Variable] = set()
    agg = literal.aggregate
    for term in agg.elements:
        required.update(v for v in term_variables(term) if v in global_vars)
    for cond in agg.condition:
        if isinstance(cond, Atom):
            for term in cond.terms:
                required.update(v for v in term_variables(term) if v in global_vars)
        else:
            required.update(v for v in term_variables(cond.left) if v in global_vars)
            required.update(v for v in term_variables(cond.right) if v in global_vars)
    if literal.is_assignment:
        required.discard(literal.bound)  # produced, not consumed
    else:
        required.update(term_variables(literal.bound))
    return required


def _order_body(rule: Rule) -> tuple[BodyLiteral, ...]:
    """Deterministic evaluation order: scan the body as written, taking the
    first literal whose inputs are bound. Safe rules always complete."""
    global_vars = rule_global_variables(rule)
    remaining = list(rule.body)
    plan: list[BodyLiteral] = []
    bound: set[Variable] = set()

    def ready(literal: BodyLiteral) -> bool:
        if isinstance(literal, Atom):
            return all(v in bound
                       for t in literal.terms if isinstance(t, ArithTerm)
                       for v in term_variables(t))
        if isinstance(literal, (NafLiteral, Comparison)):
            vars_needed = set()
            if isinstance(literal, NafLiteral):
                for t in literal.atom.terms:
                    vars_needed.update(term_variables(t))
            else:
                vars_needed.update(term_variables(literal.left))
                vars_needed.update(term_variables(literal.right))
            return vars_needed <= bound
        return _aggregate_required(literal, global_vars) <= bound

    while remaining:
        for i, literal in enumerate(remaining):
            if ready(literal):
                plan.append(literal)
                del remaining[i]
                if isinstance(literal, Atom):
                    bound.update(t for t in literal.terms if isinstance(t, Variable))
                elif isinstance(literal, AggregateLiteral) and literal.is_assignment:
                    assert isinstance(literal.bound, Variable)
                    bound.add(literal.bound)
                break
        else:
            raise EvaluationError("cannot order body literals for evaluation", rule)
    return tuple(plan)


def _order_condition(condition: Sequence[ConditionLiteral],
                     rule: Rule) -> tuple[ConditionLiteral, ...]:
    """Same greedy ordering for an aggregate's condition; outer variables are
    treated as bound since the aggregate is only evaluated once they are."""
    remaining = list(condition)
    plan: list[ConditionLiteral] = []
    bound: set[Variable] = set(rule_global_variables(rule))
    while remaining:
        for i, cond in enumerate(remaining):
            if isinstance(cond, Atom) or (
                    set(term_variables(cond.left)) | set(term_variables(cond.right)) <= bound):
                plan.append(cond)
                del remaining[i]
                if isinstance(cond, Atom):
                    bound.update(t for t in cond.terms if isinstance(t, Variable))
                break
        else:
            raise EvaluationError("cannot order aggregate condition", rule)
    return tuple(plan)


_FLIPPED = {">=": "<=", "<=": ">=", ">": "<", "<": ">"}


@dataclass(frozen=True)
class _RangeCount:
    """A ``#count{T : p(...), T >= lo, T <= hi}`` answered by bisecting the
    sorted distinct ``constant_key(T)`` values of the matching group.

    ``index`` names the sorted index: predicate, arity, the position of
    ``T``, the positions fixed to constants, and the group-key positions
    (those holding outer variables, in ``key_vars``). Each guard is
    ``T <op> term`` with the term over outer variables.
    """

    index: tuple
    key_vars: tuple[Variable, ...]
    guards: tuple[tuple[str, Term], ...]


def _range_count_plan(literal: AggregateLiteral, rule: Rule) -> Optional[_RangeCount]:
    """The range-count plan of an aggregate, or None when it does not fit."""
    agg = literal.aggregate
    atoms = [c for c in agg.condition if isinstance(c, Atom)]
    if len(agg.elements) != 1 or len(atoms) != 1:
        return None
    element, (atom,) = agg.elements[0], atoms
    outer = _aggregate_required(literal, rule_global_variables(rule))
    occurrences: dict[Variable, int] = {}
    for var in literal_variables(literal):
        occurrences[var] = occurrences.get(var, 0) + 1
    if not isinstance(element, Variable) or element in outer \
            or atom.terms.count(element) != 1:
        return None
    constants: list[tuple[int, Term]] = []
    key_positions: list[int] = []
    key_vars: list[Variable] = []
    for position, term in enumerate(atom.terms):
        if term == element:
            continue
        if isinstance(term, ArithTerm):
            return None
        if not isinstance(term, Variable):
            constants.append((position, term))
        elif term in outer:
            key_positions.append(position)
            key_vars.append(term)
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
    index = (atom.predicate, len(atom.terms), atom.terms.index(element),
             tuple(constants), tuple(key_positions))
    return _RangeCount(index, tuple(key_vars), tuple(guards))


@dataclass
class _CompiledRule:
    rule: Rule
    plan: tuple[BodyLiteral, ...]
    condition_plans: dict[int, tuple[ConditionLiteral, ...]]
    range_counts: dict[int, _RangeCount]
    recursive_positions: tuple[int, ...] = ()


def _compile_rule(rule: Rule) -> _CompiledRule:
    plan = _order_body(rule)
    condition_plans = {
        i: _order_condition(lit.aggregate.condition, rule)
        for i, lit in enumerate(plan) if isinstance(lit, AggregateLiteral)
    }
    range_counts = {i: count for i, lit in enumerate(plan)
                    if isinstance(lit, AggregateLiteral)
                    and (count := _range_count_plan(lit, rule)) is not None}
    return _CompiledRule(rule, plan, condition_plans, range_counts)


# -- the evaluator -------------------------------------------------------------

Env = dict[Variable, Constant]


class _Evaluator:
    def __init__(self, model: Model, graph: DerivationGraph):
        self.model = model
        self.graph = graph
        # sorted range indexes, built on first use: group key -> sorted keys
        self.ranges: dict[tuple, dict[tuple[Constant, ...], list[tuple]]] = {}

    # term / literal evaluation

    def eval_term(self, term: Term, env: Env, rule: Rule) -> Constant:
        if isinstance(term, Variable):
            try:
                return env[term]
            except KeyError:
                raise EvaluationError(f"unbound variable {term}", rule) from None
        if isinstance(term, ArithTerm):
            left = self.eval_term(term.left, env, rule)
            right = self.eval_term(term.right, env, rule)
            if not isinstance(left, int) or not isinstance(right, int):
                raise EvaluationError(
                    "arithmetic on non-integer constant "
                    f"({format_constant(left)} {term.op} {format_constant(right)})", rule)
            return left + right if term.op == "+" else left - right
        return term

    def _bind(self, atom: Atom, args: tuple[Constant, ...], env: Env,
              undo: list[Variable], rule: Rule) -> bool:
        """Extend env by matching atom terms against ground args."""
        if len(args) != len(atom.terms):
            return False
        for term, value in zip(atom.terms, args):
            if isinstance(term, Variable):
                current = env.get(term)
                if current is None:
                    env[term] = value
                    undo.append(term)
                elif current != value:
                    return False
            else:
                if self.eval_term(term, env, rule) != value:
                    return False
        return True

    def _atom_candidates(self, atom: Atom, env: Env, rule: Rule,
                         source: Model) -> list[tuple[Constant, ...]]:
        pattern: list[Optional[Constant]] = []
        for term in atom.terms:
            if isinstance(term, Variable):
                pattern.append(env.get(term))
            else:
                pattern.append(self.eval_term(term, env, rule))
        return source.candidates(atom.predicate, pattern)

    def _range_index(self, index: tuple) -> dict[tuple[Constant, ...], list[tuple]]:
        """Sorted distinct keys of the counted position per group key. The
        counted predicate sits in a strictly lower, complete stratum, so the
        index built on first use stays valid for the whole evaluation."""
        groups = self.ranges.get(index)
        if groups is None:
            predicate, arity, position, constants, key_positions = index
            keys: dict[tuple[Constant, ...], set[tuple]] = {}
            for args in self.model.atoms(predicate):
                if len(args) == arity and all(args[p] == c for p, c in constants):
                    keys.setdefault(tuple(args[p] for p in key_positions), set()).add(
                        constant_key(args[position]))
            groups = self.ranges[index] = {group: sorted(values)
                                           for group, values in keys.items()}
        return groups

    def _count_range(self, count: _RangeCount, env: Env, rule: Rule) -> Optional[int]:
        """The count by bisection, or None when a guard fails to evaluate
        (the general path then raises the same error)."""
        keys = self._range_index(count.index).get(tuple(env[v] for v in count.key_vars))
        if keys is None:
            return 0  # guards are never evaluated over an empty group
        low, high = 0, len(keys)
        for op, term in count.guards:
            try:
                bound = constant_key(self.eval_term(term, env, rule))
            except EvaluationError:
                return None
            if op == ">=":
                low = max(low, bisect_left(keys, bound))
            elif op == ">":
                low = max(low, bisect_right(keys, bound))
            elif op == "<=":
                high = min(high, bisect_right(keys, bound))
            else:
                high = min(high, bisect_left(keys, bound))
        return max(0, high - low)

    def eval_aggregate(self, compiled: _CompiledRule, plan_index: int,
                       literal: AggregateLiteral, env: Env, rule: Rule) -> int:
        range_count = compiled.range_counts.get(plan_index)
        if range_count is not None:
            count = self._count_range(range_count, env, rule)
            if count is not None:
                return count
        plan = compiled.condition_plans[plan_index]
        agg = literal.aggregate
        elements: dict[tuple[Constant, ...], None] = {}
        local_env: Env = dict(env)

        def recurse(i: int) -> None:
            if i == len(plan):
                key = tuple(self.eval_term(t, local_env, rule) for t in agg.elements)
                elements.setdefault(key)
                return
            cond = plan[i]
            if isinstance(cond, Atom):
                for args in self._atom_candidates(cond, local_env, rule, self.model):
                    undo: list[Variable] = []
                    if self._bind(cond, args, local_env, undo, rule):
                        recurse(i + 1)
                    for var in undo:
                        del local_env[var]
            else:
                left = self.eval_term(cond.left, local_env, rule)
                right = self.eval_term(cond.right, local_env, rule)
                if compare_constants(left, cond.op, right):
                    recurse(i + 1)

        recurse(0)
        return len(elements)

    def solutions(self, compiled: _CompiledRule, env: Env,
                  supports: list[Fact], checks: list[Check],
                  delta_position: Optional[int] = None,
                  delta: Optional[Model] = None,
                  start: int = 0) -> Iterator[None]:
        """Yield once per satisfying assignment of the rule body; at each
        yield, env/supports/checks describe a complete match."""
        plan = compiled.plan
        rule = compiled.rule
        if start == len(plan):
            yield None
            return
        literal = plan[start]
        if isinstance(literal, Atom):
            source = delta if start == delta_position else self.model
            for args in self._atom_candidates(literal, env, rule, source):
                undo: list[Variable] = []
                if self._bind(literal, args, env, undo, rule):
                    supports.append(Fact(literal.predicate, args))
                    yield from self.solutions(compiled, env, supports, checks,
                                              delta_position, delta, start + 1)
                    supports.pop()
                for var in undo:
                    del env[var]
        elif isinstance(literal, NafLiteral):
            ground = Fact(literal.atom.predicate,
                          tuple(self.eval_term(t, env, rule) for t in literal.atom.terms))
            if ground not in self.model:
                checks.append(NafCheck(ground))
                yield from self.solutions(compiled, env, supports, checks,
                                          delta_position, delta, start + 1)
                checks.pop()
        elif isinstance(literal, Comparison):
            left = self.eval_term(literal.left, env, rule)
            right = self.eval_term(literal.right, env, rule)
            if compare_constants(left, literal.op, right):
                checks.append(ComparisonCheck(left, literal.op, right))
                yield from self.solutions(compiled, env, supports, checks,
                                          delta_position, delta, start + 1)
                checks.pop()
        elif isinstance(literal, AggregateLiteral):
            count = self.eval_aggregate(compiled, start, literal, env, rule)
            if literal.is_assignment:
                assert isinstance(literal.bound, Variable)
                existing = env.get(literal.bound)
                if existing is None:
                    env[literal.bound] = count
                    checks.append(AggregateCheck(count, "=", count))
                    yield from self.solutions(compiled, env, supports, checks,
                                              delta_position, delta, start + 1)
                    checks.pop()
                    del env[literal.bound]
                elif existing == count:
                    checks.append(AggregateCheck(count, "=", count))
                    yield from self.solutions(compiled, env, supports, checks,
                                              delta_position, delta, start + 1)
                    checks.pop()
            else:
                bound_value = self.eval_term(literal.bound, env, rule)
                if isinstance(bound_value, int) and compare_constants(
                        count, literal.op, bound_value):
                    checks.append(AggregateCheck(count, literal.op, bound_value))
                    yield from self.solutions(compiled, env, supports, checks,
                                              delta_position, delta, start + 1)
                    checks.pop()
        else:
            raise EvaluationError(f"unsupported body literal {literal!r}", rule)

    # stratum evaluation

    def _fire(self, compiled: _CompiledRule, derived: Model,
              delta_position: Optional[int] = None,
              delta: Optional[Model] = None) -> None:
        """Run the rule once; atoms new to the model also go to ``derived``."""
        rule = compiled.rule
        head = rule.head
        assert head is not None
        env: Env = {}
        supports: list[Fact] = []
        checks: list[Check] = []
        for _ in self.solutions(compiled, env, supports, checks, delta_position, delta):
            atom = Fact(head.predicate,
                        tuple(self.eval_term(t, env, rule) for t in head.terms))
            if self.model.add(atom):
                derived.add(atom)
                self.graph.entries[atom] = Derivation(rule, tuple(supports), tuple(checks))

    def run_stratum(self, compiled_rules: list[_CompiledRule],
                    stratum_predicates: set[str]) -> None:
        for compiled in compiled_rules:
            compiled.recursive_positions = tuple(
                i for i, lit in enumerate(compiled.plan)
                if isinstance(lit, Atom) and lit.predicate in stratum_predicates)
        delta = Model()
        for compiled in compiled_rules:
            self._fire(compiled, delta)
        recursive = [c for c in compiled_rules if c.recursive_positions]
        while delta:
            new = Model()
            for compiled in recursive:
                for position in compiled.recursive_positions:
                    self._fire(compiled, new, position, delta)
            delta = new

    def find_witness(self, compiled: _CompiledRule) -> Optional[dict[str, Constant]]:
        env: Env = {}
        for _ in self.solutions(compiled, env, [], []):
            return {str(var): value for var, value in sorted(
                env.items(), key=lambda item: item[0].name)
                if not var.is_anonymous}
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
    """
    violations = check_safety(program)
    if violations:
        raise SafetyError(violations)
    stratification = stratify(program)

    model = Model()
    graph = DerivationGraph()
    for f in list(program.facts) + list(extra_facts):
        if model.add(f):
            graph.fact_atoms.add(f)

    evaluator = _Evaluator(model, graph)
    by_level: dict[int, list[_CompiledRule]] = {}
    constraints: list[_CompiledRule] = []
    for rule in program.rules:
        compiled = _compile_rule(rule)
        if rule.head is None:
            constraints.append(compiled)
        else:
            level = stratification.level[rule.head.predicate]
            by_level.setdefault(level, []).append(compiled)
    for level, predicates in enumerate(stratification.strata):
        evaluator.run_stratum(by_level.get(level, []), set(predicates))

    for compiled in constraints:
        witness = evaluator.find_witness(compiled)
        if witness is not None:
            return Inconsistent(compiled.rule, witness)
    return model, graph


def query(model: Model, predicate: str) -> list[Fact]:
    """All atoms of a predicate, sorted by arguments; unknown predicates
    yield an empty list."""
    atoms = [Fact(predicate, args) for args in model.atoms(predicate)]
    atoms.sort(key=lambda a: tuple(constant_key(v) for v in a.args))
    return atoms


def explain(graph: DerivationGraph, atom: Fact) -> DerivationNode:
    """Unfold an atom's first recorded derivation into a tree whose leaves
    are input facts. Iterative, so a derivation of any depth unfolds."""
    roots: list[DerivationNode] = []
    pending: list[tuple[list[DerivationNode], Fact]] = [(roots, atom)]
    while pending:  # depth first, supports left to right
        siblings, atom = pending.pop()
        entry = graph.entries.get(atom)
        if entry is None:
            if atom not in graph.fact_atoms:
                raise NotDerivedError(atom)
            siblings.append(DerivationNode(atom, None, (), []))
            continue
        node = DerivationNode(atom, entry.rule, entry.checks, [])
        siblings.append(node)
        pending.extend((node.children, support) for support in reversed(entry.supports))
    return roots[0]
