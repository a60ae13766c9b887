"""Re-check a derivation graph against its program, sharing no join code
with the engine.

For every recorded derivation: the supports are the rule's positive body
atoms in the order of its static plan, grounded by one binding. The same binding grounds
the head to the derived atom and reproduces every recorded check, with
aggregates recounted over the final model, in the order of the rule's
static plan, whichever plan found the binding.
Each support is an input fact or an atom recorded earlier, so every
explanation unfolds to input facts; ``explain`` is run on every atom.
"""
from __future__ import annotations

from stratalog.analysis import analyze
from stratalog.engine import AggregateCheck, ComparisonCheck, NafCheck, explain
from stratalog.facts import Fact, constant_key
from stratalog.lang import (
    AggregateLiteral, ArithTerm, Atom, Comparison, NafLiteral, Program, Variable)


def _value(term, env):
    if isinstance(term, Variable):
        return env[term]
    if isinstance(term, ArithTerm):
        left, right = _value(term.left, env), _value(term.right, env)
        return left + right if term.op == "+" else left - right
    return term


def _holds(left, op, right):
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    left, right = constant_key(left), constant_key(right)
    return {">=": left >= right, "<=": left <= right, ">": left > right, "<": left < right}[op]


def _unify(atom, args, env):
    """Extend env so that the atom's terms match args; a sum's variables
    are already in env."""
    if len(atom.terms) != len(args):
        return False
    for term, arg in zip(atom.terms, args):
        if isinstance(term, Variable):
            if env.setdefault(term, arg) != arg:
                return False
        elif _value(term, env) != arg:
            return False
    return True


def _count(aggregate, env, model):
    """Distinct element tuples over every match of the condition in the model."""
    atoms = [c for c in aggregate.condition if isinstance(c, Atom)]
    guards = [c for c in aggregate.condition if not isinstance(c, Atom)]
    found = set()

    def join(i, env):
        if i == len(atoms):
            if all(_holds(_value(g.left, env), g.op, _value(g.right, env)) for g in guards):
                found.add(tuple(_value(t, env) for t in aggregate.elements))
            return
        for atom in model:
            local = dict(env)
            if atom.predicate == atoms[i].predicate and _unify(atoms[i], atom.args, local):
                join(i + 1, local)

    join(0, env)
    return len(found)


def check_derivations(model, graph):
    """Supports follow the static join order's atoms and are unified in
    that order, so a sum inside an atom is worked out from the atoms before
    it: in the programs checked here, only atoms bind what such a sum reads."""
    recorded = {atom for atom in model if graph.record(atom) is None}
    plans = analyze(Program(consts={}, rules=[rule for rule, *_ in graph.rules], facts=[])).plans
    for atom, derivation in graph.entries.items():
        rule = derivation.rule
        static_order = plans[graph.record(atom)[0]].order
        positive = [rule.body[i] for i in static_order if isinstance(rule.body[i], Atom)]
        assert [s.predicate for s in derivation.supports] == [a.predicate for a in positive], \
            (atom, derivation)
        assert set(derivation.supports) <= recorded, f"{atom} rests on an atom recorded later"
        env = {}
        assert all(_unify(a, s.args, env) for a, s in zip(positive, derivation.supports)), atom

        checks = {}
        for i, literal in enumerate(rule.body):  # assignments first: later literals read them
            if isinstance(literal, AggregateLiteral):
                n = _count(literal.aggregate, env, model)
                if literal.is_assignment:
                    assert env.setdefault(literal.bound, n) == n, atom
                    checks[i] = AggregateCheck(n, "=", n)
                else:
                    bound = _value(literal.bound, env)
                    assert isinstance(bound, int) and _holds(n, literal.op, bound), atom
                    checks[i] = AggregateCheck(n, literal.op, bound)
        for i, literal in enumerate(rule.body):
            if isinstance(literal, NafLiteral):
                ground = Fact(literal.atom.predicate,
                              tuple(_value(t, env) for t in literal.atom.terms))
                assert ground not in model, atom
                checks[i] = NafCheck(ground)
            elif isinstance(literal, Comparison):
                left, right = _value(literal.left, env), _value(literal.right, env)
                assert _holds(left, literal.op, right), atom
                checks[i] = ComparisonCheck(left, literal.op, right)
        assert tuple(checks[i] for i in static_order if i in checks) == derivation.checks, \
            (atom, derivation)
        assert Fact(rule.head.predicate, tuple(_value(t, env) for t in rule.head.terms)) == atom
        recorded.add(atom)
    for atom in model:
        explain(graph, atom)
