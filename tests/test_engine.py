"""Evaluator behavior: models, recursion, aggregates, explanations, errors."""
import gc
import hashlib
import io
import pickle
import random
import re
import sys
import tokenize

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratalog import engine
from stratalog.analysis import MAX_JOIN_LITERALS, MAX_STRATUM_ATOMS, SafetyError, analyze
from stratalog.engine import (
    ComparisonCheck,
    Derivation,
    DerivationNode,
    EvaluationError,
    Inconsistent,
    Model,
    NafCheck,
    NotDerivedError,
    _compile_rule,
    evaluate,
    explain,
    query,
)
from stratalog.facts import Fact, Symbol, constant_key, fact
from stratalog.lang import AggregateLiteral
from stratalog.oracle import OracleEvaluationError, naive_oracle
from stratalog.parser import parse_program
from stratalog.report import _render_node
from stratalog.rules import RULES_TEXT

from derivations import check_derivations

WINDOW_TEXT = """\
#const window = 600.
#const threshold = 5.
failed_count(I, T, C) :-
    attempt(I, T),
    C = #count{T2 : attempt(I, T2), T2 >= T - window, T2 <= T}.
flagged(I, T) :- failed_count(I, T, C), C >= threshold.
"""


def attempts(ip, times):
    return [fact("attempt", ip, t) for t in times]


class TestModels:
    def test_birds_exact_model(self, birds_program):
        model, _ = evaluate(birds_program)
        assert set(model) == {
            fact("bird", Symbol("tweety")),
            fact("penguin", Symbol("polly")),
            fact("abnormal", Symbol("polly")),
            fact("can_fly", Symbol("tweety")),
        }

    def test_facts_only_program(self):
        model, _ = evaluate(parse_program("p(1). q(a, \"b\")."))
        assert set(model) == {fact("p", 1), fact("q", Symbol("a"), "b")}

    def test_extra_facts_merge_with_set_semantics(self, birds_program):
        model, _ = evaluate(
            birds_program,
            extra_facts=[fact("bird", Symbol("tweety")), fact("bird", Symbol("rex"))])
        flying = query(model, "can_fly")
        assert flying == [fact("can_fly", Symbol("rex")),
                          fact("can_fly", Symbol("tweety"))]
        assert list(model).count(fact("bird", Symbol("tweety"))) == 1

    def test_unsafe_program_raises(self):
        with pytest.raises(SafetyError):
            evaluate(parse_program("p(X) :- q(Y)."))

    def test_path_over_four_cycle(self):
        program = parse_program(
            "path(X, Y) :- edge(X, Y)."
            " path(X, Y) :- path(X, Z), edge(Z, Y)."
            " edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 1).")
        model, _ = evaluate(program)
        paths = {args for args in model.atoms("path")}
        assert paths == {(a, b) for a in range(1, 5) for b in range(1, 5)}
        assert len(paths) == 16


class TestQuery:
    def test_results_sorted_by_args(self):
        model, _ = evaluate(parse_program('p(2). p("a"). p(b). p(1).'))
        assert query(model, "p") == [fact("p", 1), fact("p", 2),
                                     fact("p", Symbol("b")), fact("p", "a")]

    def test_unknown_predicate_empty(self, birds_program):
        model, _ = evaluate(birds_program)
        assert query(model, "no_such_predicate") == []

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([
        st.integers(-5, 5),
        st.text("ab", max_size=2),
        st.one_of(st.integers(-5, 5), st.text("ab", max_size=2)),
        st.one_of(st.integers(-5, 5), st.text("ab", max_size=2),
                  st.sampled_from([Symbol("a"), Symbol("b")])),
    ]).flatmap(lambda constants: st.lists(st.lists(constants, max_size=3).map(tuple),
                                          max_size=12)))
    def test_sorted_by_constant_key(self, rows):
        """Plain-int and plain-str relations sort without keys, any other
        mix by ``constant_key``; arities may differ within a predicate. Each
        atom is a :class:`Fact` built for the result."""
        model = Model()
        for args in rows:
            model.add(Fact("p", args))
        found = query(model, "p")
        assert found == sorted(set(model), key=Fact.sort_key)
        assert all(type(atom) is Fact and atom in model for atom in found)


class TestAggregateWindows:
    def test_five_in_window_fires(self):
        program = parse_program(WINDOW_TEXT)
        model, _ = evaluate(program, attempts(Symbol("ip1"), [0, 100, 200, 300, 400]))
        assert fact("flagged", Symbol("ip1"), 400) in set(model)

    def test_four_in_window_does_not_fire(self):
        program = parse_program(WINDOW_TEXT)
        model, _ = evaluate(program, attempts(Symbol("ip1"), [0, 100, 200, 300]))
        assert model.atoms("flagged") == []

    def test_window_edges_inclusive(self):
        program = parse_program(WINDOW_TEXT)
        # the attempt at exactly T - window still counts
        model, _ = evaluate(
            program, attempts(Symbol("ip1"), [0, 150, 300, 450, 600]))
        assert fact("flagged", Symbol("ip1"), 600) in set(model)
        # one second older and it falls out
        model, _ = evaluate(
            program, attempts(Symbol("ip1"), [-1, 150, 300, 450, 600]))
        assert model.atoms("flagged") == []

    def test_counts_are_per_group(self):
        program = parse_program(WINDOW_TEXT)
        mixed = attempts(Symbol("ip1"), [0, 1, 2]) + attempts(Symbol("ip2"), [0, 1])
        model, _ = evaluate(program, mixed)
        counts = {(ip, t): c for ip, t, c in model.atoms("failed_count")}
        assert counts[(Symbol("ip1"), 2)] == 3
        assert counts[(Symbol("ip2"), 1)] == 2

    def test_distinct_tuples_counted_once(self):
        program = parse_program(
            "n(C) :- m(_), C = #count{X, Y : pair(X, Y)}."
            " m(0). pair(1, 1). pair(1, 2). pair(2, 1). pair(1, 1).")
        model, _ = evaluate(program)
        assert model.atoms("n") == [(3,)]

    def test_non_integer_guard_bound_never_fires(self):
        model, _ = evaluate(parse_program(
            "w(X) :- p(X), #count{T : p(T)} >= lots. p(1)."))
        assert model.atoms("w") == []


class TestComparisons:
    def test_kind_order_int_before_symbol_before_string(self):
        model, _ = evaluate(parse_program(
            'lt(X, Y) :- v(X), v(Y), X < Y. v(9). v(banana). v("apple").'))
        pairs = set(model.atoms("lt"))
        assert (9, Symbol("banana")) in pairs
        assert (Symbol("banana"), "apple") in pairs
        assert (9, "apple") in pairs
        assert len(pairs) == 3

    def test_cross_kind_equality_is_false(self):
        model, _ = evaluate(parse_program(
            'eq(X, Y) :- p(X), q(Y), X == Y. ne(X, Y) :- p(X), q(Y), X != Y.'
            ' p(1). q("1").'))
        assert model.atoms("eq") == []
        assert model.atoms("ne") == [(1, "1")]

    def test_arithmetic_works_on_integers(self):
        model, _ = evaluate(parse_program(
            "r(X) :- p(X), X + 1 > 2, X - 1 < 9. p(2). p(1)."))
        assert model.atoms("r") == [(2,)]

    def test_arithmetic_on_symbol_raises_with_position(self):
        with pytest.raises(EvaluationError, match=r"1:1: arithmetic on non-integer"):
            evaluate(parse_program("q(X) :- p(X), X + 1 > 2.\np(a)."))


class TestConstraints:
    def test_violated_constraint_returns_witness(self):
        result = evaluate(parse_program("p(5). p(2).\n:- p(X), X > 3."))
        assert isinstance(result, Inconsistent)
        assert result.witness == {"X": 5}
        assert result.constraint.span.line == 2

    def test_satisfied_constraint_returns_model(self):
        result = evaluate(parse_program("p(2).\n:- p(X), X > 3."))
        model, _ = result
        assert set(model) == {fact("p", 2)}

    def test_constraint_sees_derived_atoms(self):
        result = evaluate(parse_program(
            "q(X) :- p(X). p(7). :- q(X), X == 7."))
        assert isinstance(result, Inconsistent)

    def test_an_inconsistent_result_does_not_unpack(self):
        with pytest.raises(TypeError):
            model, graph = evaluate(parse_program("p(5).\n:- p(X), X > 3."))
        result = evaluate(parse_program("p(5).\n:- p(X), X > 3."))
        assert not isinstance(result, tuple)
        assert repr(result) == f"Inconsistent(constraint={result.constraint!r}, witness={{'X': 5}})"


class TestExplain:
    def test_rule_node_with_naf_check(self, birds_program):
        _, graph = evaluate(birds_program)
        node = explain(graph, fact("can_fly", Symbol("tweety")))
        assert node.rule is not None
        assert node.rule.head.predicate == "can_fly"
        assert not node.is_fact
        assert node.checks == (NafCheck(fact("abnormal", Symbol("tweety"))),)
        assert str(node.checks[0]) == "not abnormal(tweety) holds"
        (child,) = node.children
        assert child.atom == fact("bird", Symbol("tweety"))
        assert child.is_fact and child.children == []

    def test_fact_node_is_leaf(self, birds_program):
        _, graph = evaluate(birds_program)
        leaf = explain(graph, fact("penguin", Symbol("polly")))
        assert leaf.is_fact and leaf.rule is None and leaf.checks == ()

    def test_underivable_atom_raises(self, birds_program):
        _, graph = evaluate(birds_program)
        with pytest.raises(NotDerivedError):
            explain(graph, fact("can_fly", Symbol("polly")))

    def test_window_explanation_shows_count_checks(self):
        program = parse_program(WINDOW_TEXT)
        _, graph = evaluate(program, attempts(Symbol("ip1"), [0, 100, 200, 300, 400]))
        flagged = explain(graph, fact("flagged", Symbol("ip1"), 400))
        assert [str(c) for c in flagged.checks] == ["5 >= 5"]
        (count_node,) = flagged.children
        assert count_node.atom == fact("failed_count", Symbol("ip1"), 400, 5)
        assert [str(c) for c in count_node.checks] == ["count 5"]
        support_atoms = {c.atom for c in count_node.children}
        assert support_atoms == {fact("attempt", Symbol("ip1"), 400)}

    def test_guard_aggregate_check_string(self):
        program = parse_program(
            "noisy(I) :- conn(I, _), #count{T : conn(I, T)} >= 3."
            " conn(a, 1). conn(a, 2). conn(a, 3).")
        _, graph = evaluate(program)
        node = explain(graph, fact("noisy", Symbol("a")))
        assert [str(c) for c in node.checks] == ["count 3 >= threshold 3"]


    def test_deep_derivation_unfolds(self):
        edges = " ".join(f"edge({i}, {i + 1})." for i in range(3000))
        _, graph = evaluate(parse_program(
            "reach(0). reach(Y) :- reach(X), edge(X, Y)." + edges))
        node, depth = explain(graph, fact("reach", 3000)), 0
        while not node.is_fact:
            reach, edge = node.children
            assert edge.atom == fact("edge", 2999 - depth, 3000 - depth) and edge.is_fact
            node, depth = reach, depth + 1
        assert (node.atom, depth) == (fact("reach", 0), 3000)

    @staticmethod
    def ladder(n):
        """``s(n)`` rests on ``s(n-1)`` twice, once through ``t(n-1)``: its
        unfolded tree has 2^(n+2) - 3 nodes over 3n + 1 distinct atoms."""
        edges = " ".join(f"e({i}, {i + 1})." for i in range(n))
        return f"s(0). {edges} s(Y) :- s(X), e(X, Y), t(X). t(X) :- s(X)."

    def test_a_derived_atom_met_again_is_the_same_node(self):
        n = 12
        _, graph = evaluate(parse_program(self.ladder(n)))
        root = explain(graph, fact("s", n))

        def unfold(atom):  # the tree of first derivations, from the entries
            entry = graph.entries.get(atom)
            if entry is None:
                return (atom, None, (), [])
            return (atom, entry.rule, entry.checks, [unfold(s) for s in entry.supports])

        def as_tree(node):
            return (node.atom, node.rule, node.checks, [as_tree(c) for c in node.children])

        distinct, unfolded, pending = set(), 0, [root]
        while pending:
            node = pending.pop()
            distinct.add(id(node))
            unfolded += 1
            pending.extend(node.children)
        assert unfolded == 2 ** (n + 2) - 3
        assert len(distinct) <= 3 * n + 3
        assert as_tree(root) == unfold(fact("s", n))


class TestDerivationValue:
    """A derivation is a named tuple ``(rule, supports, checks)``: immutable,
    hashed and compared as that tuple, and printed and pickled as before."""

    TEXT = "e(1,2). r(X,Y) :- e(X,Y), not q(X), X < Y."
    RULE_REPR = (
        "Rule(head=Atom(predicate='r', terms=(Variable(name='X'), Variable(name='Y'))), "
        "body=(Atom(predicate='e', terms=(Variable(name='X'), Variable(name='Y'))), "
        "NafLiteral(atom=Atom(predicate='q', terms=(Variable(name='X'),))), "
        "Comparison(left=Variable(name='X'), op='<', right=Variable(name='Y'))), "
        "span=Span(line=1, column=9))")

    def derivation(self):
        _, graph = evaluate(parse_program(self.TEXT))
        (atom, derivation), = graph.entries.items()
        assert atom == fact("r", 1, 2) and type(atom) is Fact
        return derivation

    def test_the_engine_records_one(self):
        derivation = self.derivation()
        assert type(derivation) is Derivation
        assert derivation.supports == (fact("e", 1, 2),)
        assert derivation.checks == (NafCheck(fact("q", 1)), ComparisonCheck(1, "<", 2))

    def test_repr(self):
        assert repr(self.derivation()) == (
            f"Derivation(rule={self.RULE_REPR}, supports=(Fact(predicate='e', args=(1, 2)),), "
            "checks=(NafCheck(atom=Fact(predicate='q', args=(1,))), "
            "ComparisonCheck(left=1, op='<', right=2)))")

    def test_immutable(self):
        derivation = self.derivation()
        with pytest.raises(AttributeError):
            derivation.rule = None
        with pytest.raises(AttributeError):
            derivation.extra = 1

    def test_hash_and_equality_are_the_field_tuple(self):
        derivation = self.derivation()
        fields = (derivation.rule, derivation.supports, derivation.checks)
        assert hash(derivation) == hash(tuple(derivation)) == hash(fields)
        assert derivation == fields

    def test_keywords(self):
        derivation = self.derivation()
        assert Derivation(checks=derivation.checks, rule=derivation.rule,
                          supports=derivation.supports) == derivation

    def test_pickle_round_trip(self):
        derivation = self.derivation()
        again = pickle.loads(pickle.dumps(derivation))
        assert again == derivation and type(again) is Derivation


class TestDeterminismAndSemantics:
    def test_two_runs_identical(self, bundled_program):
        extra = [fact("login_attempt", "9.9.9.9", t, Symbol("failed"), "root")
                 for t in range(5)]
        first = evaluate(bundled_program, extra)
        second = evaluate(bundled_program, extra)
        assert list(first[0]) == list(second[0])

    def test_lower_strata_unaffected_by_higher_rules(self):
        base = ("b(X) :- a(X), X > 1. a(1). a(2). a(3).",
                "c(X) :- a(X), not b(X).")
        full, _ = evaluate(parse_program(" ".join(base)))
        lower, _ = evaluate(parse_program(base[0]))
        assert [f for f in full if f.predicate in ("a", "b")] == list(lower)

    def test_model_is_a_fixpoint(self, birds_program):
        model, _ = evaluate(birds_program)
        again, _ = evaluate(birds_program, extra_facts=list(model))
        assert set(again) == set(model)

    def test_recursive_rule_reaches_fixpoint_with_delta(self):
        edges = " ".join(f"edge({i}, {i + 1})." for i in range(30))
        program = parse_program(
            "reach(0). reach(Y) :- reach(X), edge(X, Y)." + edges)
        model, _ = evaluate(program)
        assert sorted(model.atoms("reach")) == [(i,) for i in range(31)]


def agrees_with_oracle(text, facts=()):
    """Evaluate with the engine and the naive oracle; return the engine's
    model after checking both computed the same atoms."""
    program = parse_program(text)
    model, _ = evaluate(program, list(facts))
    assert set(model) == set(naive_oracle(program, list(facts)))
    return model


def range_counted(text):
    """For each rule with an aggregate: whether it compiled to a range count."""
    program = parse_program(text)
    return [bool(_compile_rule(rule, plan, index).range_counts)
            for index, (rule, plan) in enumerate(zip(program.rules, analyze(program).plans))
            if any(isinstance(lit, AggregateLiteral) for lit in rule.body)]


class TestRangeCounts:
    """Counts of one range-guarded variable are answered from a sorted
    index; every other shape takes the general path. Both must agree with
    the oracle."""

    @pytest.mark.parametrize("text", [
        WINDOW_TEXT,
        "c(I, N) :- a(I, _), N = #count{T : a(I, T), T > 1, T < 5}.",
        "c(I, N) :- a(I, U), N = #count{T : a(I, T), U - 2 <= T}.",
        "c(N) :- a(_, _), N = #count{T : a(_, T)}.",
        'c(I) :- a(I, _), #count{T : b(I, T, tag, _)} >= 2.',
    ])
    def test_fitting_shapes_use_the_range_index(self, text):
        assert range_counted(text) == [True]

    @pytest.mark.parametrize("text", [
        "c(I, N) :- a(I, U), N = #count{T : a(I, T), T == U}.",
        "c(I, N) :- a(I, U), N = #count{T : a(I, T), T != U}.",
        "c(I, N) :- a(I, _), N = #count{T : a(I, T), b(I, T, _, _)}.",
        "c(I, N) :- a(I, _), N = #count{T : b(T, I, X, X)}.",
        "c(I, N) :- a(I, _), N = #count{T, X : b(I, T, X, _)}.",
        "c(I, N) :- a(I, _), N = #count{T : a(I, T), T >= T - 1}.",
    ])
    def test_other_shapes_stay_on_the_general_path(self, text):
        assert range_counted(text) == [False]
        facts = "a(1, 1). a(1, 2). a(1, 4). a(2, 2). b(1, 1, 1, 1). b(1, 2, 3, 4)." \
                " b(2, 1, 1, 1). b(4, 1, 2, 2). b(2, 1, tag, 0). b(2, 3, tag, 1)."
        agrees_with_oracle(text + facts)

    @pytest.mark.parametrize("gap, expected", [(600, 2), (601, 1)])
    def test_window_edges(self, gap, expected):
        model = agrees_with_oracle(WINDOW_TEXT, attempts("ip", [1000, 1000 + gap]))
        assert fact("failed_count", "ip", 1000 + gap, expected) in model

    def test_duplicates_and_other_groups_are_not_counted(self):
        model = agrees_with_oracle(
            "c(I, N) :- a(I, _, _), N = #count{T : a(I, T, _)}."
            " a(1, 5, x). a(1, 5, y). a(1, 6, x). a(2, 5, x).")
        assert set(model.atoms("c")) == {(1, 2), (2, 1)}

    @pytest.mark.parametrize("guards", [
        "T > 3", "T < b", 'T >= "x"', "T <= a", "T > b, T < \"y\"", "3 < T",
    ])
    def test_mixed_kind_values_under_one_sided_bounds(self, guards):
        values = ' '.join(f"v(g, {v})." for v in ('1', '5', 'a', 'b', 'c', '"x"', '"y"'))
        text = f"c(G, N) :- k(G), N = #count{{T : v(G, T), {guards}}}. k(g). k(h). {values}"
        assert range_counted(text) == [True]
        agrees_with_oracle(text)

    def test_symbol_arithmetic_in_a_guard_raises_as_before(self):
        text = ("c(I, N) :- s(I, V), N = #count{T : p(I, T), T >= V - 1}.\n"
                "s(a, b). p(a, 1).")
        assert range_counted(text) == [True]
        with pytest.raises(EvaluationError) as raised:
            evaluate(parse_program(text))
        assert str(raised.value) == "1:1: arithmetic on non-integer constant (b - 1)"
        with pytest.raises(OracleEvaluationError):
            naive_oracle(parse_program(text))

    def test_symbol_arithmetic_over_an_empty_group_is_not_evaluated(self):
        model = agrees_with_oracle(
            "c(I, N) :- s(I, V), N = #count{T : p(I, T), T >= V - 1}."
            " s(a, b). s(c, 3). p(c, 1). p(c, 2).")
        assert set(model.atoms("c")) == {(Symbol("a"), 0), (Symbol("c"), 1)}

    def test_a_guard_after_one_that_empties_the_range_is_not_evaluated(self):
        text = ("c(I, N) :- s(I, V), N = #count{T : p(I, T), T > 5, T >= V - 1}."
                " s(a, b). p(a, 1). p(a, 2).")
        assert range_counted(text) == [True]
        model = agrees_with_oracle(text)
        assert model.atoms("c") == [(Symbol("a"), 0)]

    def test_a_guard_after_one_that_leaves_keys_raises(self):
        text = ("c(I, N) :- s(I, V), N = #count{T : p(I, T), T > 1, T >= V - 1}."
                " s(a, b). p(a, 1). p(a, 2).")
        assert range_counted(text) == [True]
        with pytest.raises(EvaluationError) as raised:
            evaluate(parse_program(text))
        assert str(raised.value) == "1:1: arithmetic on non-integer constant (b - 1)"
        with pytest.raises(OracleEvaluationError):
            naive_oracle(parse_program(text))

    def test_three_guards_narrow_in_condition_order(self):
        points = " ".join(f"p({group}, {t})." for t in range(8) for group in ("a", "z"))
        text = ("c(I, N) :- s(I, L, H), N = #count{T : p(I, T), T >= L, H >= T, T > L + 1}."
                f" s(a, 1, 6). s(z, q, 9). {points}")
        assert range_counted(text) == [True]
        model = agrees_with_oracle(text)
        # z's first guard leaves no integer, so its third, q + 1, never runs
        assert set(model.atoms("c")) == {(Symbol("a"), 4), (Symbol("z"), 0)}

    VALUES = st.sampled_from(["0", "1", "2", "3", "5", "-1", "a", "b", '"x"', '"y"'])
    SIDES = st.sampled_from(["V", "V + 1", "V - 1", "W", "0", "3", "-2", "b", "z", '"x"'])

    @settings(max_examples=120, deadline=None)
    @given(guards=st.lists(st.tuples(st.sampled_from(["<", "<=", ">", ">="]), SIDES,
                                     st.booleans()), min_size=1, max_size=3),
           points=st.lists(st.tuples(st.sampled_from("gh"), VALUES), max_size=6),
           outer=st.lists(st.tuples(st.sampled_from("gh"), VALUES, VALUES),
                          min_size=1, max_size=3))
    def test_guards_raise_or_count_as_the_oracle_does(self, guards, points, outer):
        condition = ", ".join(f"T {op} {side}" if left else f"{side} {op} T"
                              for op, side, left in guards)
        text = (f"c(G, V, W, N) :- s(G, V, W), N = #count{{T : p(G, T), {condition}}}.\n"
                + " ".join([*(f"p({g}, {t})." for g, t in points),
                            *(f"s({g}, {v}, {w})." for g, v, w in outer)]))
        assert range_counted(text) == [True]
        program = parse_program(text)
        try:
            expected = set(naive_oracle(program))
        except OracleEvaluationError:
            with pytest.raises(EvaluationError):
                evaluate(program)
        else:
            model, _ = evaluate(program)
            assert set(model) == expected

    def test_every_bundled_count_uses_the_range_index(self):
        flags = range_counted(RULES_TEXT)
        assert len(flags) == 4 and all(flags)

    def test_atoms_of_another_arity_never_match(self):
        model = agrees_with_oracle(
            "q(X) :- p(X). r(N) :- s(_), N = #count{T : p(T)}. p(1, 2). p(3). s(0).")
        assert model.atoms("q") == [(3,)]
        assert model.atoms("r") == [(1,)]


class TestRelationIndex:
    """A relation holds one predicate at one arity; its only index kind maps
    the values at a set of bound positions to exactly the matching rows."""

    def test_bound_positions_select_exactly_their_rows_in_insertion_order(self):
        model = Model()
        for args in [(1, 1), (1, 2), (2, 2), (1, 3), (3, 2), (1, 4)]:
            model.add(Fact("e", args))
        relation = model.relation("e", 2)
        assert relation.index((0,))[1] == [(1, 1), (1, 2), (1, 3), (1, 4)]
        assert relation.index((1,))[2] == [(1, 2), (2, 2), (3, 2)]
        assert relation.index((1,))[4] == [(1, 4)]
        assert relation.index((0, 1))[1, 2] == [(1, 2)]
        assert relation.index((1, 0))[2, 3] == [(3, 2)]
        assert relation.index((0,)).get(9) is None
        assert relation.index((0, 1)).get((9, 2)) is None
        assert relation.index(()) == {(): relation.rows}
        assert relation.rows == model.atoms("e")

    def test_index_built_after_the_atoms_keeps_insertion_order(self):
        model = Model()
        for args in [(2, 1), (1, 1), (2, 2), (1, 2)]:
            model.add(Fact("e", args))
        relation = model.relation("e", 2)
        by_second, by_both = relation.index((1,)), relation.index((0, 1))
        assert by_second[1] == [(2, 1), (1, 1)]
        model.add(Fact("e", (3, 1)))
        model.add(Fact("e", (2, 1)))  # already there: no second row
        assert by_second[1] == [(2, 1), (1, 1), (3, 1)]
        assert by_both[3, 1] == [(3, 1)]
        assert relation.index((1,)) is by_second
        assert relation.index((0,))[2] == [(2, 1), (2, 2)]

    def test_other_arities_live_in_other_relations(self):
        model = Model()
        for args in [(1,), (1, 2), (1, 2, 3), (2,)]:
            model.add(Fact("e", args))
        assert model.relation("e", 2).index((0,)) == {1: [(1, 2)]}
        assert model.relation("e", 1).rows == [(1,), (2,)]
        assert Fact("e", (1, 2, 3)) in model and Fact("e", (2, 2)) not in model

    def test_a_predicate_at_two_arities(self):
        text = ("p(1, 10). p(1). p(2, 30). p(2). p(1, 20). p(3, 40)."
                " k(1). k(2). k(3). k(4)."
                " q(X, Y) :- k(X), p(X, Y)."
                " p(X) :- q(X, 40)."
                " solo(X) :- k(X), not p(X)."
                " n(X, N) :- k(X), N = #count{Y : p(X, Y), Y >= 10, Y <= 30}.")
        assert range_counted(text) == [True]
        model = agrees_with_oracle(text)
        assert model.atoms("q") == [(1, 10), (1, 20), (2, 30), (3, 40)]
        assert model.atoms("p") == [(1, 10), (1,), (2, 30), (2,), (1, 20), (3, 40), (3,)]
        assert model.atoms("solo") == [(4,)]
        assert sorted(model.atoms("n")) == [(1, 2), (2, 1), (3, 0), (4, 0)]
        assert [atom.args for atom in query(model, "p")] == \
            [(1,), (1, 10), (1, 20), (2,), (2, 30), (3,), (3, 40)]


def shuffled_chain(n, seed):
    """A path over n + 1 random node labels and its edges as facts, shuffled."""
    rng = random.Random(seed)
    path = rng.sample(range(10 * (n + 1)), n + 1)
    edges = [f"edge({a}, {b})." for a, b in zip(path, path[1:])]
    rng.shuffle(edges)
    return path, " ".join(edges)


CLOSURES = {
    "non-linear": "reach(X, Z) :- reach(X, Y), reach(Y, Z).",
    "delta-inner": "reach(X, Z) :- edge(X, Y), reach(Y, Z).",
    "delta-first": "reach(X, Z) :- reach(X, Y), edge(Y, Z).",
}


class TestRecursivePlans:
    """Recursive rules run semi-naive rounds on plans that scan the delta
    atom first. Each program must agree with the oracle and with a closed
    form, and every recorded derivation must re-check."""

    @staticmethod
    def run(text):
        model = agrees_with_oracle(text)
        check_derivations(*evaluate(parse_program(text)))
        return model

    @pytest.mark.parametrize("rule", CLOSURES.values(), ids=CLOSURES)
    def test_closure_of_a_chain(self, rule):
        _, edges = shuffled_chain(12, seed=1)
        model = self.run(f"reach(X, Y) :- edge(X, Y). {rule} {edges}")
        assert len(model.atoms("reach")) == 12 * 13 // 2

    @pytest.mark.parametrize("rule", CLOSURES.values(), ids=CLOSURES)
    def test_explanation_rests_on_the_chain_edges_in_order(self, rule):
        path, edges = shuffled_chain(40, seed=3)
        _, graph = evaluate(parse_program(f"reach(X, Y) :- edge(X, Y). {rule} {edges}"))
        leaves, pending = [], [explain(graph, fact("reach", path[0], path[-1]))]
        while pending:  # depth first, children left to right
            node = pending.pop()
            if node.is_fact:
                leaves.append(node.atom.args)
            else:
                assert [child.atom.predicate for child in node.children] == \
                    [literal.predicate for literal in node.rule.body]
                pending.extend(reversed(node.children))
        assert leaves == list(zip(path, path[1:]))

    def test_mutual_recursion(self):
        _, edges = shuffled_chain(12, seed=2)
        model = self.run("odd(X, Y) :- edge(X, Y). odd(X, Z) :- even(X, Y), edge(Y, Z)."
                         " even(X, Z) :- odd(X, Y), edge(Y, Z). " + edges)
        # paths of length L in a chain of 12 edges: 13 - L
        assert len(model.atoms("odd")) == sum(13 - n for n in range(1, 13, 2))
        assert len(model.atoms("even")) == sum(13 - n for n in range(2, 13, 2))

    def test_join_waits_for_its_second_atom(self):
        # c(N) needs b(N), which arrives a round after a(N): only the round
        # that scans the delta at b(X) can derive it
        model = self.run("c(X) :- a(X), b(X). a(Y) :- c(X), next(X, Y). b(X) :- a(X)."
                         " a(X) :- start(X). start(0). "
                         + " ".join(f"next({i}, {i + 1})." for i in range(8)))
        assert sorted(model.atoms("c")) == [(i,) for i in range(9)]

    def test_repeated_variable_in_the_recursive_atom(self):
        path, edges = shuffled_chain(12, seed=4)
        model = self.run(f"start({path[0]}). loop(X, X) :- start(X). loop(X, Y) :- edge(X, Y)."
                         " loop(Y, Y) :- loop(X, X), edge(X, Y). " + edges)
        assert {args for args in model.atoms("loop") if args[0] == args[1]} == \
            {(node, node) for node in path}
        assert len(model.atoms("loop")) == 13 + 12

    def test_constant_in_the_recursive_atom(self):
        path, edges = shuffled_chain(12, seed=5)
        model = self.run(f"r(X, Y) :- edge(X, Y). r({path[0]}, Z) :- r({path[0]}, Y), edge(Y, Z). "
                         + edges)
        assert {args for args in model.atoms("r") if args[0] == path[0]} == \
            {(path[0], node) for node in path[1:]}
        assert len(model.atoms("r")) == 12 + 11

    def test_arithmetic_in_the_recursive_atom_keeps_the_static_order(self):
        text = "count(0). count(X) :- count(X - 1), limit(X). " + \
            " ".join(f"limit({i})." for i in range(1, 13))
        plan = analyze(parse_program(text)).plans[0]
        assert plan.deltas[0] == plan.order == (1, 0)
        model, graph = evaluate(parse_program(text))
        assert set(model) == set(naive_oracle(parse_program(text)))
        assert sorted(model.atoms("count")) == [(i,) for i in range(13)]
        node = explain(graph, fact("count", 12))
        assert [child.atom for child in node.children] == [fact("limit", 12), fact("count", 11)]


def run_digest(text):
    """SHA-256 of a program's model order and of each recorded derivation
    (atom, rule span, supports, checks) in insertion order."""
    model, graph = evaluate(parse_program(text))
    lines = [str(atom) for atom in model]
    for atom, entry in graph.entries.items():
        lines.append(" | ".join([str(atom), str(entry.rule.span),
                                 " ".join(map(str, entry.supports)),
                                 " ".join(map(repr, entry.checks))]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def semi_naive_programs():
    path, edges = shuffled_chain(30, seed=7)
    programs = {name: f"reach(X, Y) :- edge(X, Y). {rule} {edges}"
                for name, rule in CLOSURES.items()}
    programs["mutual"] = ("odd(X, Y) :- edge(X, Y). odd(X, Z) :- even(X, Y), edge(Y, Z)."
                          " even(X, Z) :- odd(X, Y), edge(Y, Z). " + edges)
    programs["keyed-delta"] = (f"r(X, Y) :- edge(X, Y). r({path[0]}, Z) :- "
                               f"r({path[0]}, Y), edge(Y, Z), Z != {path[-1]}. " + edges)
    programs["two-arities"] = ("p(X, Y) :- edge(X, Y). p(X, Z) :- p(X, Y), edge(Y, Z)."
                               f" p({path[0]}). p(Y) :- p(X), p(X, Y), not q(Y)."
                               f" q({path[5]}). " + edges)
    return programs


class TestSemiNaiveDigest:
    """The semi-naive rounds must keep every atom's order and its first
    recorded derivation; the digests were taken before the delta became a
    window of the model's rows."""

    DIGESTS = {
        "non-linear": "bea4d10c1ef71a2a3b58a5940f5289e4bf6ba562e3776db56d5f9b5a0c7f61c1",
        "delta-inner": "e2267bdcf9ff301ed25967060153c168a7c48ed083eb354d2cb3173e0ef1ae21",
        "delta-first": "3aa400b25e0ec6bf47c3d19379596b187ec8270b12e9116258b5df622d531f05",
        "mutual": "bec562401370465a54334a4c216efd4871c0ad1a49f3903e5cc50390cf99f0ea",
        "keyed-delta": "b0c9db426ba1c728b47312a5a74ce5ac7e64ac7bfb94ea046f41f7f277d5dac7",
        "two-arities": "eaaaa09343de42f515da4706a18d0d0152500b515fbd46d7ce586ffdb44c9b26",
    }

    @pytest.mark.parametrize("name", DIGESTS)
    def test_digest(self, name):
        assert run_digest(semi_naive_programs()[name]) == self.DIGESTS[name]


class TestCollector:
    """``evaluate`` runs with the cyclic collector paused and leaves it as
    it found it, however it ends; its records can be left untracked."""

    OUTCOMES = {
        "model": ("p(1). q(X) :- p(X).", tuple),
        "inconsistent": ("p(1). :- p(1).", Inconsistent),
        "unsafe": ("q(X) :- r(Y), not p(X).", SafetyError),
        "evaluation-error": ("p(a). q(X + 1) :- p(X).", EvaluationError),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("name", OUTCOMES)
    def test_state_is_restored(self, name, enabled):
        text, outcome = self.OUTCOMES[name]
        program = parse_program(text)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                result = evaluate(program)
            except (SafetyError, EvaluationError) as error:
                result = error
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert isinstance(result, outcome)

    def test_no_collection_runs_during_a_pass(self):
        _, edges = shuffled_chain(150, seed=1)  # 11,325 atoms, each a few allocations
        program = parse_program(f"reach(X, Y) :- edge(X, Y). {CLOSURES['delta-first']} {edges}")
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.callbacks.append(count)
        try:
            evaluate(program)
        finally:
            gc.callbacks.remove(count)
            if not was:
                gc.disable()
        assert starts == []

    # a #count guard and an integer comparison: checks of integers and operators
    CHECKED = "big(X) :- n(X), X >= 0, #count{Y : n(Y)} >= 1. " + \
        " ".join(f"n({i})." for i in range(450))

    @pytest.mark.parametrize("name", [*CLOSURES, "checks"])
    def test_records_are_untracked_once_collected(self, name):
        """A record of integer rows and of checks of integers holds nothing
        the collector must track. One collection untracks the rows and the
        checks, but it may meet a record before what it holds; the next
        then untracks the record."""
        text = self.CHECKED if name == "checks" else semi_naive_programs()[name]
        _, graph = evaluate(parse_program(text))
        gc.collect()
        gc.collect()
        assert len(graph.records) > 400
        assert not any(map(gc.is_tracked, graph.records.values()))


class TestOneEntryPerAtom:
    """A relation maps each argument tuple to its derivation record, None
    for an input fact; the graph's views read the model, and a :class:`Fact`
    is built only when a view or ``query`` hands one out."""

    TEXT = ("e(1, 2). e(2, 3). r(1, 3). r(X, Y) :- e(X, Y). "
            "r(X, Z) :- r(X, Y), e(Y, Z). s(X) :- r(X, _).")
    INPUTS = [fact("e", 1, 2), fact("e", 2, 3), fact("r", 1, 3), fact("e", 3, 4)]

    def evaluate(self):
        return evaluate(parse_program(self.TEXT), [fact("e", 3, 4)])

    def test_evaluate_builds_no_fact(self):
        _, edges = shuffled_chain(150, seed=1)  # 11,325 derived atoms
        program = parse_program(f"reach(X, Y) :- edge(X, Y). {CLOSURES['delta-first']} {edges}")

        def facts():
            return sum(type(o) is Fact for o in gc.get_objects())

        was = gc.isenabled()
        gc.disable()  # a collection could untrack facts and hide them
        try:
            before = facts()
            model, _ = evaluate(program)
            after = facts()
        finally:
            if was:
                gc.enable()
        assert len(model) == 150 + 150 * 151 // 2
        assert after == before

    def test_records_follow_the_model_order_without_its_input_facts(self):
        model, graph = self.evaluate()
        atoms = list(model)
        assert atoms[:4] == self.INPUTS
        derived = atoms[4:]
        assert list(graph.records) == list(graph.entries) == derived
        assert len(graph.records) == len(graph.entries) == len(derived) == len(model) - 4
        assert list(graph.fact_atoms) == self.INPUTS and len(graph.fact_atoms) == 4
        assert all(atom in graph.fact_atoms and atom not in graph.records
                   for atom in self.INPUTS)
        assert not any(atom in graph.fact_atoms for atom in derived)
        assert all(graph.records[atom] is graph.records[atom] for atom in derived)
        assert fact("r", 9, 9) not in graph.fact_atoms and fact("r", 9, 9) not in graph.records

    def test_an_input_fact_a_rule_also_derives_stays_an_input_fact(self):
        _, graph = self.evaluate()
        assert explain(graph, fact("r", 1, 3)) == DerivationNode(fact("r", 1, 3), None, (), [])
        node = explain(graph, fact("r", 1, 4))
        assert [(child.atom, child.is_fact) for child in node.children] == \
            [(fact("r", 1, 3), True), (fact("e", 3, 4), True)]
        lines = []
        _render_node(node, 0, lines)
        assert lines[1] == "  r(1,3)  [input fact]"

    @pytest.mark.parametrize("atom", [fact("r", 3, 1), fact("r", 1), fact("t", 1, 3)],
                             ids=["arguments", "arity", "predicate"])
    def test_explain_raises_for_an_atom_not_in_the_model(self, atom):
        _, graph = self.evaluate()
        with pytest.raises(NotDerivedError) as raised:
            explain(graph, atom)
        assert raised.value.atom == atom


class TestOnePlanner:
    """The engine orders bodies and aggregate conditions with the safety
    check's own ``join_order``, so it agrees with the oracle on every rule
    the check accepts."""

    FACTS = "p(1). p(2). q(0). q(1). r(7). "

    @pytest.mark.parametrize("rule, expected", [
        ("c(N) :- r(7), N = #count{X : p(X + 1), q(X)}.", fact("c", 2)),
        ("c(Y) :- r(Y), #count{X : p(X + 1), q(X)} >= 2.", fact("c", 7)),
    ], ids=["assignment", "guard"])
    def test_condition_arithmetic_waits_for_the_atom_binding_it(self, rule, expected):
        model = agrees_with_oracle(self.FACTS + rule)
        assert query(model, "c") == [expected]

    def test_condition_literals_count_toward_the_join_limit(self):
        condition = ", ".join(["p(Y)"] * MAX_JOIN_LITERALS)
        with pytest.raises(EvaluationError, match=f"1:1: rule joins {MAX_JOIN_LITERALS + 1} "
                                                  f"literals.*the limit is {MAX_JOIN_LITERALS}"):
            evaluate(parse_program(f"c(N) :- N = #count{{Y : {condition}}}. p(1)."))


class TestQueryOrder:
    """``query`` sorts the argument tuples as they are and falls back to
    ``constant_key`` only when two kinds meet; either way the order is the
    key order, also when rows tie at their first positions."""

    CONSTANTS = st.sampled_from([0, 1, -1, Symbol("a"), Symbol("b"), "a", "b", ""])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(CONSTANTS, min_size=1, max_size=2).flatmap(
        lambda prefix: st.lists(st.lists(TestQueryOrder.CONSTANTS, max_size=2).map(
            lambda rest: (*prefix, *rest)), min_size=1, max_size=12)))
    def test_rows_tied_at_a_prefix_sort_by_key(self, rows):
        model = Model()
        for args in rows:
            model.add(Fact("p", args))
        expected = sorted(set(rows), key=lambda args: tuple(map(constant_key, args)))
        assert [atom.args for atom in query(model, "p")] == expected


def recorded_sources(monkeypatch):
    """The list that every batch of source compiled from now on joins."""
    sources = []
    compile_plans = engine._compile

    def recording(source):
        sources.append(source)
        return compile_plans(source)
    monkeypatch.setattr(engine, "_compile", recording)
    return sources


def generated_source(monkeypatch, text):
    """The model of a program, checked against the oracle, and the source
    of every plan compiled for it."""
    sources = recorded_sources(monkeypatch)
    return agrees_with_oracle(text), "\n".join(sources)


class TestGeneratedSource:
    """Plans compile to Python source that holds only the names the
    generator makes, the keywords it writes and small integers: every
    constant, predicate and variable of the program reaches the code by
    reference, so no name or value can change what the source says."""

    BIG = "9" * sys.get_int_max_str_digits()
    HOSTILE = f"""\
lambda(1). lambda("\\"\\"\\""). lambda("back\\\\slash\\nnew line"). lambda(sym). lambda({BIG}).
class(1, "\\"\\"\\""). class({BIG}, "x"). class("back\\\\slash\\nnew line", 2). class(sym, sym).
def(None, True) :- lambda(None), class(None, True).
def(None, _x1) :- lambda(None), class(_x1, None), _x1 != "\\"".
count(None, N) :- lambda(None), N = #count{{True : class(True, None)}}.
big(None) :- class(None, _), None == {BIG}.
quote(True) :- lambda(True), True != "\\"\\"\\"", not def(True, True).
sum(None, True + 1) :- class(True, None), True < 3, None == 2.
class(0, 1). class(2, 1).
window(None, N) :- class(None, _), None < 2,
    N = #count{{True : class(True, None), True >= None - 1, True <= None + 1}}.
:- def(None, True), None == "\\n".
"""
    # the keywords, throwaway target and attributes the generator writes
    WORDS = {"def", "for", "in", "if", "not", "is", "None", "and", "else", "try", "except",
             "raise", "return", "continue", "_", "rows", "index", "get", "add", "append",
             "setdefault", "values"}

    def test_hostile_names_and_values_stay_out_of_the_source(self, monkeypatch):
        model, source = generated_source(monkeypatch, self.HOSTILE)
        assert fact("big", int(self.BIG)) in model
        assert fact("quote", "back\\slash\nnew line") in model
        assert fact("window", 1, 2) in model
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        names = {token.string for token in tokens if token.type == tokenize.NAME}
        assert names - self.WORDS and all(
            name in self.WORDS or re.fullmatch(r"[a-z]\d+", name) for name in names)
        assert not [token for token in tokens if token.type == tokenize.STRING]
        assert all(int(token.string) < 100 for token in tokens if token.type == tokenize.NUMBER)
        for name in ("lambda", "class", "True", "_x1", "sym", "back", "slash", self.BIG):
            assert name not in names

    def test_code_lives_only_as_long_as_its_evaluation(self):
        """No cache keeps a generated function, and no reference cycle
        does: with the collector off, they are all freed on return."""
        program = parse_program(self.HOSTILE)
        was = gc.isenabled()
        gc.disable()
        try:
            evaluate(program)
            generated = [obj for obj in gc.get_objects() if type(obj) is type(generated_source)
                         and obj.__code__.co_filename == "<plans>"]
        finally:
            if was:
                gc.enable()
        assert generated == []


class TestPlansThatJoinNothing:
    """A plan is not compiled when its first literal is an atom with no
    arithmetic over a complete relation, one outside the stratum, that
    holds no row at its arity; a stratum left with no plan compiles
    nothing. A first atom that holds arithmetic is compiled and raises as
    the oracle does, however empty its relation."""

    ERROR = "1:1: arithmetic on non-integer constant (1 + a)"

    @pytest.mark.parametrize("text", [
        "p(X) :- q(1 + a, X).",
        "p(X) :- q(1 + a, X). q(X, Y) :- r(X, Y).",
        "p(X) :- q(1 + a, X). q(1, 2).",
        "p(X) :- r(1 + a), q(X).",
        ":- q(1 + a).",
    ], ids=["input-empty", "derived-empty", "with-facts", "before-an-empty-atom", "constraint"])
    def test_arithmetic_in_the_first_atom_raises(self, text):
        program = parse_program(text)
        with pytest.raises(EvaluationError) as raised:
            evaluate(program)
        assert str(raised.value) == self.ERROR
        with pytest.raises(OracleEvaluationError):
            naive_oracle(program)

    def test_bundled_rules_over_logins_only(self, monkeypatch):
        sources = recorded_sources(monkeypatch)
        program = parse_program(RULES_TEXT)
        logins = [fact("login_attempt", "10.0.0.9", t, Symbol("failed"), "root")
                  for t in range(0, 100, 10)]
        model, _ = evaluate(program, logins)
        assert len(model.atoms("potential_brute_force")) == 6
        # stratum 0 and the constraints have no rule, and compile no empty batch
        assert sources and all(source.startswith("def ") for source in sources)
        # an emit stores its record, which starts with the rule's index
        emitting = {program.rules[int(index)].head.predicate for source in sources
                    for index in re.findall(r"\[h\d+\] = \((\d+)\b", source)}
        assert emitting == {"failed_count", "potential_brute_force"}


class TestPlanShape:
    """Every step of a generated plan has one shape: a range count narrows
    guard by guard with no fallback, each index a function reads is
    fetched once at its top, and a scan binds its row by one unpacking."""

    @staticmethod
    def functions(sources):
        return [function for source in sources
                for function in re.split(r"\n(?=def )", source)]

    def test_bundled_rules_over_logins_compile_two_functions(self, monkeypatch):
        sources = recorded_sources(monkeypatch)
        logins = [fact("login_attempt", "10.0.0.9", t, Symbol("failed"), "root")
                  for t in range(0, 100, 10)]
        model, _ = evaluate(parse_program(RULES_TEXT), logins)
        assert len(model.atoms("potential_brute_force")) == 6
        assert len(self.functions(sources)) == 2

    @pytest.mark.parametrize("text", [
        RULES_TEXT + 'login_attempt("10.0.0.9", 5, failed, root). session(1, x, opened, 5).',
        TestGeneratedSource.HOSTILE,
        WINDOW_TEXT + " attempt(a, 1). attempt(a, 2). attempt(b, 3).",
        "reach(X, Z) :- reach(X, Y), reach(Y, Z). reach(X, Y) :- edge(X, Y)."
        " edge(1, 2). edge(2, 3). edge(3, 1).",
        "p(Y) :- q(X, Y), " + ", ".join(["p(X)"] * 20) + ". p(0). q(1, 2). q(0, 1).",
    ], ids=["bundled", "hostile", "window", "nonlinear", "nested"])
    def test_one_shape_per_step(self, monkeypatch, text):
        _, source = generated_source(monkeypatch, text)
        assert not re.search(r"\b(try|except)\b|\bis None\b", source)
        for function in self.functions([source]):
            lines = function.splitlines()
            first_for = next((n for n, line in enumerate(lines)
                              if line.lstrip().startswith("for ")), len(lines))
            fetches = [n for n, line in enumerate(lines)
                       if ".index(" in line or re.match(r"\s*i\d+ = ", line)]
            assert all(n < first_for for n in fetches)
            # a scan's row is unpacked in one line, never read by position
            assert not re.search(r"\ba\d+\[\d+\]", function)
            assert not re.search(r"for [^:]*,[^:]* in (?!k\d+\.values\(\))", function)


def loops(source):
    """The scans in generated source: its loops but those over a relation's indexes."""
    return sum(line.lstrip().startswith("for ") and not line.endswith(".values():")
               for line in source.splitlines())


class TestNesting:
    """CPython refuses more than 20 statically nested blocks, so a plan of
    more loops than that runs as a chain of helper functions."""

    def test_recursive_rule_of_24_stratum_atoms(self, monkeypatch):
        # the chain's edges in reverse, so the first pass derives one atom
        # and the rounds derive the rest
        edges = " ".join(f"q({i}, {i + 1})." for i in reversed(range(6)))
        text = "p(Y) :- q(X, Y), " + ", ".join(["p(X)"] * 24) + f". p(0). {edges}"
        model, source = generated_source(monkeypatch, text)
        assert sorted(model.atoms("p")) == [(i,) for i in range(7)]
        assert loops(source) == 25 * 25  # 25 nested scans in the static plan and each delta plan

    def test_count_of_40_literals_in_a_body_of_30_atoms(self, monkeypatch):
        condition = ", ".join(["e(X, Y)"] * 39 + ["Y > 1"])
        text = ("c(X, N) :- " + ", ".join(["b(X)"] * 30) + f", N = #count{{Y : {condition}}}."
                " b(1). b(2). b(3). e(1, 1). e(1, 2). e(1, 3). e(2, 0). e(3, 5).")
        model, source = generated_source(monkeypatch, text)
        assert sorted(model.atoms("c")) == [(1, 2), (2, 0), (3, 1)]
        assert loops(source) == 30 + 39  # one plan


class TestStratumAtomLimit:
    """A rule has at most ``MAX_STRATUM_ATOMS`` body atoms of its own
    stratum, each the first scan of a semi-naive plan of the whole body, so
    the code compiled for a rule stays linear in its length."""

    @staticmethod
    def text(atoms):
        # the chain's edges in reverse, so that rounds run
        edges = " ".join(f"q({i}, {i + 1})." for i in reversed(range(3)))
        return "p(Y) :- q(X, Y), " + ", ".join(["p(X)"] * atoms) + f". p(0). {edges}"

    def test_at_the_limit(self):
        model = agrees_with_oracle(self.text(MAX_STRATUM_ATOMS))
        assert sorted(model.atoms("p")) == [(i,) for i in range(4)]

    def test_past_the_limit(self):
        with pytest.raises(EvaluationError) as raised:
            evaluate(parse_program(self.text(MAX_STRATUM_ATOMS + 1)))
        assert str(raised.value) == (
            f"1:1: rule has {MAX_STRATUM_ATOMS + 1} body atoms of its own stratum, each joined "
            f"first in a plan of its own; the limit is {MAX_STRATUM_ATOMS}")
