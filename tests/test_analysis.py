"""Static checks: rule safety and stratification of the dependency graph."""
import hashlib
import timeit

import pytest

from stratalog import analysis, engine
from stratalog.analysis import CycleThroughNegation, analyze, check_safety, join_order, stratify
from stratalog.engine import evaluate
from stratalog.lang import AggregateLiteral, ArithTerm, Atom, rule_global_variables
from stratalog.parser import parse_program
from stratalog.rules import default_program

from progen import generate_program


class TestSafety:
    def test_head_variable_unbound(self):
        violations = check_safety(parse_program("p(X, Y) :- q(X)."))
        assert [v.variable for v in violations] == ["Y"]
        assert violations[0].reason == "in the head is unbound"

    def test_naf_only_variable_unbound(self):
        violations = check_safety(parse_program("p(X) :- q(X), not r(Y)."))
        assert [v.variable for v in violations] == ["Y"]

    def test_comparison_only_variable_unbound(self):
        violations = check_safety(parse_program("p(X) :- q(X), Y > 3."))
        assert [v.variable for v in violations] == ["Y"]

    def test_aggregate_guard_bound_term_unbound(self):
        violations = check_safety(
            parse_program("p(X) :- q(X), #count{T : q(T)} >= B."))
        assert [v.variable for v in violations] == ["B"]

    def test_assignment_result_bound_by_aggregate(self):
        assert check_safety(
            parse_program("p(X, C) :- q(X), C = #count{T : r(X, T)}.")) == []

    def test_violation_carries_rule_text_and_span(self):
        violations = check_safety(parse_program("ok(1).\nbad(Z) :- ok(W)."))
        assert violations[0].span.line == 2
        assert "bad(Z)" in violations[0].rule

    def test_anonymous_variables_never_flagged(self):
        assert check_safety(parse_program("p(X) :- q(X, _).")) == []

    def test_birds_program_safe(self, birds_program):
        assert check_safety(birds_program) == []

    def test_bundled_program_safe(self, bundled_program):
        assert check_safety(bundled_program) == []

    @pytest.mark.parametrize("text, variable", [
        ("s(X, Y) :- p(X + 1, Y), q(Y + 1, X).", "X"),
        ("s(N) :- r(N), #count{X : p(X + 1, Y), q(Y + 1, X)} >= 1.", "X"),
        ("t(A, B) :- r(Z), A = #count{X : p(X, B)}, B = #count{Y : q(Y, A)}.", "B"),
    ], ids=["body", "condition", "assignments"])
    def test_a_rule_that_cannot_be_ordered_is_unsafe(self, text, variable):
        # every variable is bound somewhere, but only by a literal that
        # waits for another variable of the cycle
        violations = check_safety(parse_program(text))
        assert [(v.variable, v.reason) for v in violations] == \
            [(variable, "is needed before it can be bound")]
        assert str(violations[0]) == \
            f"1:1: variable {variable} is needed before it can be bound in: {violations[0].rule}"

    def test_condition_arithmetic_bound_by_a_later_atom_is_safe(self):
        assert check_safety(parse_program(
            "c(N) :- r(7), N = #count{X : p(X + 1), q(X)}.")) == []


def orders(rule, firsts):
    return [join_order(rule.body, rule_global_variables(rule), (), first) for first in firsts]


class TestJoinOrder:
    """``join_order`` takes ``first`` if given, then again and again the
    first literal as written whose needs are bound."""

    RULE = ("p(X, Z) :- X < Z, t(Y, Z), not r(Z), C = #count{W : u(W, Y)}, "
            "s(Z + 1, X), v(X), C > 0.")

    def test_each_literal_waits_for_its_needs(self):
        rule = parse_program(self.RULE).rules[0]
        assert orders(rule, [None, 1, 5]) == [
            (1, 2, 3, 4, 0, 5, 6), (1, 2, 3, 4, 0, 5, 6), (5, 1, 0, 2, 3, 4, 6)]

    def test_an_aggregate_needs_only_the_variables_it_shares(self):
        # X and Y are local and N is assigned: nothing to wait for
        rule = parse_program("p(N) :- N = #count{X : q(X, Y)}, r(Z).").rules[0]
        assert orders(rule, [None]) == [(0, 1)]
        # Y is shared with r(Y), so the count waits for it
        rule = parse_program("p(N) :- N = #count{X : q(X, Y)}, r(Y).").rules[0]
        assert orders(rule, [None]) == [(1, 0)]

    def test_a_cycle_is_left_out(self):
        rule = parse_program("s(X, Y) :- r(Z), p(X + 1, Y), q(Y + 1, X), Z > 0.").rules[0]
        assert orders(rule, [None]) == [(0, 3)]

    # The engine planner that join_order replaced gave these orders: the
    # static one and one per body index taken first, for every rule of the
    # bundled program and of progen seeds 0-199 with no arithmetic in an
    # atom, 4,856 orders in all.
    ORDERS_DIGEST = "f676f1b880b7606816b8c0992cc537d2a2ae58c3cd8ffc89686e2bb17005e0bc"

    def test_the_orders_of_the_former_planner(self):
        lines = []
        for text in [default_program()] + [generate_program(seed, atom_arithmetic=False)
                                           for seed in range(200)]:
            for rule in parse_program(text).rules:
                lines.append(" ".join(map(str, orders(rule, [None, *range(len(rule.body))]))))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.ORDERS_DIGEST


class TestAnalysis:
    """``analyze`` computes each rule's orders once; they are the orders
    ``join_order`` gives, the ones ``TestJoinOrder`` pins."""

    @staticmethod
    def expected_plan(rule, stratification):
        """The rule's orders straight from ``join_order``: static, per
        condition with the global variables bound, and per body atom of the
        head's stratum, in static order, that atom first (the static order
        if it holds arithmetic)."""
        outer = rule_global_variables(rule)
        order = join_order(rule.body, outer, ())
        conditions = {i: join_order(literal.aggregate.condition, outer, outer)
                      for i, literal in enumerate(rule.body)
                      if isinstance(literal, AggregateLiteral)}
        stratum = () if rule.head is None else \
            stratification.strata[stratification.level[rule.head.predicate]]
        deltas = [(i, order if any(isinstance(t, ArithTerm) for t in rule.body[i].terms)
                   else join_order(rule.body, outer, (), i))
                  for i in order
                  if isinstance(rule.body[i], Atom) and rule.body[i].predicate in stratum]
        return outer, order, conditions, deltas

    # the progen seeds read here draw no arithmetic in a recursive atom
    ARITHMETIC = ["count(0). count(X) :- count(X - 1), limit(X). limit(1).",
                  "p(1). q(1). p(X) :- p(X - 1), p(X), q(X), #count{Y : q(Y), Y < X} > 0."]

    def test_orders_equal_join_orders(self):
        deltas = arithmetic = 0
        for text in [default_program()] + [generate_program(seed, atom_arithmetic=False)
                                           for seed in range(200)] + self.ARITHMETIC:
            program = parse_program(text)
            result = analyze(program)
            assert result.stratification == stratify(program)
            assert len(result.plans) == len(program.rules)
            for rule, plan in zip(program.rules, result.plans):
                assert (plan.global_variables, plan.order, plan.conditions,
                        list(plan.deltas.items())) \
                    == self.expected_plan(rule, result.stratification), str(rule)
                deltas += len(plan.deltas)
                arithmetic += sum(any(isinstance(t, ArithTerm) for t in rule.body[i].terms)
                                  for i in plan.deltas)
        assert (deltas, arithmetic) == (551, 2)

    @staticmethod
    def calls(monkeypatch, text):
        """How often evaluating ``text`` orders a join and collects a rule's
        global variables, wherever the engine or the analysis does it."""
        counts = {"join_order": 0, "rule_global_variables": 0}
        for name in counts:
            original = getattr(analysis, name)

            def counted(*args, name=name, original=original, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            for module in (analysis, engine):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        evaluate(parse_program(text))
        return counts

    def test_the_engine_orders_nothing_itself(self):
        for name in ("join_order", "rule_global_variables", "_delta_order"):
            assert not hasattr(engine, name)

    def test_each_order_is_computed_once(self, monkeypatch):
        # 12 bodies and 4 count conditions
        assert self.calls(monkeypatch, default_program()) == \
            {"join_order": 16, "rule_global_variables": 12}

    def test_each_delta_order_is_computed_once(self, monkeypatch):
        # 3 bodies and 2 delta orders; the arithmetic atom c(X - 1) takes
        # the static order
        text = ("e(1, 2). e(2, 3). lim(1). lim(2). c(0). r(X, Y) :- e(X, Y). "
                "r(X, Z) :- r(X, Y), r(Y, Z). c(X) :- c(X - 1), lim(X).")
        assert self.calls(monkeypatch, text) == {"join_order": 5, "rule_global_variables": 3}

    def test_delta_orders_share_their_rules_needs(self, monkeypatch):
        """A recursive rule of k atoms gets k - 1 delta orders, but each
        literal's needs are worked out a fixed number of times, not once per
        delta order."""
        calls = []
        original = analysis.literal_needs

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(analysis, "literal_needs", counted)

        def needs_calls(atoms):
            calls.clear()
            analyze(parse_program("p(X) :- q(X), " + ", ".join(["p(X)"] * (atoms - 1)) + "."))
            return len(calls)
        assert needs_calls(40) == 2 * needs_calls(20)  # 1,640 and 420 at the parent

    def test_check_safety_takes_linear_time(self):
        def best(literals):
            program = parse_program("p(X) :- q(X), " + ", ".join(["p(X)"] * literals) + ".")
            return min(timeit.repeat(lambda: check_safety(program), number=1, repeat=3))
        # quadratic time would make this 16
        assert best(16_000) / best(4_000) < 8


class TestStratify:
    def test_birds_levels(self, birds_program):
        result = stratify(birds_program)
        assert result.level["penguin"] == 0
        assert result.level["bird"] == 0
        assert result.level["abnormal"] == 1
        assert result.level["can_fly"] == 2

    def test_positive_chain_levels(self):
        result = stratify(parse_program("a(X) :- b(X). b(X) :- c(X). c(1)."))
        assert result.level == {"c": 0, "b": 1, "a": 2}

    def test_positive_recursion_shares_a_stratum(self):
        result = stratify(parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Y) :- path(X, Z), edge(Z, Y). edge(1, 2)."))
        assert result.level["path"] == result.level["edge"] + 1
        assert ("path",) in result.strata

    def test_negation_cycle_rejected(self):
        with pytest.raises(CycleThroughNegation) as err:
            stratify(parse_program(
                "a(X) :- e(X), not c(X). c(X) :- e(X), b(X). b(X) :- e(X), a(X). e(1)."))
        assert set(err.value.cycle) == {"a", "b", "c"}
        assert "negation/aggregation cycle" in str(err.value)

    def test_direct_negative_self_loop_rejected(self):
        with pytest.raises(CycleThroughNegation) as err:
            stratify(parse_program("p(X) :- q(X), not p(X). q(1)."))
        assert err.value.cycle == ("p",)

    def test_aggregate_self_dependency_rejected(self):
        with pytest.raises(CycleThroughNegation) as err:
            stratify(parse_program("p(X) :- q(X), #count{Y : p(Y)} >= 1. q(1)."))
        assert err.value.cycle == ("p",)

    def test_aggregate_condition_counts_as_dependency(self):
        # predicates inside aggregate conditions must be fully computed first
        result = stratify(parse_program(
            "b(X) :- s(X). n(X) :- s(X), #count{Y : b(Y), c(Y)} >= 1. c(1). s(1)."))
        assert result.level["n"] > result.level["b"]
        assert result.level["n"] > result.level["c"]

    def test_constraints_do_not_add_predicates(self):
        result = stratify(parse_program("p(1). :- p(X), X > 5."))
        assert set(result.level) == {"p"}

    def test_bundled_program_strata(self, bundled_program):
        result = stratify(bundled_program)
        extraction = ["login_attempt", "session", "network_connection",
                      "account_action", "klogind_auth_failure", "gdm_auth_failure",
                      "logrotate_abnormal_exit", "named_soa_error",
                      "xinetd_connection_reset", "dormant_account"]
        for predicate in extraction:
            assert result.level[predicate] == 0, predicate
        assert result.level["failed_count"] < result.level["potential_brute_force"]
        assert result.level["frequent_connections"] < result.level["network_anomaly"]
        assert len(result.strata) == 3

    def test_strata_partition_is_ordered(self, bundled_program):
        result = stratify(bundled_program)
        for index, group in enumerate(result.strata):
            for predicate in group:
                assert result.level[predicate] == index
