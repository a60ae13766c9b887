"""Differential testing: the indexed evaluator against a brute-force oracle.

The oracle grounds rules by substituting every constant in the program for
every variable and re-applies whole strata until nothing changes.  It shares
no evaluation code with the engine, so agreement on randomly generated
programs is strong evidence both compute the same models.
"""
import pytest
from hypothesis import assume, given, settings

from stratalog.engine import Inconsistent, evaluate
from stratalog.facts import fact
from stratalog.lang import format_program
from stratalog.oracle import OracleCapacityError, naive_oracle
from stratalog.parser import parse_program

from derivations import check_derivations
from progen import generate_program, programs


def engine_atoms(result):
    if isinstance(result, Inconsistent):
        return result
    model, _ = result
    return set(model)


def oracle_atoms(result):
    if isinstance(result, Inconsistent):
        return result
    return set(result)


class TestAgreementOnFixedPrograms:
    def test_birds(self, birds_program):
        assert engine_atoms(evaluate(birds_program)) == oracle_atoms(
            naive_oracle(birds_program))

    def test_recursion(self):
        program = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Y) :- path(X, Z), edge(Z, Y)."
            " edge(1, 2). edge(2, 3). edge(3, 1).")
        assert engine_atoms(evaluate(program)) == oracle_atoms(naive_oracle(program))

    def test_assignment_count_value_not_in_input(self):
        # the computed count (3) appears nowhere in the input constants, and a
        # later rule joins on it: the oracle must produce values, not guess them
        program = parse_program(
            'cnt(C) :- marker(Y), C = #count{X : p(X)}.'
            ' big(C) :- cnt(C), C >= 2.'
            ' marker(0). p("x"). p("y"). p("z").')
        expected = {fact("marker", 0), fact("p", "x"), fact("p", "y"),
                    fact("p", "z"), fact("cnt", 3), fact("big", 3)}
        assert engine_atoms(evaluate(program)) == expected
        assert oracle_atoms(naive_oracle(program)) == expected

    def test_inconsistency_parity(self):
        program = parse_program("p(5). :- p(X), X > 3.")
        engine_result = evaluate(program)
        oracle_result = naive_oracle(program)
        assert isinstance(engine_result, Inconsistent)
        assert isinstance(oracle_result, Inconsistent)
        assert engine_result.witness == oracle_result.witness

    def test_empty_program(self):
        program = parse_program("")
        assert engine_atoms(evaluate(program)) == set()
        assert oracle_atoms(naive_oracle(program)) == set()


class TestCapacityGuard:
    def test_tiny_budget_raises(self):
        program = parse_program(
            "p(X, Y, Z) :- q(X), q(Y), q(Z)."
            " q(1). q(2). q(3). q(4). q(5). q(6). q(7). q(8).")
        with pytest.raises(OracleCapacityError):
            naive_oracle(program, max_ground=10)

    def test_budget_large_enough_succeeds(self):
        program = parse_program("p(X, Y) :- q(X), q(Y). q(1). q(2).")
        model = naive_oracle(program, max_ground=100_000)
        assert len(set(model)) == 6


class TestRandomizedAgreement:
    @pytest.mark.parametrize("seed", range(200))
    def test_generated_program_agreement(self, seed):
        program = parse_program(generate_program(seed))
        engine_result = engine_atoms(evaluate(program))
        oracle_result = oracle_atoms(naive_oracle(program))
        if isinstance(engine_result, Inconsistent):
            assert isinstance(oracle_result, Inconsistent)
        else:
            assert engine_result == oracle_result


class TestDerivationValidity:
    """Models alone do not show that each atom's recorded derivation is one
    the rule really allows: this re-checks every entry of the graph."""

    @pytest.mark.parametrize("seed", range(200))
    def test_every_recorded_derivation_rechecks(self, seed):
        result = evaluate(parse_program(generate_program(seed)))
        if not isinstance(result, Inconsistent):
            check_derivations(*result)


class TestGeneratedProgramProperties:
    """The seeded checks above, over seeds Hypothesis draws: a failure
    shrinks to a small seed and is reported with its program."""

    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_engine_agrees_with_the_oracle(self, text):
        program = parse_program(text)
        try:
            oracle_result = oracle_atoms(naive_oracle(program))
        except OracleCapacityError:
            assume(False)
        engine_result = engine_atoms(evaluate(program))
        if isinstance(engine_result, Inconsistent):
            assert isinstance(oracle_result, Inconsistent)
        else:
            assert engine_result == oracle_result

    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_every_recorded_derivation_rechecks(self, text):
        result = evaluate(parse_program(text))
        if not isinstance(result, Inconsistent):
            check_derivations(*result)

    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_program_round_trips_through_its_text(self, text):
        program = parse_program(text)
        assert parse_program(format_program(program)) == program
