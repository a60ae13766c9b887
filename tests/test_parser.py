"""Rule-language parsing: syntax, const resolution, errors, round-trips."""
import hashlib
import pickle
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratalog.facts import Fact, Symbol, fact
from stratalog.lang import (
    AggregateLiteral,
    Atom,
    Comparison,
    NafLiteral,
    Rule,
    Span,
    Variable,
    format_program,
)
from stratalog.parser import (
    ParseError,
    _tokenize,
    override_consts,
    parse_facts,
    parse_program,
)
from stratalog.rules import RULES_TEXT

from progen import generate_program
from reference_lexer import _tokenize as reference_tokenize


class TestBasicPrograms:
    def test_rules_and_facts_separate(self, birds_text):
        program = parse_program(birds_text)
        assert len(program.rules) == 2
        assert program.facts == [fact("bird", Symbol("tweety")),
                                 fact("penguin", Symbol("polly"))]
        heads = [r.head.predicate for r in program.rules]
        assert heads == ["can_fly", "abnormal"]

    def test_negation_parsed_as_naf_literal(self, birds_text):
        rule = parse_program(birds_text).rules[0]
        kinds = [type(lit) for lit in rule.body]
        assert kinds == [Atom, NafLiteral]
        assert rule.body[1].atom.predicate == "abnormal"

    def test_constraint_has_no_head(self):
        program = parse_program(":- p(X), X > 3.")
        assert len(program.rules) == 1
        assert program.rules[0].head is None

    def test_zero_arity_atoms(self):
        program = parse_program("marker. q(1) :- marker.")
        assert program.facts == [Fact("marker")]
        assert program.rules[0].body[0] == Atom("marker", ())

    def test_comments_and_whitespace_ignored(self):
        program = parse_program(
            "% leading comment\n  p(1). % trailing\n\n   % only comment\nq(X) :- p(X).\n")
        assert len(program.facts) == 1
        assert len(program.rules) == 1

    def test_spans_recorded(self):
        program = parse_program("p(1).\n\nq(X) :- p(X).")
        assert program.rules[0].span.line == 3
        assert program.rules[0].span.column == 1


class TestConstDirectives:
    def test_consts_substituted_into_rules(self):
        program = parse_program(
            "#const limit = 5.\nbig(X) :- n(X), X >= limit.\nn(9).")
        comparison = program.rules[0].body[1]
        assert isinstance(comparison, Comparison)
        assert comparison.right == 5
        assert program.consts == {"limit": 5}

    def test_consts_substituted_into_facts(self):
        program = parse_program("#const k = 3.\np(k).")
        assert program.facts == [fact("p", 3)]

    def test_negative_const_value(self):
        program = parse_program("#const low = -10.\np(X) :- q(X), X > low.")
        assert program.consts["low"] == -10

    def test_duplicate_const_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_program("#const k = 1.\n#const k = 2.")

    def test_unrelated_symbols_untouched(self):
        program = parse_program("#const failed = 9.\np(other).")
        assert program.facts == [fact("p", Symbol("other"))]

    # A name in arithmetic, aggregates, negation, facts and a constraint,
    # used before and after its statement.
    CONST_USES = (
        "#const k = 3.\n#const low = -2.\np(k). p(low). q(k, \"k\", big).\n"
        "r(X + k) :- p(X), X - low > big, not s(X, k).\n"
        "s(X, k) :- p(X), #count{Y, k : q(Y, _, big), Y != k} >= k.\n"
        "t(X, C) :- p(X), C = #count{Y : q(Y, k, Z), Z <= big + low}.\n"
        ":- p(X), X == big - k.\n#const big = 7.\n"
    )

    def test_every_use_reads_the_value(self):
        program = parse_program(self.CONST_USES)
        literal = parse_program(
            '\n\np(3). p(-2). q(3, "k", 7).\n'
            "r(X + 3) :- p(X), X - -2 > 7, not s(X, 3).\n"
            "s(X, 3) :- p(X), #count{Y, 3 : q(Y, _, 7), Y != 3} >= 3.\n"
            "t(X, C) :- p(X), C = #count{Y : q(Y, 3, Z), Z <= 7 + -2}.\n"
            ":- p(X), X == 7 - 3.\n")
        assert program.consts == {"k": 3, "low": -2, "big": 7}
        assert program.rules == literal.rules
        assert [rule.span for rule in program.rules] == [rule.span for rule in literal.rules]
        assert program.facts == literal.facts == [fact("p", 3), fact("p", -2),
                                                  fact("q", 3, "k", 7)]

    # sha256 of ``repr(parse_program(text))``, spans included, as the parser
    # that substituted names after parsing gave them.
    @pytest.mark.parametrize("text, digest", [
        (RULES_TEXT, "981652feb65dd0de"),
        ("% tune with #const limit = 3.\n#const limit = 3.  % the real one\n"
         'msg("#const limit = 3.").\n#const  off =  - 2 .\n'
         "p(X) :- q(X), X >= limit, X > off.\n", "340eeea5814f4fa7"),
        ("#const a = 1. #const b = -22. p(X) :- q(X), X > a, X < b.\n#const c = 3. r(c).",
         "9afbb2b8e1fbdb32"),
        ("#const a = -\n  4. p(a). #const b = - % a comment\n\n 5. q(b).\n", "126fd3c82bd59a99"),
        ("#const a=1.#const b=2.#const c=3.x(a,b,c).", "9c62f8df44683a33"),
        (CONST_USES, "bb79e7393f9d4286"),
    ], ids=["bundled", "override", "several", "split", "packed", "uses"])
    def test_parse_results_are_unchanged(self, text, digest):
        assert hashlib.sha256(repr(parse_program(text)).encode()).hexdigest()[:16] == digest

    def test_name_is_checked_as_a_symbol(self):
        with pytest.raises(ValueError, match="invalid symbol: 'kä'"):
            parse_program("#const kä = 1.\np(kä).")


class TestOverrideConsts:
    TEXT = (
        '% tune with #const limit = 3.\n'
        '#const limit = 3.  % the real one\n'
        'msg("#const limit = 3.").\n'
        '#const  off =  - 2 .\n'
        'p(X) :- q(X), X >= limit, X > off.\n'
    )

    def test_comment_and_string_left_alone(self):
        text = override_consts(self.TEXT, {"limit": 4})
        assert text == self.TEXT.replace("#const limit = 3.  %", "#const limit = 4.  %")
        program = parse_program(text)
        assert program.consts["limit"] == 4
        assert program.facts == [fact("msg", "#const limit = 3.")]

    def test_spaced_negative_value(self):
        text = override_consts(self.TEXT, {"off": -7})
        assert "#const  off =  -7 .\n" in text
        assert parse_program(text).consts["off"] == -7

    def test_several_names_in_one_call(self):
        consts = parse_program(override_consts(self.TEXT, {"limit": 8, "off": 1})).consts
        assert consts == {"limit": 8, "off": 1}

    def test_other_bytes_unchanged(self):
        assert override_consts(self.TEXT, {}) == self.TEXT
        text = override_consts(self.TEXT, {"limit": 30, "off": 9})
        assert text == (self.TEXT.replace("#const limit = 3.  %", "#const limit = 30.  %")
                        .replace("=  - 2 .", "=  9 ."))

    def test_missing_name_raises(self):
        with pytest.raises(ValueError, match="rule file defines no #const nope"):
            override_consts(self.TEXT, {"limit": 4, "nope": 1})
        with pytest.raises(ValueError, match="no #const tune"):
            override_consts(self.TEXT, {"tune": 1})  # named only in a comment

    @pytest.mark.parametrize("value", ["1. system_issue(injected, 2)", True, 2.5])
    def test_value_that_is_not_an_integer_raises(self, value):
        with pytest.raises(ValueError, match="#const limit must be set to an integer"):
            override_consts(self.TEXT, {"limit": value})

    @pytest.mark.parametrize("text", [
        TEXT,
        "#const a = 1. #const b = -22. p(X) :- q(X), X > a, X < b.\n#const c = 3. r(c).",
        "#const a = -\n  4. p(a). #const b = - % a comment\n\n 5. q(b).\n",
        "#const a=1.#const b=2.#const c=3.x(a,b,c).",
    ])
    @pytest.mark.parametrize("values", [
        {"a": 1000, "b": -1, "c": 0, "limit": 12345, "off": -100},
        {"a": -7, "b": 3, "c": -4444, "limit": -1, "off": 0},
    ])
    def test_tokens_equal_those_of_the_new_text(self, text, values):
        names = {t.value for t in _tokenize(text) if t.kind == "IDENT"}
        overrides = {name: value for name, value in values.items() if name in names}
        assert parse_program(override_consts(text, overrides)).consts == overrides


# Grammar pieces, blanks, bad escapes and non-ASCII letters, digits and
# other characters; none is a digit that is not decimal.
_LEX_PIECES = [
    "p", "q_1", "X", "_", "not", "nota", "(", ")", "{", "}", ",", ".", ":", ":-", "-",
    "+", "=", "==", "!=", "!", "<", "<=", ">", ">=", "#const", "#count", "#foo", "#",
    '"', "\\", '"a\\"b"', '"\\q', '"\\\n', "%", "% c\n", "\n", "\r", " ", "\t",
    "\x0c", "0", "42", "\u0663", "\u00e9", "\u01c5", "\u4e2d", "\u00aa", "\u00bd",
    "\u216b", "\ufffd", "x\u00b2",
]


def _lex(tokenize, text):
    try:
        return [(t.kind, t.value, t.line, t.column) for t in tokenize(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


class TestLexerAgainstReference:
    """The scanner gives the tokens, and the errors, of the lexer it
    replaced (``tests/reference_lexer.py``) on every text without a digit
    that is not decimal."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_LEX_PIECES), st.characters()), max_size=16)
           .map("".join).filter(lambda t: not any(c.isdigit() and not c.isdecimal() for c in t)))
    @example('p("\\q unterminated')
    @example("p. % trailing comment")
    @example("\u216b(x).")
    def test_same_tokens_and_errors(self, text):
        assert _lex(_tokenize, text) == _lex(reference_tokenize, text)

    @pytest.mark.parametrize("text, column", [("p(\u00b2).", 3), ("p(1\u00b2).", 4),
                                              ("p(\u2460).", 3), ("p(X) :- q(X), X > 7\u00b2.", 20)])
    def test_digit_that_is_not_decimal_is_unexpected(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.column) == (1, column)
        assert str(err.value).endswith(f"unexpected character {text[column - 1]!r}")

    def test_other_decimal_digits_are_integers(self):
        assert parse_program("p(\u0663\u0660).").facts == [fact("p", 30)]


class TestIntegerLimit:
    """An integer literal longer than the interpreter converts is a
    ParseError at its token."""

    LIMIT = sys.get_int_max_str_digits()

    @pytest.mark.parametrize("template", ["p({}).", "p(-{}).", "q(X) :- p(X), X < 1 + {}.",
                                          "#const k = {}.", "#const k = -{}."])
    def test_over_the_limit(self, template):
        text = "p(1).\n" + template.format("9" * (self.LIMIT + 1))
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert err.value.line == 2
        assert text.splitlines()[1][err.value.column - 1] == "9"
        assert str(err.value).endswith(f"integer has more than {self.LIMIT} digits")

    def test_at_the_limit(self):
        value = int("9" * self.LIMIT)
        program = parse_program(f"#const k = -{'9' * self.LIMIT}.\np(k).")
        assert program.consts == {"k": -value}
        assert program.facts == [fact("p", -value)]


class TestAggregates:
    def test_guard_form(self):
        program = parse_program("noisy(I) :- conn(I, _), #count{T : conn(I, T)} >= 10.")
        agg = program.rules[0].body[1]
        assert isinstance(agg, AggregateLiteral)
        assert not agg.is_assignment
        assert agg.op == ">="
        assert agg.bound == 10

    def test_assignment_form(self):
        program = parse_program(
            "tally(I, C) :- conn(I, _), C = #count{T : conn(I, T)}.")
        agg = program.rules[0].body[1]
        assert agg.is_assignment
        assert agg.bound == Variable("C")

    def test_multiple_elements_and_conditions(self):
        program = parse_program(
            "w(A) :- p(A), #count{X, Y : q(X, Y), X <= A, Y != 3} >= 2.")
        agg = program.rules[0].body[1].aggregate
        assert len(agg.elements) == 2
        assert len(agg.condition) == 3

    def test_aggregate_must_be_left_of_guard(self):
        with pytest.raises(ParseError, match="left of its guard"):
            parse_program("p(X) :- q(X), 3 <= #count{T : q(T)}.")

    def test_negation_inside_aggregate_rejected(self):
        with pytest.raises(ParseError, match="negation is not allowed inside"):
            parse_program("p(X) :- q(X), #count{T : not q(T)} >= 1.")

    def test_nested_aggregate_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- q(X), #count{T : #count{U : q(U)} >= 1} >= 1.")


class TestErrors:
    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_program("p(1)")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(1).\nq(X) :- p(X)\nr(2).")
        assert err.value.line == 3

    def test_single_equals_hint(self):
        with pytest.raises(ParseError, match="aggregate assignment"):
            parse_program("p(X) :- q(X), X = 3.")

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_program('p("oops).')

    def test_unknown_escape(self):
        with pytest.raises(ParseError, match="unknown escape"):
            parse_program('p("a\\q").')

    def test_invalid_symbol_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(café).")
        assert str(err.value) == "1:3: invalid symbol: 'café'"

    def test_non_ground_fact_becomes_unsafe_rule(self):
        # a "fact" containing a variable parses as a bodyless rule, which
        # safety analysis then rejects (nothing binds X)
        from stratalog.analysis import check_safety

        program = parse_program("p(X).")
        assert program.facts == []
        assert len(program.rules) == 1
        assert program.rules[0].body == ()
        violations = check_safety(program)
        assert violations and violations[0].variable == "X"


class TestFactsOnlyParsing:
    def test_accepts_facts_and_comments(self):
        facts = parse_facts('% comment\np(1).\nq("a",b).\n')
        assert facts == [fact("p", 1), fact("q", "a", Symbol("b"))]

    def test_rejects_rules(self):
        with pytest.raises(ParseError):
            parse_facts("p(X) :- q(X).")

    def test_rejects_const_directives(self):
        with pytest.raises(ParseError):
            parse_facts("#const k = 1.")

    def test_const_directive_is_reported_where_it_stands(self):
        with pytest.raises(ParseError) as raised:
            parse_facts('p(1).\n% "#const" in a comment\n  #const a = 1.\n#const b = 2.\n')
        assert (raised.value.line, raised.value.column) == (3, 3)
        assert str(raised.value) == "3:3: facts file must not define constants"

    def test_empty_input(self):
        assert parse_facts("") == []
        assert parse_facts("% nothing\n") == []


class TestRoundTrip:
    def test_pretty_printed_program_reparses_equal(self, birds_text):
        program = parse_program(birds_text)
        assert parse_program(format_program(program)) == program

    def test_bundled_program_round_trips(self, bundled_program):
        assert parse_program(format_program(bundled_program)) == bundled_program

    def test_generated_programs_round_trip(self):
        for seed in range(40):
            program = parse_program(generate_program(seed))
            assert parse_program(format_program(program)) == program

    def test_anonymous_variables_round_trip(self):
        program = parse_program("p(X) :- q(X, _), r(_, X).")
        text = format_program(program)
        assert "_" in text
        assert parse_program(text) == program

    def test_string_escapes_round_trip(self):
        program = parse_program('p("a\\"b\\\\c\\nd\\te").')
        assert program.facts == [fact("p", 'a"b\\c\nd\te')]
        assert parse_program(format_program(program)) == program


class TestValueTypes:
    """Variables are named tuples; a rule is a class of its own, since its
    span stays out of equality."""

    def test_hashing_a_variable_runs_no_python_frame(self):
        table, same, events = {Variable("X"): 1}, Variable("X"), []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            found = table[same]  # a hash, then an equality test
        finally:
            sys.setprofile(None)
        assert found == 1 and "call" not in events

    def test_rule_span_is_left_out_of_equality(self):
        (rule,) = parse_program("p(X) :- q(X).").rules
        moved = Rule(rule.head, rule.body, Span(7, 3))
        assert moved == rule and hash(moved) == hash(rule) and moved.span != rule.span
        assert rule != (rule.head, rule.body) and rule != Rule(rule.head, ())

    def test_rule_and_symbol_are_immutable(self):
        (rule,) = parse_program("p(X) :- q(X, a).").rules
        symbol = rule.body[0].terms[1]
        for value, name in ((rule, "head"), (rule, "span"), (symbol, "name")):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            symbol.extra = 1
        assert symbol == Symbol("a") and str(rule) == "p(X) :- q(X, a)."

    def test_rule_and_symbol_pickle(self):
        (rule,) = parse_program("p(X) :- q(X, a).").rules
        for value in (rule, Symbol("a")):
            again = pickle.loads(pickle.dumps(value))
            assert again == value and repr(again) == repr(value)
