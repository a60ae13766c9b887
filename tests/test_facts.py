"""Constants, ground facts, and their serialized form."""
import copy
import io
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stratalog.facts import (
    Fact,
    Symbol,
    constant_key,
    fact,
    format_constant,
    format_fact,
    write_facts_file,
)
from stratalog.parser import parse_facts


class TestSymbol:
    def test_accepts_lowercase_identifiers(self):
        for name in ("failed", "opened", "create_admin", "a", "x9", "aB_c"):
            assert Symbol(name).name == name

    def test_rejects_invalid_names(self):
        for bad in ("Bad", "9x", "", "with space", "dash-x", "_x", '"q"'):
            with pytest.raises(ValueError):
                Symbol(bad)

    def test_distinct_from_equal_text_string(self):
        assert Symbol("root") != "root"
        assert "root" != Symbol("root")


class TestInternedSymbol:
    """One instance per name: equality and hashing are identity, in C."""

    def test_one_instance_per_name(self):
        assert Symbol("failed") is Symbol("failed")
        assert Symbol("failed") is not Symbol("opened")

    @pytest.mark.parametrize("again", [lambda s: pickle.loads(pickle.dumps(s)),
                                       copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_copies_are_the_instance(self, again):
        symbol = Symbol("opened")
        assert again(symbol) is symbol
        assert again(Fact("p", (symbol,))).args[0] is symbol

    def test_invalid_name_error_text(self):
        with pytest.raises(ValueError, match=r"^invalid symbol: 'Bad'$"):
            Symbol("Bad")
        with pytest.raises(ValueError, match=r"^invalid symbol: 'Bad'$"):
            Symbol("Bad")  # still refused: a refused name is not kept

    def test_assignment_raises(self):
        symbol = Symbol("closed")
        with pytest.raises(AttributeError):
            symbol.name = "opened"
        with pytest.raises(AttributeError):
            del symbol.name
        assert symbol.name == "closed"

    def test_hashing_a_symbol_runs_no_python_frame(self):
        table, same, events = {Symbol("x"): 1}, Symbol("x"), []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            found = table[same]  # a hash, then an identity test
        finally:
            sys.setprofile(None)
        assert found == 1 and "call" not in events


class TestConstantOrder:
    def test_integers_before_symbols_before_strings(self):
        ordered = [3, 7, Symbol("a"), Symbol("b"), "a", "z"]
        keys = [constant_key(v) for v in ordered]
        assert keys == sorted(keys)

    def test_within_kind_natural_order(self):
        assert constant_key(-5) < constant_key(3)
        assert constant_key(Symbol("aa")) < constant_key(Symbol("ab"))
        assert constant_key("10") < constant_key("9")  # strings compare as text

    def test_booleans_rejected(self):
        with pytest.raises(TypeError):
            constant_key(True)


class TestSerialization:
    def test_integer_and_symbol_forms(self):
        assert format_constant(42) == "42"
        assert format_constant(-7) == "-7"
        assert format_constant(Symbol("failed")) == "failed"

    def test_string_quoted(self):
        assert format_constant("218.188.2.4") == '"218.188.2.4"'

    def test_string_escapes(self):
        assert format_constant('a"b') == '"a\\"b"'
        assert format_constant("a\\b") == '"a\\\\b"'
        assert format_constant("a\nb") == '"a\\nb"'
        assert format_constant("a\tb") == '"a\\tb"'

    def test_fact_statement_has_no_spaces(self):
        f = fact("login_attempt", "1.2.3.4", 100, Symbol("failed"), "bob")
        assert format_fact(f) == 'login_attempt("1.2.3.4",100,failed,"bob").'

    def test_zero_arity_fact(self):
        assert format_fact(Fact("marker")) == "marker."

    def test_facts_file_one_per_line_in_order(self):
        sink = io.StringIO()
        write_facts_file([fact("a", 1), fact("b", Symbol("x"))], sink)
        assert sink.getvalue() == "a(1).\nb(x).\n"

    def test_empty_facts_file(self):
        sink = io.StringIO()
        write_facts_file([], sink)
        assert sink.getvalue() == ""


class TestSortKey:
    def test_orders_by_predicate_then_args(self):
        facts = [fact("b", 1), fact("a", 2), fact("a", 1), fact("a", Symbol("z"))]
        ordered = sorted(facts, key=Fact.sort_key)
        assert [str(f) for f in ordered] == ["a(1)", "a(2)", "a(z)", "b(1)"]



class TestFactValue:
    """A fact is a named tuple ``(predicate, args)``: immutable, hashed and
    compared as that tuple, and printed and pickled as before."""

    ATOM = Fact("login_attempt", ("1.2.3.4", 5, Symbol("failed"), "root"))

    def test_repr(self):
        assert repr(self.ATOM) == ("Fact(predicate='login_attempt', "
                                   "args=('1.2.3.4', 5, Symbol('failed'), 'root'))")
        assert repr(Fact("p")) == "Fact(predicate='p', args=())"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.ATOM.predicate = "other"
        with pytest.raises(AttributeError):
            self.ATOM.extra = 1

    def test_hash_and_equality_are_the_field_tuple(self):
        atom = self.ATOM
        assert hash(atom) == hash(tuple(atom)) == hash((atom.predicate, atom.args))
        assert atom == ("login_attempt", ("1.2.3.4", 5, Symbol("failed"), "root"))
        assert {atom: 1}[tuple(atom)] == 1
        assert atom != Fact("login_attempt", ("1.2.3.4", 6, Symbol("failed"), "root"))

    def test_keywords_and_default(self):
        assert Fact(predicate="p", args=(1,)) == Fact("p", (1,)) == fact("p", 1)
        assert Fact("p").args == ()
        assert str(Fact("p")) == "p"

    def test_pickle_round_trip(self):
        again = pickle.loads(pickle.dumps(self.ATOM))
        assert again == self.ATOM and type(again) is Fact
        assert str(again) == 'login_attempt("1.2.3.4",5,failed,"root")'

    def test_symbol_is_no_tuple(self):
        assert Symbol("root") != ("root",)
        assert not isinstance(Symbol("root"), tuple)


_symbols = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).map(Symbol)
_strings = st.text(
    st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
_constants = st.one_of(st.integers(-10**6, 10**6), _symbols, _strings,
                       st.just("a\tb\\c\"d"))
_facts = st.builds(
    lambda p, args: Fact(p, tuple(args)),
    st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
    st.lists(_constants, min_size=0, max_size=4))


@given(st.lists(_facts, max_size=8))
def test_facts_file_round_trips_through_parser(facts):
    sink = io.StringIO()
    write_facts_file(facts, sink)
    assert parse_facts(sink.getvalue()) == facts
