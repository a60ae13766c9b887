"""Hypothesis strategy of hostile rule files for the command line.

Each example is a rule text and the ``--set`` pairs to run it with, built
from shapes that stress the stages after the lexer:

- sums nested up to one ``+`` past ``MAX_TERM_DEPTH``, in a rule head and
  in a fact;
- bodies of up to 300 literals;
- chains of up to 120 strata, positive or through negation;
- integers of one digit less than, exactly, and one more than the
  interpreter's ``sys.get_int_max_str_digits()``, alone and added;
- one predicate at several arities, catalog predicates among them;
- ``#const`` names, set by ``--set`` to values of up to the digit limit;
- non-ASCII letters and decimal digits, ``²`` and U+FFFD, in names,
  integers and strings.

No rule derives a value from an atom of its own stratum or above, so every
program's model is finite and small: there is no unbounded recursion.
The shapes are separate from ``progen``, which the oracle differential
replays by seed.
"""
from __future__ import annotations

import sys

from hypothesis import strategies as st

from stratalog.parser import MAX_TERM_DEPTH

DIGIT_LIMIT = sys.get_int_max_str_digits()

# Atoms, terms and junk with non-ASCII characters: some parse (a letter in
# a predicate or variable name, an Arabic-Indic digit, U+FFFD in a string),
# others end in the rules stage (a letter in a constant, ``²``, U+FFFD
# outside a string).
_UNICODE_LINES = [
    "préd(1).", "system_issue(\"café\", T) :- base(T).", "p(Xé) :- base(Xé).",
    "system_issue(arabic, ٣٠).", "system_issue(\"�\", 1).",
    "p(café).", "p(²).", "p(1²).", "p(�).", "中(1).",
]


def _sum(terms: int) -> str:
    return " + ".join(["1"] * terms)


@st.composite
def _deep_sum(draw) -> list[str]:
    operators = draw(st.integers(0, MAX_TERM_DEPTH + 1))
    if draw(st.booleans()):  # a fact: ``operators`` + 1 ones
        return [f"deep({_sum(operators + 1)}).", "system_issue(deep, X) :- deep(X)."]
    return [f"system_issue(deep, X + {_sum(operators)}) :- base(X)." if operators
            else "system_issue(deep, X) :- base(X)."]


@st.composite
def _long_body(draw) -> list[str]:
    literals = draw(st.integers(1, 300))
    # each literal tests the one binding; ``base(_)`` would multiply them
    body = ", ".join(draw(st.sampled_from(["base(X)", "X >= 0", "not nothing(X)", "X != Y"]))
                     for _ in range(literals))
    return ["nothing(0).", f"system_issue(long, X) :- base(X), base(Y), {body}."]


@st.composite
def _strata(draw) -> list[str]:
    length = draw(st.integers(1, 120))
    negative = draw(st.booleans())
    lines = ["c0(X) :- base(X)."]
    for i in range(1, length + 1):
        if negative:
            lines.append(f"d{i}(X) :- c{i - 1}(X), X > {i}.")
            lines.append(f"c{i}(X) :- c{i - 1}(X), not d{i}(X).")
        else:
            lines.append(f"c{i}(X) :- c{i - 1}(X), base(X).")
    lines.append(f"system_issue(chain, X) :- c{length}(X).")
    return lines


@st.composite
def _near_limit(draw) -> list[str]:
    digits = DIGIT_LIMIT + draw(st.sampled_from([-1, 0, 1]))
    value = draw(st.sampled_from(["9", "1", "٩"])) * digits
    op = draw(st.sampled_from(["+", "-"]))
    return [f"big({value}).", f"big(-{value}).",
            f"system_issue(big, X {op} Y) :- big(X), big(Y).",
            "system_issue(huge, X) :- big(X)."]


@st.composite
def _arities(draw) -> list[str]:
    name = draw(st.sampled_from(["multi", "system_issue", "network_anomaly",
                                 "potential_gdm_brute_force"]))
    lines = [f"{name}({', '.join(['1'] * arity)})." if arity else f"{name}."
             for arity in draw(st.lists(st.integers(0, 4), min_size=2, max_size=5))]
    return lines + [f"system_issue(arity, X) :- {name}(X, X)."]


@st.composite
def _consts(draw) -> tuple[list[str], list[str]]:
    names = draw(st.lists(st.sampled_from(["k", "limit", "wé", "n_2"]),
                          min_size=1, max_size=3, unique=True))
    lines, pairs = [], []
    for name in names:
        lines.append(f"#const {name} = {draw(st.integers(-5, 5))}.")
        lines.append(f"system_issue({name}, X + {name}) :- base(X).")
        if draw(st.booleans()):
            value = draw(st.one_of(st.integers(-10**6, 10**6),
                                   st.just(10**DIGIT_LIMIT - 1), st.just(1 - 10**DIGIT_LIMIT)))
            pairs.append(f"{name}={value}")
    if draw(st.booleans()):
        pairs.append("undefined_name=1")
    return lines, pairs


@st.composite
def hostile_rules(draw) -> tuple[str, list[str]]:
    """A rule text and its ``--set`` pairs (``NAME=VALUE``, each well
    formed, though the name may be one the text does not define)."""
    lines = ["base(1).", "base(2)."]
    pairs: list[str] = []
    shapes = [_deep_sum(), _long_body(), _strata(), _near_limit(), _arities()]
    for shape in draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=3)):
        lines += draw(shape)
    if draw(st.booleans()):
        const_lines, pairs = draw(_consts())
        lines += const_lines
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(_UNICODE_LINES)))
    return "\n".join(draw(st.permutations(lines))) + "\n", pairs
