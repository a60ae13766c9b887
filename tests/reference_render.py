"""The derivation renderers as they stood before a report showed a
derivation as a DAG, kept as a test oracle: every occurrence of an atom
unfolds its whole subtree. ``tests/test_report.py`` requires the renderers
to give these bytes once each ``[see #k]`` line, or JSON ``see`` object, is
expanded into the block it names.

``render_node``, ``json_explanation`` and ``pad`` are copied from the old
``_render_node``, ``_json_explanation`` and ``_pad``. Only the check text
changed: the old one called a comparison a count threshold when a support
held a count equal to its left side, a guess. Here ``check_text`` decides
from the rules, by its own route: the rule's static plan, which orders the
supports and the checks of a record, comes from ``analysis.analyze``.
"""
from __future__ import annotations

from typing import Union

from stratalog.analysis import analyze
from stratalog.engine import ComparisonCheck, DerivationNode
from stratalog.facts import format_constant
from stratalog.lang import AggregateLiteral, Atom, Program, Variable

MAX_INDENT = 32


class Plans:
    """Each rule's static order, by the rule's identity."""

    def __init__(self, rules) -> None:
        rules = list(rules)
        plans = analyze(Program(consts={}, rules=rules, facts=[])).plans
        self.orders = {id(rule): plan.order for rule, plan in zip(rules, plans)}

    def literals(self, rule, atoms: bool) -> list:
        """The rule's positive atoms, or else its other literals, in the
        order a record holds their supports or checks."""
        return [rule.body[i] for i in self.orders[id(rule)]
                if isinstance(rule.body[i], Atom) is atoms]


def _counted_positions(rule) -> set[int]:
    counted = {literal.bound for literal in rule.body
               if isinstance(literal, AggregateLiteral) and literal.op == "="}
    return {p for p, term in enumerate(rule.head.terms) if term in counted}


def check_text(check, index: int, node: DerivationNode, plans: Plans) -> str:
    """A check's line: a comparison whose left side is a variable read
    where a support's own rule put a ``C = #count{...}`` result reads as a
    threshold statement."""
    if isinstance(check, ComparisonCheck):
        literal = plans.literals(node.rule, atoms=False)[index]
        atoms = plans.literals(node.rule, atoms=True)
        if isinstance(literal.left, Variable):
            for atom, child in zip(atoms, node.children):
                if child.rule is None:
                    continue
                counted = _counted_positions(child.rule)
                if any(term == literal.left and p in counted
                       for p, term in enumerate(atom.terms)):
                    return (f"count {format_constant(check.left)} {check.op} "
                            f"threshold {format_constant(check.right)}")
    return str(check)


def pad(level: int) -> str:
    if level <= MAX_INDENT:
        return "  " * level
    return f"{'  ' * MAX_INDENT}[{level}] "


def render_node(root: DerivationNode, indent: int, lines: list[str], plans: Plans) -> None:
    """Indented text of a derivation tree: each rule node's line, then its
    children, then its checks. Iterative, so any depth renders."""
    pending: list[Union[tuple[DerivationNode, int], str]] = [(root, indent)]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, depth = item
        prefix = pad(depth)
        if node.is_fact:
            lines.append(f"{prefix}{node.atom}  [input fact]")
            continue
        span = node.rule.span
        lines.append(f"{prefix}{node.atom}  [rule at {span.line}:{span.column}]")
        check_pad = pad(depth + 1)
        pending.extend(f"{check_pad}{check_text(check, i, node, plans)}"
                       for i, check in reversed(list(enumerate(node.checks))))
        pending.extend((child, depth + 1) for child in reversed(node.children))


def json_explanation(root: DerivationNode, plans: Plans) -> dict:
    records: list[dict] = []
    pending: list[tuple[list[dict], DerivationNode]] = [(records, root)]
    while pending:
        siblings, node = pending.pop()
        record = {
            "atom": str(node.atom),
            "rule": None if node.is_fact else f"{node.rule.span.line}:{node.rule.span.column}",
            "checks": [check_text(check, i, node, plans) for i, check in enumerate(node.checks)],
            "supports": [],
        }
        siblings.append(record)
        pending.extend((record["supports"], child) for child in reversed(node.children))
    return records[0]
