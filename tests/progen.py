"""Random generator of safe, stratified programs for differential testing.

Programs are built in layers: layer-0 predicates get facts, higher-layer
rule heads may use same-layer predicates positively (recursion) but only
strictly lower layers under negation or inside aggregates. That makes
every generated program safe and stratified by construction, so both
evaluators must accept it and agree on the model.

Two flavors keep the engines' arithmetic semantics comparable: "arith"
programs draw constants from integers only and may use +/- inside guards
and inside positive body atoms, as ``V + k`` over a variable an earlier
atom of the body binds or as a ground ``c + k``; "mixed" programs draw
from all three constant kinds but never do arithmetic, since adding a
symbol is a runtime error by design.

About a third of the aggregates carry range guards on the counted
variable (two-sided windows ``L0 >= V - k, L0 <= V`` in arith mode,
one-sided bounds of any constant kind otherwise), the shape the engine
answers from a sorted index instead of enumerating the group.

Unless ``atom_arithmetic`` is off, about half the programs of at most 8
rules end with two more, drawn after everything else: one puts a
``C = #count{...}`` of a lower predicate at a head position, and the other
reads that position and compares it, the shape ``explain`` labels a count
threshold. The count needs no join, so it holds whenever its predicate has
atoms. With ``atom_arithmetic`` off each seed gives the program it gave
before.

Sizes stay small (few variables, a handful of constants) so the naive
oracle's full grounding stays cheap; the caps match the documented limits
(at most 8 predicates, arity 3, 30 facts, 10 rules, 1 aggregate per rule).

:func:`programs` wraps the generator as a Hypothesis strategy over seeds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from hypothesis import strategies as st

INT_PALETTE = ["0", "1", "2", "3"]
SYM_PALETTE = ["a", "b"]
STR_PALETTE = ['"x"', '"y"']

COMPARE_OPS = ("==", "!=", ">=", "<=", ">", "<")
GUARD_OPS = (">=", "<=", ">", "<", "==")
RANGE_OPS = (">=", "<=", ">", "<")


@dataclass(frozen=True)
class _Pred:
    name: str
    arity: int
    layer: int


def _weighted_arity(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.40:
        return 1
    if roll < 0.85:
        return 2
    return 3


def generate_program(seed: int, atom_arithmetic: bool = True) -> str:
    """The program of a seed. With ``atom_arithmetic`` off no body atom holds
    arithmetic and no count rule is appended, so each seed gives the
    program it gave before either could."""
    rng = random.Random(seed)
    arith_mode = rng.random() < 0.5
    keyed = arith_mode and atom_arithmetic
    palette = list(INT_PALETTE) if arith_mode \
        else INT_PALETTE + SYM_PALETTE + STR_PALETTE

    def const() -> str:
        return rng.choice(palette)

    npreds = rng.randint(3, 8)
    preds: list[_Pred] = []
    for i in range(npreds):
        layer = 0 if i == 0 else rng.choice((0, 0, 1, 1, 2, 3))
        preds.append(_Pred(f"p{i}", _weighted_arity(rng), layer))
    if all(p.layer == 0 for p in preds):
        preds[-1] = _Pred(preds[-1].name, preds[-1].arity, 1)

    rule_heads = [p for p in preds if p.layer > 0]
    fact_preds = [p for p in preds if p.layer == 0]

    lines: list[str] = []

    nrules = rng.randint(3, 10)
    for _ in range(nrules):
        head = rng.choice(rule_heads)
        lower = [p for p in preds if p.layer < head.layer]
        same_or_lower = [p for p in preds if p.layer <= head.layer and p is not head] + [head]

        nvars = 3 if rng.random() < 0.15 else 2
        pool = [f"V{i}" for i in range(nvars)]

        body: list[str] = []
        bound: list[str] = []

        n_pos = 1 + (rng.random() < 0.45)
        for _ in range(n_pos):
            pred = rng.choice(same_or_lower)
            earlier = list(bound)  # bound by the atoms before this one, so V + k is safe
            args = []
            for _ in range(pred.arity):
                if rng.random() < 0.8:
                    if keyed and earlier and rng.random() < 0.3:
                        args.append(f"{rng.choice(earlier)} {rng.choice('+-')} {rng.choice('01')}")
                        continue
                    var = rng.choice(pool)
                    args.append(var)
                    if var not in bound:
                        bound.append(var)
                elif keyed and rng.random() < 0.4:
                    args.append(f"{const()} {rng.choice('+-')} {rng.choice('01')}")
                else:
                    args.append(const())
            body.append(f"{pred.name}({','.join(args)})")

        def bound_or_const() -> str:
            if bound and rng.random() < 0.7:
                return rng.choice(bound)
            return const()

        if rng.random() < 0.35:
            # one aggregate per rule at most
            cond_pred = rng.choice(lower)
            local = "L0"
            cond_args = [bound_or_const() for _ in range(cond_pred.arity)]
            if rng.random() < 0.3:
                # local positions: projected away, or joined when repeated
                cond_args = [rng.choice(("_", "L1", "L0")) if rng.random() < 0.6 else a
                             for a in cond_args]
            cond_args[rng.randrange(cond_pred.arity)] = local
            condition = f"{cond_pred.name}({','.join(cond_args)})"
            roll = rng.random()
            if roll < 0.25:
                condition += f", {local} {rng.choice(COMPARE_OPS)} {bound_or_const()}"
            elif roll < 0.6 and arith_mode and bound:
                # a two-sided window ending at a bound value
                end = rng.choice(bound)
                condition += (f", {local} >= {end} - {rng.choice(INT_PALETTE)}"
                              f", {local} <= {end}")
            elif roll < 0.6:
                # one-sided range guards; in mixed mode across all constant kinds
                for _ in range(rng.randint(1, 2)):
                    condition += f", {local} {rng.choice(RANGE_OPS)} {bound_or_const()}"
            if bound and rng.random() < 0.3:
                elements = f"{local},{rng.choice(bound)}"
            else:
                elements = local
            k = rng.choice((1, 1, 2, 2, 3))
            if rng.random() < 0.5:
                body.append(f"#count{{{elements} : {condition}}} {rng.choice(GUARD_OPS)} {k}")
            else:
                body.append(f"C = #count{{{elements} : {condition}}}")
                body.append(f"C {rng.choice(('>=', '<=', '>', '=='))} {k}")
                bound.append("C")

        if lower and rng.random() < 0.35:
            pred = rng.choice(lower)
            args = [bound_or_const() for _ in range(pred.arity)]
            body.append(f"not {pred.name}({','.join(args)})")

        if rng.random() < 0.4:
            left = bound_or_const()
            if arith_mode and bound and rng.random() < 0.3:
                left = f"{rng.choice(bound)} {rng.choice('+-')} {rng.choice(INT_PALETTE)}"
            body.append(f"{left} {rng.choice(COMPARE_OPS)} {bound_or_const()}")

        head_args = [bound_or_const() for _ in range(head.arity)]
        # shuffling exercises body-ordering logic; both evaluators must be
        # insensitive to the written order
        rng.shuffle(body)
        lines.append(f"{head.name}({','.join(head_args)}) :- {', '.join(body)}.")

    nfacts = rng.randint(6, 30)
    for _ in range(nfacts):
        pred = rng.choice(fact_preds)
        args = [const() for _ in range(pred.arity)]
        lines.append(f"{pred.name}({','.join(args)}).")

    if atom_arithmetic and nrules <= 8 and rng.random() < 0.5:
        counter = rng.choice(rule_heads)
        counted = rng.choice([p for p in preds if p.layer < counter.layer])
        condition = ["_"] * counted.arity
        condition[rng.randrange(counted.arity)] = "L0"
        position = rng.randrange(counter.arity)
        head_args = [const() for _ in range(counter.arity)]
        head_args[position] = "C"
        args = ["C" if i == position else f"V{i}" for i in range(counter.arity)]
        left = "C" if rng.random() < 0.8 else rng.choice(args)
        reader = rng.choice([p for p in rule_heads if p.layer >= counter.layer])
        reader_args = [rng.choice(args) if rng.random() < 0.7 else const()
                       for _ in range(reader.arity)]
        lines[nrules:nrules] = [
            f"{counter.name}({','.join(head_args)}) :- "
            f"C = #count{{L0 : {counted.name}({','.join(condition)})}}.",
            f"{reader.name}({','.join(reader_args)}) :- {counter.name}({','.join(args)}), "
            f"{left} {rng.choice(COMPARE_OPS)} {rng.choice(INT_PALETTE)}."]

    return "\n".join(lines) + "\n"


def programs() -> st.SearchStrategy[str]:
    """Generated program texts, drawn by seed: a failing example shrinks
    towards seed 0, and Hypothesis reports the program it failed on."""
    return st.integers(min_value=0, max_value=2**32 - 1).map(generate_program)


if __name__ == "__main__":
    import sys
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    print(generate_program(seed))
