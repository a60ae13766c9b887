#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two checkouts, summed up as JSON.

Runs ``bench/run.py`` in a parent checkout and in a change checkout, pair by
pair, alternating which side goes first, and writes the per-side medians and
quartiles of every metric, with how many pairs the change won::

    python3 scripts/ab_bench.py --parent ../parent --change . \\
        --workload spread --workload closure --seed 11 --pairs 10 --seconds 40 \\
        --trace-pairs 5 --trace-seconds 20 --out BENCH_8.json

Both checkouts run with identical settings and this interpreter. Before
the first pair, each side's ``src/`` is compiled to bytecode, so that no run
compiles the package on import, even under ``PYTHONDONTWRITEBYTECODE=1``:
otherwise ``setup_s`` and ``peak_rss_mb`` move with the size of the source.
Standard library only; it reads ``BENCHMARK.json`` of the change checkout
for each metric's better direction and imports nothing of the benchmark.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence


def quartiles(values: Sequence[float]) -> dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, exclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(parent: Sequence[float], change: Sequence[float], better: str) -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` ran as
    pair i. The change wins a pair when its value is better in the metric's
    ``better`` direction ("lower" or "higher"); a tie counts for neither."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs, one value per side each")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1 if better == "lower" else -1
    parent_side, change_side = quartiles(parent), quartiles(change)
    return {
        "parent": parent_side,
        "change": change_side,
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "change_over_parent": round(statistics.median(change) / statistics.median(parent), 4),
        "parent_iqr": round(parent_side["q3"] - parent_side["q1"], 6),
    }


def verdict(summary: dict, pairs: int, better: str, bound: float) -> dict[str, bool]:
    """The two flags of a metric's :func:`summarize` over ``pairs`` pairs.

    ``claim_met``: the change won at least nine tenths of the pairs, and its
    median is better than the parent's by more than the parent's
    interquartile range. ``within_bound``: the change's median is not worse
    than the parent's by more than ``bound``, a fraction of the parent's."""
    sign = 1 if better == "lower" else -1
    parent, change = summary["parent"]["median"], summary["change"]["median"]
    return {
        "claim_met": 10 * summary["change_wins"] >= 9 * pairs
                     and sign * (parent - change) > summary["parent_iqr"],
        "within_bound": sign * (change - parent) <= bound * parent,
    }


def warm_bytecode(checkout: Path) -> None:
    """Write the bytecode of every module under the checkout's ``src/``."""
    if not compileall.compile_dir(checkout / "src", quiet=1):
        raise RuntimeError(f"could not compile {checkout / 'src'}")


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """The JSON result line of one ``bench/run.py`` run in ``checkout``."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited with "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


Runner = Callable[[Path, str, int, float, int], dict]


def run_pairs(sides: dict[str, Path], workload: str, seed: int, seconds: float, trace: int,
              pairs: int, run: Runner = run_benchmark) -> dict[str, list[dict]]:
    """Results per side ("parent", "change"), pair i first running the
    parent when i is even and the change when i is odd."""
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(sides[side], workload, seed, seconds, trace)
            results[side].append(result)
            shown = {name: result["metrics"][name]["value"]
                     for name in ("run_s", "ingest.s") if name in result["metrics"]}
            print(f"{workload} pair {i + 1}/{pairs} {side}: {shown}", file=sys.stderr)
    return results


def end_to_end_summary(results: dict[str, list[dict]], better: dict[str, str],
                       bounds: Optional[dict[str, float]] = None) -> dict:
    """A workload's entry under ``end_to_end``: pass counts and, for each
    end-to-end metric named in ``better``, :func:`summarize` over the pairs,
    with the flags of :func:`verdict` when ``bounds`` gives its bound."""
    summary: dict = {
        "pairs": len(results["parent"]),
        "failed_passes": {side: sum(r["failed"] for r in runs) for side, runs in results.items()},
        "attempted_passes": {side: sum(r["attempted"] for r in runs)
                             for side, runs in results.items()},
        "correct": all(r["correct"] for runs in results.values() for r in runs),
    }
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs]
                  for side, runs in results.items()}
        summary[name] = {"unit": results["parent"][0]["metrics"][name]["unit"],
                         "better": direction,
                         **summarize(values["parent"], values["change"], direction)}
        if bounds is not None:
            summary[name].update(verdict(summary[name], summary["pairs"], direction,
                                         bounds[name]))
    return summary


def per_layer_summary(results: dict[str, list[dict]]) -> dict:
    """A workload's entry under ``per_layer``: per side, the median of each
    layer metric over its traced runs."""
    return {side: {name: round(statistics.median(r["metrics"][name]["value"] for r in runs), 6)
                   for name in runs[0]["metrics"]}
            for side, runs in results.items()}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace-pairs", type=int, default=0,
                        help="traced pairs per workload, for per-layer medians")
    parser.add_argument("--trace-seconds", type=float, default=20)
    parser.add_argument("--note", default="", help="what the change does")
    parser.add_argument("--parent-label", default="", help="the parent commit")
    parser.add_argument("--claim", default="", help="the claimed gain, if any")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        warm_bytecode(checkout)
    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    command = "python3 bench/run.py --workload W --seed {} --seconds {} --trace {}"
    document: dict = {
        "change": args.note,
        "parent": args.parent_label,
        "host": (f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                 f"Python {platform.python_version()}; PYTHONDONTWRITEBYTECODE="
                 f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}; each side's src/ "
                 "compiled to bytecode before the first pair"),
        "end_to_end": {
            "command": command.format(args.seed, args.seconds, 0),
            "method": (f"{args.pairs} pairs per workload, alternating which side runs "
                       "first; per side the median and quartiles (exclusive method) of the "
                       "runs' values; change_wins counts the pairs in which the change is "
                       "better, ties counting for neither; claim_met: at least 9 in 10 "
                       "pairs won and the medians differ by more than the parent's "
                       "interquartile range; within_bound: the change's median is worse "
                       "than the parent's by at most the metric's BENCHMARK.json bound, "
                       "as a fraction of the parent's median"),
            "claim": args.claim,
            "workloads": {},
        },
    }
    for workload in args.workload:
        results = run_pairs(sides, workload, args.seed, args.seconds, 0, args.pairs)
        document["end_to_end"]["workloads"][workload] = end_to_end_summary(results, better,
                                                                           bounds)
    if args.trace_pairs:
        document["per_layer"] = {
            "command": command.format(args.seed, args.trace_seconds, 1),
            "method": f"{args.trace_pairs} alternating pairs per workload; medians of the "
                      "runs' per-layer means",
            "workloads": {},
        }
        for workload in args.workload:
            results = run_pairs(sides, workload, args.seed, args.trace_seconds, 1,
                                args.trace_pairs)
            document["per_layer"]["workloads"][workload] = per_layer_summary(results)
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
