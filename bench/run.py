"""Benchmark of the stratalog pipeline, standard library only.

    python3 bench/run.py --workload hot --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program under test is
imported from the checkout's ``src/`` and nowhere else. The run:

1. draws the workload's input files from ``--seed`` (``corpus.py``) into
   ``.bench_build/`` under the checkout, with the expected results;
2. starts ``worker.py`` in a fresh process, which repeats checked passes for
   ``--seconds`` and reports their times, its own peak RSS and, between
   passes, the time a fresh interpreter takes to import ``stratalog.cli``;
   with ``--trace 1`` it runs traced passes instead and reports per-layer
   numbers.

It prints one line per metric, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``. Metric names,
units and bounds are in ``BENCHMARK.json`` at the checkout root.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "stratalog"
TIME_LIMIT_S = 170  # the whole run, worker included

E2E_UNITS = {"run_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB", "setup_s": "s"}
LAYER_UNITS = {
    "ingest.s": "s", "ingest.lines_per_s": "1/s", "ingest.skipped": "count",
    "extract.s": "s", "extract.facts": "count", "extract.hit_ratio": "ratio",
    "parser.s": "s",
    "analysis.s": "s", "analysis.strata": "count",
    "engine.evaluate.s": "s", "engine.evaluate.self_s": "s",
    "engine.atoms": "count", "engine.derived": "count",
    "engine.query.s": "s", "engine.explain.s": "s", "engine.explain.nodes": "count",
    "report.render.s": "s", "report.bytes": "B", "report.alerts": "count",
    "trace.overhead_ratio": "ratio", "trace.covered_ratio": "ratio",
}


def _env() -> dict[str, str]:
    # A fixed hash seed makes set and dict layouts, and so their costs,
    # repeat from run to run; the report bytes do not depend on it.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _percentile_line(samples: list[float]) -> str:
    """Sample count and median, plus the highest of p75/p90/p99 that leaves
    at least ten samples above it."""
    text = f"{len(samples)} passes; median {statistics.median(samples):.6f} s"
    for q in (99, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[q - 1]
            return f"{text}; p{q} {cut:.6f} s"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stratalog benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("hot", "spread", "closure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "stratalog" / "__init__.py").is_file():
        print(f"error: no stratalog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus  # imports stratalog for the generator's vocabulary

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        manifest = corpus.generate(args.workload, args.seed, work)
        corpus.write_manifest(manifest, work / "manifest.json")
        command = [sys.executable, str(HERE / "worker.py"),
                   "--manifest", str(work / "manifest.json"),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--spans-out", str(WORK / "traces" / f"{args.workload}-{args.seed}.json")]
        remaining = TIME_LIMIT_S - (time.perf_counter() - started)
        done = subprocess.run(command, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(report["stratalog"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported stratalog from {report['stratalog']}", file=sys.stderr)
        return 1
    for failure in report["failures"]:
        print(f"failed pass: {failure}", file=sys.stderr)

    plain = report["plain_s"]
    # The mean, not the median: on a shared machine the CPU speed changes in
    # phases of seconds to a minute, so pass times fall into a fast and a
    # slow group. A run's median jumps between the groups with the share of
    # time each phase got; the mean moves in proportion to it, and the
    # values of ten runs spread less (README.md, "Noise").
    run_s = statistics.fmean(plain)
    print(f"workload {args.workload}, seed {args.seed}, {manifest['items']} items")
    print(f"run_s {run_s:.6f} s (mean over {_percentile_line(plain)})")
    print(f"error_rate {report['failed'] / report['attempted']:.6f} ratio "
          f"({report['failed']} of {report['attempted']} passes failed)")
    if args.trace:
        layers = report.get("layers") or dict.fromkeys(LAYER_UNITS, 0.0)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        print(f"traced run_s {statistics.fmean(report['traced_s']):.6f} s "
              f"(mean over {_percentile_line(report['traced_s'])})")
    else:
        values = {
            "run_s": run_s,
            "items_per_s": manifest["items"] / run_s,
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(report["setup_s"]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
