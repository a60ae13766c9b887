"""Timed passes over one generated workload, in a fresh interpreter.

``run.py`` starts this script in its own process, so the process's peak
RSS covers only the program under test and never the corpus generator.

A *pass* is what a user of the system waits for:

- log workloads: ``stratalog detect FILE`` through ``stratalog.cli.main``,
  from the file on disk to the rendered text report;
- ``closure``: program text -> ``parse_program`` -> ``evaluate`` ->
  ``query`` -> ``explain`` of ``reach(first, last)``, for each program.

After one untimed warm-up pass, passes repeat until the time is up. Every
pass is checked against the generator's reference and against the first
pass's output digest; a pass that raises or fails a check counts as failed.
Each pass is followed by one set-up sample: a fresh interpreter importing
``stratalog.cli``. Spreading these samples over the run, like the passes,
keeps the set-up median from resting on one moment of a noisy machine.

With ``--trace 1`` untimed passes alternate with traced passes. A traced
pass rebuilds the same work from the public calls of each layer and wraps
each in a span (see ``Tracer``); its output must equal the untimed pass's.
The spans are kept in memory and written to a JSON file at the end.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stratalog import (
    ANOMALY_CATALOG,
    Alert,
    Fact,
    Inconsistent,
    RunConfig,
    Thresholds,
    check_safety,
    cli,
    default_program,
    entries_to_facts,
    evaluate,
    explain,
    load_entries,
    parse_facts,
    parse_program,
    query,
    render_alerts,
    stratify,
)

MIN_PASSES = 3
ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("ingest", "extract", "parser", "analysis", "engine.evaluate",
          "engine.query", "engine.explain", "report.render")
_SUMMARY = re.compile(r"(\w+): (\d+)")


class CheckFailed(Exception):
    pass


class Tracer:
    """In-memory spans: name, start, end and the index of the parent span.

    Spans of one pass share the pass number. Self time of a span is its
    duration minus the time its child spans cover.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [pass, name, start, end, parent]
        self.pass_number = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [self.pass_number, name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def self_times(self, pass_number: int) -> dict[str, float]:
        """Self seconds per span name within one pass."""
        own = {i: s[3] - s[2] for i, s in enumerate(self.spans) if s[0] == pass_number}
        for i in own:
            parent = self.spans[i][4]
            if parent in own:
                own[parent] -= self.spans[i][3] - self.spans[i][2]
        totals: dict[str, float] = {}
        for i, seconds in own.items():
            name = self.spans[i][1]
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def write(self, path: Path) -> None:
        fields = ("pass", "name", "start", "end", "parent")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(fields, s)) for s in self.spans]) + "\n",
                        encoding="utf-8")


def _walk(node):
    """Pre-order (depth, node) pairs of a derivation tree, without recursion."""
    stack = [(0, node)]
    while stack:
        depth, current = stack.pop()
        yield depth, current
        stack.extend((depth + 1, child) for child in reversed(current.children))


def _tree_digest(node) -> str:
    digest = hashlib.sha256()
    for depth, current in _walk(node):
        rule = "" if current.rule is None else f"{current.rule.span.line}:{current.rule.span.column}"
        digest.update(f"{depth} {current.atom} {rule}\n".encode())
    return digest.hexdigest()


class LogWorkload:
    def __init__(self, manifest: dict, directory: Path):
        self.input = str(directory / manifest["input"])
        self.extra = manifest["extra_facts"] and str(directory / manifest["extra_facts"])
        self.expected = {kind: int(n) for kind, n in manifest["expected"].items()}
        self.argv = ["detect", self.input, "--format", manifest["format"],
                     "--year", str(manifest["year"])]
        if self.extra:
            self.argv += ["--extra-facts", self.extra]
        self.config = RunConfig(input_path=self.input, input_format=manifest["format"],
                                base_year=manifest["year"], extra_facts_path=self.extra)

    def plain(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv, env={})
        if code != cli.EXIT_OK:
            raise CheckFailed(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def traced(self, tracer: Tracer):
        config = self.config
        with tracer.span("ingest"):
            entries, ingested = load_entries(config)
        with tracer.span("extract"):
            facts = entries_to_facts(entries, config.mapping_table)
        with tracer.span("parser"):
            extra = parse_facts(Path(self.extra).read_text(encoding="utf-8")) if self.extra else []
            program = parse_program(default_program(Thresholds()))
        with tracer.span("analysis"):
            violations = check_safety(program)
            strata = stratify(program)
        if violations:
            raise CheckFailed(f"bundled program unsafe: {violations}")
        with tracer.span("engine.evaluate"):
            result = evaluate(program, facts + extra)
        if isinstance(result, Inconsistent):
            raise CheckFailed(f"inconsistent: {result}")
        model, graph = result
        with tracer.span("engine.query"):
            found = [(entry, query(model, entry.predicate)) for entry in ANOMALY_CATALOG]
        with tracer.span("engine.explain"):
            explained = [(entry, atom, explain(graph, atom))
                         for entry, atoms in found for atom in atoms
                         if len(atom.args) == entry.arity]
        alerts = []
        for entry, atom, tree in explained:
            entities, timestamps = {}, []
            for role, value in zip(entry.arg_roles, atom.args):
                if role == "timestamp" and isinstance(value, int):
                    timestamps.append(value)
                else:
                    entities[role] = value
            alerts.append(Alert(entry.kind, entities, timestamps, atom, tree))
        alerts.sort(key=Alert.sort_key)
        with tracer.span("report.render"):
            text = render_alerts(alerts, "text")
        return text, lambda: {  # counted after the pass, outside its time
            "ingest.skipped": ingested.skipped,
            "ingest.lines": ingested.skipped + len(ingested.records),
            "extract.facts": len(facts),
            "extract.entries": len(entries),
            "analysis.strata": len(strata),
            "engine.atoms": len(model),
            "engine.derived": len(graph.entries),
            "engine.explain.nodes": sum(1 for alert in alerts for _ in _walk(alert.explanation)),
            "report.bytes": len(text.encode("utf-8")),
            "report.alerts": len(alerts),
        }

    def check(self, text: str) -> str:
        """The report's digest, after its totals matched the reference."""
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        total, _, detail = last.partition(" (")
        found = {kind: int(n) for kind, n in _SUMMARY.findall(detail)}
        if total != f"total: {sum(self.expected.values())}" or found != self.expected:
            raise CheckFailed(f"report says {last!r}, reference expects {self.expected}")
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ClosureWorkload:
    def __init__(self, manifest: dict, directory: Path):
        self.programs = [
            ((directory / p["file"]).read_text(encoding="utf-8"), p["path"], p["reach"])
            for p in manifest["programs"]]

    def plain(self):
        results = []
        for text, path, _ in self.programs:
            model, graph = evaluate(parse_program(text))
            reach = query(model, "reach")
            results.append((len(reach), explain(graph, Fact("reach", (path[0], path[-1])))))
        return results

    def traced(self, tracer: Tracer):
        results = []
        counts = {"analysis.strata": 0, "engine.atoms": 0, "engine.derived": 0}
        for text, path, _ in self.programs:
            with tracer.span("parser"):
                program = parse_program(text)
            with tracer.span("analysis"):
                check_safety(program)
                strata = stratify(program)
            with tracer.span("engine.evaluate"):
                model, graph = evaluate(program)
            with tracer.span("engine.query"):
                reach = query(model, "reach")
            with tracer.span("engine.explain"):
                tree = explain(graph, Fact("reach", (path[0], path[-1])))
            results.append((len(reach), tree))
            counts["analysis.strata"] += len(strata)
            counts["engine.atoms"] += len(model)
            counts["engine.derived"] += len(graph.entries)

        def count():
            nodes = sum(1 for _, tree in results for _ in _walk(tree))
            return dict(counts, **{"engine.explain.nodes": nodes})
        return results, count

    def check(self, results) -> str:
        """Closed-form reach counts; the explanation of reach(first, last)
        must rest on exactly the chain's edges."""
        digest = hashlib.sha256()
        for (count, tree), (_, path, expected) in zip(results, self.programs):
            if count != expected:
                raise CheckFailed(f"{count} reach atoms, expected {expected}")
            leaves = sorted(node.atom.args for _, node in _walk(tree) if node.rule is None)
            if leaves != sorted(zip(path, path[1:])):
                raise CheckFailed(f"explanation of reach({path[0]},{path[-1]}) "
                                  "does not rest on the chain's edges")
            digest.update(_tree_digest(tree).encode())
        return digest.hexdigest()


class Runner:
    """Runs and checks passes, keeping times and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.digest = None
        self.attempted = 0
        self.failures: list[str] = []

    def _accept(self, output) -> None:
        digest = self.workload.check(output)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("output differs from the first pass")

    def run(self, traced: bool, tracer: Tracer) -> tuple[float, dict]:
        gc.collect()
        self.attempted += 1
        counts: dict = {}
        start = time.perf_counter()
        try:
            if traced:
                with tracer.span("pass"):
                    output, count = self.workload.traced(tracer)
            else:
                output = self.workload.plain()
            elapsed = time.perf_counter() - start
            self._accept(output)
            if traced:
                counts = count()
        except Exception as exc:  # any failure of the program counts against it
            elapsed = time.perf_counter() - start
            self.failures.append(f"{type(exc).__name__}: {exc}")
        return elapsed, counts


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports ``stratalog.cli``."""
    # No timeout: with one, the wait polls at up to 50 ms steps, which
    # would quantize the sample.
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import stratalog.cli"], cwd=ROOT, check=True)
    return time.perf_counter() - start


def _layer_metrics(tracer: Tracer, traced_passes: list[int], counts: list[dict],
                   traced_s: list[float], plain_s: list[float]) -> dict[str, float]:
    per_pass = [tracer.self_times(n) for n in traced_passes]
    layer = {name: statistics.fmean(t.get(name, 0.0) for t in per_pass) for name in LAYERS}
    covered = [sum(t.get(name, 0.0) for name in LAYERS) / (sum(t.values()) or 1.0)
               for t in per_pass]
    c = counts[-1]
    lines, entries = c.get("ingest.lines", 0), c.get("extract.entries", 0)
    return {
        "ingest.s": layer["ingest"],
        "ingest.lines_per_s": lines / layer["ingest"] if layer["ingest"] else 0.0,
        "ingest.skipped": c.get("ingest.skipped", 0),
        "extract.s": layer["extract"],
        "extract.facts": c.get("extract.facts", 0),
        "extract.hit_ratio": c.get("extract.facts", 0) / entries if entries else 0.0,
        "parser.s": layer["parser"],
        "analysis.s": layer["analysis"],
        "analysis.strata": c["analysis.strata"],
        "engine.evaluate.s": layer["engine.evaluate"],
        # evaluate repeats check_safety and stratify internally
        "engine.evaluate.self_s": statistics.fmean(
            t.get("engine.evaluate", 0.0) - t.get("analysis", 0.0) for t in per_pass),
        "engine.atoms": c["engine.atoms"],
        "engine.derived": c["engine.derived"],
        "engine.query.s": layer["engine.query"],
        "engine.explain.s": layer["engine.explain"],
        "engine.explain.nodes": c["engine.explain.nodes"],
        "report.render.s": layer["report.render"],
        "report.bytes": c.get("report.bytes", 0),
        "report.alerts": c.get("report.alerts", 0),
        "trace.overhead_ratio": statistics.fmean(traced_s) / statistics.fmean(plain_s),
        "trace.covered_ratio": statistics.fmean(covered),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", required=True, type=Path)
    args = parser.parse_args(argv)

    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    directory = args.manifest.parent
    kind = LogWorkload if manifest["kind"] == "log" else ClosureWorkload
    runner = Runner(kind(manifest, directory))
    tracer = Tracer()

    runner.run(False, tracer)  # warm-up, checked but not timed
    plain_s: list[float] = []
    setup_s: list[float] = []
    traced_s: list[float] = []
    traced_passes: list[int] = []
    counts: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while len(plain_s) < MIN_PASSES or time.perf_counter() < deadline:
        plain_s.append(runner.run(False, tracer)[0])
        if not args.trace:
            setup_s.append(setup_seconds())
        else:
            tracer.pass_number += 1
            elapsed, pass_counts = runner.run(True, tracer)
            traced_s.append(elapsed)
            traced_passes.append(tracer.pass_number)
            counts.append(pass_counts)

    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:5],
        "plain_s": plain_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stratalog": sys.modules["stratalog"].__file__,
    }
    if args.trace:
        tracer.write(args.spans_out)
        if all(counts):  # a failed traced pass leaves its counts empty
            result["layers"] = _layer_metrics(tracer, traced_passes, counts, traced_s, plain_s)
        result["traced_s"] = traced_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
