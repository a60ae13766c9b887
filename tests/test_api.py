"""The public surface: the package's exported names, the demos using them,
and what a pass through it leaves behind."""
import gc
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import stratalog
from stratalog import cli
from stratalog import (
    Fact,
    RunConfig,
    detect,
    evaluate,
    explain,
    load_entries,
    parse_program,
    render_alerts,
)
from stratalog.analysis import Stratification
from stratalog.ingest import IngestResult
from conftest import SYSLOG_SAMPLE, make_csv_sample

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# What the README, the demos and the benchmark import, plus the errors those
# functions raise. Everything else is imported from its submodule.
EXPORTED = [
    "ANOMALY_CATALOG", "Alert", "CycleThroughNegation", "DEFAULT_TABLE", "Fact",
    "Inconsistent", "IngestOptions", "ParseError", "RunConfig", "SafetyError",
    "StageError", "Symbol", "Thresholds", "check_safety", "default_program",
    "detect", "entries_to_facts", "entry_to_facts", "evaluate", "explain", "fact",
    "format_fact", "format_program", "group_alerts", "load_entries", "parse_facts",
    "parse_program", "query", "read_csv_entries", "read_syslog_entries",
    "render_alerts", "render_grouped", "stratify", "write_facts_file",
]

# The child runs the copy of the package this process imported.
PACKAGE_ROOT = str(Path(stratalog.__file__).resolve().parent.parent)


def run_python(*args):
    # PYTHONDONTWRITEBYTECODE carries over, so the child leaves no
    # __pycache__ in the source tree when the caller asked for none.
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_exported_names_are_pinned_and_resolve():
    assert sorted(stratalog.__all__) == sorted(EXPORTED)
    assert len(set(stratalog.__all__)) == len(stratalog.__all__)
    for name in stratalog.__all__:
        assert getattr(stratalog, name) is not None


def test_import_leaves_the_oracle_unloaded():
    proc = run_python("-c", "import sys, stratalog; print('stratalog.oracle' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_loads_no_dataclasses():
    """No value type is built by the dataclass generator, so importing the
    command line loads neither ``dataclasses`` nor ``inspect``, which it
    imports."""
    proc = run_python("-c", "import sys, stratalog.cli; "
                            "print(sorted({'dataclasses', 'inspect'}.intersection(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_slotted_results_print_their_fields():
    assert repr(Stratification([("p",)], {"p": 0})) == \
        "Stratification(strata=[('p',)], level={'p': 0})"
    assert repr(IngestResult()) == "IngestResult(records=[], errors=[])"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


class TestNoCyclicGarbage:
    """A warm library or command-line pass leaves no reference cycles, so
    the cyclic collector finds nothing to free."""

    @staticmethod
    def garbage_of(run) -> int:
        """The unreachable objects a second run leaves, collector off."""
        run()
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize("input_format", ["syslog", "csv"])
    def test_detect_pass(self, tmp_path, input_format):
        path = tmp_path / "input.log"
        path.write_text(SYSLOG_SAMPLE if input_format == "syslog" else make_csv_sample())
        config = RunConfig(input_path=str(path), input_format=input_format)

        def run():
            entries, _ = load_entries(config)
            render_alerts(detect(entries, config), "text")

        assert self.garbage_of(run) == 0

    @pytest.mark.parametrize("input_format", ["syslog", "csv"])
    def test_cli_pass(self, tmp_path, input_format):
        path = tmp_path / "input.log"
        path.write_text(SYSLOG_SAMPLE if input_format == "syslog" else make_csv_sample())
        argv = ["detect", str(path), "--format", input_format, "--year", "2005"]

        def run():
            with redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv, env={}) == cli.EXIT_OK
            assert out.getvalue().startswith("potential_brute_force: ")

        assert self.garbage_of(run) == 0

    def test_closure_evaluate_and_explain(self):
        edges = "".join(f"e({i}, {i + 1}).\n" for i in range(60))
        text = "reach(X, Y) :- e(X, Y).\nreach(X, Z) :- reach(X, Y), reach(Y, Z).\n" + edges

        def run():
            _, graph = evaluate(parse_program(text), [])
            explain(graph, Fact("reach", (0, 60)))

        assert self.garbage_of(run) == 0
