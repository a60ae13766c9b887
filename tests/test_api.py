"""The public surface: the package's exported names and the demos using them."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratalog

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


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
