"""Explainable anomaly detection for system logs.

The pipeline: parse logs (structured CSV or raw syslog) into timestamped
entries, one named tuple per line; extract logical facts from message
content; evaluate detection rules written in a stratified logic language
with negation-as-failure and count aggregates; and report every alert with
its full derivation chain.

The names below are the documented API. Everything else, such as the
reference oracle ``stratalog.oracle.naive_oracle``, is imported from its
submodule.
"""
from .analysis import CycleThroughNegation, SafetyError, check_safety, stratify
from .engine import Inconsistent, evaluate, explain, query
from .extract import DEFAULT_TABLE, entries_to_facts, entry_to_facts
from .facts import Fact, Symbol, fact, format_fact, write_facts_file
from .ingest import IngestOptions, read_csv_entries, read_syslog_entries
from .lang import format_program
from .parser import ParseError, parse_facts, parse_program
from .report import (
    Alert,
    RunConfig,
    StageError,
    detect,
    group_alerts,
    load_entries,
    render_alerts,
    render_grouped,
)
from .rules import ANOMALY_CATALOG, Thresholds, default_program

__version__ = "0.1.0"

__all__ = [
    "ANOMALY_CATALOG",
    "Alert",
    "CycleThroughNegation",
    "DEFAULT_TABLE",
    "Fact",
    "Inconsistent",
    "IngestOptions",
    "ParseError",
    "RunConfig",
    "SafetyError",
    "StageError",
    "Symbol",
    "Thresholds",
    "check_safety",
    "default_program",
    "detect",
    "entries_to_facts",
    "entry_to_facts",
    "evaluate",
    "explain",
    "fact",
    "format_fact",
    "format_program",
    "group_alerts",
    "load_entries",
    "parse_facts",
    "parse_program",
    "query",
    "read_csv_entries",
    "read_syslog_entries",
    "render_alerts",
    "render_grouped",
    "stratify",
    "write_facts_file",
]
