"""Command line interface.

One subcommand, ``detect``, runs the full pipeline over a log file and
prints alerts. Every flag can also be supplied through an environment
variable named ``STRATALOG_<FLAG>`` (dashes as underscores, e.g.
``STRATALOG_FACTS_OUT``); an explicit flag always wins over the
environment.

Exit codes: 0 for a clean run (with or without alerts), 1 for any error
(usage, unreadable input, bad rules, evaluation failure), 2 when the rule
program is inconsistent over the extracted facts (a constraint fired).
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import Callable, Mapping, Optional, Sequence

from .engine import Inconsistent
from .ingest import DEFAULT_BASE_YEAR, IngestResult
from .report import (
    RunConfig,
    StageError,
    detect,
    group_alerts,
    render_alerts,
    render_grouped,
    render_inconsistent,
    stream_entries,
)

ENV_PREFIX = "STRATALOG_"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONSISTENT = 2

_TRUTHY = {"1", "true", "yes", "on"}


class _Parser(argparse.ArgumentParser):
    # usage problems share exit code 1 with runtime errors; 2 is reserved
    # for the inconsistent-program result
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: each build leaves argparse's help
    formatters in reference cycles. Every flag defaults to None (unset)."""
    parser = _Parser(
        prog="stratalog",
        description="Detect anomalies in system logs with explainable logic rules.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "detect", help="run detection over a log file",
        description="Parse a log file, extract facts, evaluate the detection "
                    "rules, and print alerts with derivations.")
    p.add_argument("input", help="path to the log file")
    p.add_argument("--format", choices=("csv", "syslog"),
                   help="input format: structured CSV export or raw syslog lines")
    p.add_argument("--year", type=int,
                   help="base year for timestamps (log lines carry none); "
                        f"default {DEFAULT_BASE_YEAR}")
    p.add_argument("--rules", metavar="PATH",
                   help="rule file to run instead of the bundled program")
    p.add_argument("--extra-facts", metavar="PATH",
                   help="supplemental facts file (e.g. dormant_account facts)")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="override a #const threshold; repeatable")
    p.add_argument("--facts-out", metavar="PATH",
                   help="also write the extracted facts to this file")
    p.add_argument("--emit-rules", metavar="PATH",
                   help="also write the effective rule program to this file")
    p.add_argument("--output", choices=("text", "json"),
                   help="report format: readable text or json-lines")
    p.add_argument("--group", action="store_true", default=None,
                   help="collapse alerts sharing kind and entities into summaries")
    return parser


#: Each unset flag's value, from its ``STRATALOG_<DEST>`` text or None.
_FROM_ENV: dict[str, Callable[[Optional[str]], object]] = {
    "format": lambda raw: raw or "csv",
    "year": lambda raw: raw or DEFAULT_BASE_YEAR,
    "rules": lambda raw: raw,
    "extra_facts": lambda raw: raw,
    "set": lambda raw: [pair for pair in (raw or "").strip().split(",") if pair.strip()],
    "facts_out": lambda raw: raw,
    "emit_rules": lambda raw: raw,
    "output": lambda raw: raw or "text",
    "group": lambda raw: (raw or "").strip().lower() in _TRUTHY,
}


def _echo(text: str) -> str:
    """A value as a usage error quotes it: its first 20 characters."""
    return f"{text[:20]!r}..." if len(text) > 20 else repr(text)


def _parse_overrides(pairs: Sequence[str], parser: argparse.ArgumentParser) -> dict[str, int]:
    overrides: dict[str, int] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        name = name.strip()
        if not sep or not name:
            parser.error(f"--set expects NAME=VALUE, got {_echo(pair)}")
        value = raw.strip()
        try:
            overrides[name] = int(value)
        except ValueError:
            limit, digits = sys.get_int_max_str_digits(), value.lstrip("+-")
            if digits.isdecimal() and len(digits) > limit:
                parser.error(f"--set {name}: value has more than {limit} digits, "
                             f"got {_echo(value)}")
            parser.error(f"--set {name}: value must be an integer, got {_echo(value)}")
    return overrides


def main(argv: Optional[Sequence[str]] = None,
         env: Optional[Mapping[str, str]] = None) -> int:
    environment = os.environ if env is None else env
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, from_env in _FROM_ENV.items():
        if getattr(args, dest) is None:
            setattr(args, dest, from_env(environment.get(ENV_PREFIX + dest.upper())))
    overrides = _parse_overrides(args.set, parser)

    try:
        year = int(args.year)
    except (TypeError, ValueError):
        parser.error(f"--year must be an integer, got {args.year!r}")

    try:
        config = RunConfig(
            input_path=args.input,
            input_format=args.format,
            base_year=year,
            overrides=overrides,
            rules_path=args.rules,
            extra_facts_path=args.extra_facts,
            facts_out=args.facts_out,
            emit_rules=args.emit_rules,
            output=args.output,
            group=args.group,
        )
    except ValueError as exc:
        parser.error(str(exc))

    try:
        ingest_result = IngestResult()
        result = detect(stream_entries(config, ingest_result), config)
        if isinstance(result, Inconsistent):
            report = render_inconsistent(result, config.output)
        elif config.group:
            report = render_grouped(group_alerts(result), config.output)
        else:
            report = render_alerts(result, config.output)
    except StageError as exc:
        # one line per error, whatever the message holds
        message = exc.message.replace("\r", "\\r").replace("\n", "\\n")
        print(f"error in {exc.stage} stage: {message}", file=sys.stderr)
        return EXIT_ERROR

    if ingest_result.skipped:
        print(f"note: skipped {ingest_result.skipped} unparseable line(s)",
              file=sys.stderr)
    sys.stdout.write(report)
    return EXIT_INCONSISTENT if isinstance(result, Inconsistent) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
