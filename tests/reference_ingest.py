"""The straightforward readers that ``stratalog.ingest`` must agree with.

A test oracle, as ``stratalog.oracle`` is for the engine: the CSV reader goes
through ``csv.DictReader``, the syslog reader through its own copy of the
line grammar, and every timestamp through one aware ``datetime``. It shares
only the entry and result types, the error types and the column and month
names with the library, so a fast path there that reads a row, a line, a
field or an instant differently shows up as a difference here.
"""
from __future__ import annotations

import csv
import re
from datetime import datetime, timezone, tzinfo
from typing import IO, Iterable, Optional

from stratalog.ingest import (
    MONTHS,
    REQUIRED_COLUMNS,
    IngestOptions,
    IngestResult,
    LogEntry,
    MissingColumnError,
    SyslogFormatError,
)

_TIME_RE = re.compile(r"(\d{2}):(\d{2}):(\d{2})\Z")
_UNDECODABLE = "\ufffd"
_SYSLOG_RE = re.compile(
    r"(?P<month>[A-Z][a-z]{2})\s+(?P<day>\d{1,2})\s+(?P<time>\d{2}:\d{2}:\d{2})\s+"
    r"(?P<host>\S+)\s+(?P<component>[^\[\]:]+?)(?:\[(?P<pid>\d+)\])?:\s?(?P<content>.*)\Z"
)


def check_record_fields(month: str, day: int, time_of_day: str, content: str) -> Optional[str]:
    if month not in MONTHS:
        return f"bad month {month!r}"
    if not 1 <= day <= 31:
        return f"day {day} out of range"
    m = _TIME_RE.match(time_of_day)
    if not m:
        return f"bad time {time_of_day!r}"
    hh, mm, ss = (int(g) for g in m.groups())
    if hh > 23 or mm > 59 or ss > 59:
        return f"time {time_of_day!r} out of range"
    if not content:
        return "empty content"
    return None


def parse_syslog_line(line: str, line_id: int) -> dict:
    """The fields of one syslog line, the host dropped and the event id
    ``"raw"``."""
    m = _SYSLOG_RE.match(line.rstrip("\n"))
    if not m:
        raise SyslogFormatError(line)
    day = int(m["day"])
    content = m["content"].strip()
    if check_record_fields(m["month"], day, m["time"], content) is not None:
        raise SyslogFormatError(line)
    return dict(line_id=line_id, month=m["month"], day=day, time_of_day=m["time"], level=None,
                component=m["component"].strip(),
                pid=None if m["pid"] is None else int(m["pid"]), content=content,
                event_id="raw", event_template="")


def parse_structured_csv(stream: IO[str]) -> tuple[list[dict], IngestResult]:
    """The fields of each row that passes the checks, and the skips."""
    reader = csv.DictReader(stream)
    header = reader.fieldnames or []
    for column in REQUIRED_COLUMNS:
        if column not in header:
            raise MissingColumnError(column)
    has_level = "Level" in header

    result = IngestResult()
    rows: list[dict] = []
    for row_number, row in enumerate(reader, start=2):
        try:
            line_id = int(row["LineId"])
            day = int(row["Date"])
            pid_text = (row["PID"] or "").strip()
            pid = int(pid_text) if pid_text else None
        except (TypeError, ValueError) as exc:
            result.errors.append(f"row {row_number}: {exc}")
            continue
        month = (row["Month"] or "").strip()
        time_of_day = (row["Time"] or "").strip()
        content = (row["Content"] or "").strip()
        level = row["Level"] if has_level else None
        component = (row["Component"] or "").strip()
        event_id = (row["EventId"] or "").strip()
        event_template = (row["EventTemplate"] or "").strip()
        problem = check_record_fields(month, day, time_of_day, content)
        if problem is None and line_id < 1:
            problem = f"line id {line_id} not positive"
        if problem is None and _UNDECODABLE in \
                f"{level or ''}{component}{content}{event_id}{event_template}":
            problem = "undecodable bytes"
        if problem is not None:
            result.errors.append(f"row {row_number}: {problem}")
            continue
        rows.append(dict(
            line_id=line_id, month=month, day=day, time_of_day=time_of_day,
            level=level, component=component, pid=pid, content=content,
            event_id=event_id, event_template=event_template,
        ))
    return rows, result


def to_timestamp(month: str, day: int, time_of_day: str, base_year: int,
                 zone: tzinfo = timezone.utc) -> int:
    hh, mm, ss = (int(part) for part in time_of_day.split(":"))
    moment = datetime(base_year, MONTHS[month], day, hh, mm, ss, tzinfo=zone)
    return int(moment.timestamp())


def timestamp_rows(rows: list[dict], result: IngestResult,
                   options: IngestOptions | None = None) -> list[LogEntry]:
    """An entry for each row whose date exists in the base year, kept as
    ``result.records``; each other row is counted as skipped."""
    opts = options or IngestOptions()
    year = opts.base_year
    for row in rows:
        try:
            stamp = to_timestamp(row["month"], row["day"], row["time_of_day"], year, opts.zone)
        except ValueError:
            if row["day"] <= 28:
                raise
            result.errors.append(f"line {row['line_id']}: no {row['month']} {row['day']} in {year}")
            continue
        result.records.append(LogEntry(**row, timestamp=stamp))
    return result.records


def read_csv_entries(stream: IO[str],
                     options: IngestOptions | None = None) -> tuple[list[LogEntry], IngestResult]:
    rows, result = parse_structured_csv(stream)
    return timestamp_rows(rows, result, options), result


def read_syslog_entries(lines: Iterable[str],
                        options: IngestOptions | None = None) -> tuple[list[LogEntry], IngestResult]:
    result = IngestResult()
    rows: list[dict] = []
    line_id = 0
    for line in lines:
        if not line.strip():
            continue
        line_id += 1
        if _UNDECODABLE in line:
            result.errors.append(f"undecodable bytes in syslog line: {line!r}")
            continue
        try:
            rows.append(parse_syslog_line(line, line_id))
        except SyslogFormatError as exc:
            result.errors.append(str(exc))
    return timestamp_rows(rows, result, options), result
