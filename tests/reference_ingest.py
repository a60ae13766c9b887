"""The straightforward readers that ``stratalog.ingest`` must agree with.

A test oracle, as ``stratalog.oracle`` is for the engine: the CSV reader goes
through ``csv.DictReader`` and every timestamp through one aware
``datetime``. It shares only the record types and the column and month
names with the library, so a fast path there that reads a row, a field or
an instant differently shows up as a difference here.
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
    RawLogRecord,
    SyslogFormatError,
    parse_raw_syslog_line,
)

_TIME_RE = re.compile(r"(\d{2}):(\d{2}):(\d{2})\Z")
_UNDECODABLE = "\ufffd"


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


def parse_structured_csv(stream: IO[str]) -> IngestResult:
    reader = csv.DictReader(stream)
    header = reader.fieldnames or []
    for column in REQUIRED_COLUMNS:
        if column not in header:
            raise MissingColumnError(column)
    has_level = "Level" in header

    result = IngestResult()
    for row_number, row in enumerate(reader, start=2):
        try:
            line_id = int(row["LineId"])
            day = int(row["Date"])
            pid_text = (row["PID"] or "").strip()
            pid = int(pid_text) if pid_text else None
        except (TypeError, ValueError) as exc:
            result.skipped += 1
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
            result.skipped += 1
            result.errors.append(f"row {row_number}: {problem}")
            continue
        result.records.append(RawLogRecord(
            line_id=line_id, month=month, day=day, time_of_day=time_of_day,
            level=level, component=component, pid=pid, content=content,
            event_id=event_id, event_template=event_template,
        ))
    return result


def to_timestamp(record: RawLogRecord, base_year: int, zone: tzinfo = timezone.utc) -> int:
    hh, mm, ss = (int(part) for part in record.time_of_day.split(":"))
    moment = datetime(base_year, record.month_number, record.day, hh, mm, ss, tzinfo=zone)
    return int(moment.timestamp())


def entries_from_records(result: IngestResult,
                         options: IngestOptions | None = None) -> list[LogEntry]:
    opts = options or IngestOptions()
    entries: list[LogEntry] = []
    year = opts.base_year
    for record in result.records:
        try:
            entries.append(LogEntry(record, to_timestamp(record, year, opts.zone)))
        except ValueError:
            if record.day <= 28:
                raise
            result.skipped += 1
            result.errors.append(
                f"line {record.line_id}: no {record.month} {record.day} in {year}")
    result.records = [entry.record for entry in entries]
    return entries


def read_csv_entries(stream: IO[str],
                     options: IngestOptions | None = None) -> tuple[list[LogEntry], IngestResult]:
    result = parse_structured_csv(stream)
    return entries_from_records(result, options), result


def read_syslog_entries(lines: Iterable[str],
                        options: IngestOptions | None = None) -> tuple[list[LogEntry], IngestResult]:
    """The library's line parser, with the reference timestamps."""
    result = IngestResult()
    line_id = 0
    for line in lines:
        if not line.strip():
            continue
        line_id += 1
        if _UNDECODABLE in line:
            result.skipped += 1
            result.errors.append(f"undecodable bytes in syslog line: {line!r}")
            continue
        try:
            result.records.append(parse_raw_syslog_line(line, line_id=line_id))
        except SyslogFormatError as exc:
            result.skipped += 1
            result.errors.append(str(exc))
    return entries_from_records(result, options), result
