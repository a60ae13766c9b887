"""Log ingestion: structured CSV exports and classic raw syslog lines.

Both input shapes normalize to :class:`RawLogRecord`; pairing a record with
its integer Unix timestamp yields a :class:`LogEntry`. Log lines carry no
year, so the caller pins a base year (and optionally a fixed-offset zone)
to keep conversions deterministic across runs and machines.

A line or row that cannot become an entry is skipped and counted, with its
reason, in :class:`IngestResult`; every other line is kept. That covers
malformed fields, text holding U+FFFD (what an undecodable byte becomes
when the input is decoded with ``errors="replace"``) and dates that do not
exist in their year, such as Feb 30.

Reading and timestamping are one pass each. The CSV reader looks columns
up by their header position and checks and builds each record as it reads
the row; it reads exactly what :class:`csv.DictReader` would. Timestamps in a
fixed-offset zone (a :class:`datetime.timezone`) are each day's midnight,
computed once per day, plus the time of day; any other ``tzinfo`` goes
through :func:`to_timestamp` for every record, since only a full
``datetime`` knows where its offset changes.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone, tzinfo
from typing import IO, Callable, Iterable, Optional

MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}

#: The dataset's collection era; pinned so outputs do not depend on the run date.
DEFAULT_BASE_YEAR = 2005

REQUIRED_COLUMNS = (
    "LineId", "Month", "Date", "Time",
    "Component", "PID", "Content", "EventId", "EventTemplate",
)

_TIME_RE = re.compile(r"(\d{2}):(\d{2}):(\d{2})\Z")
# The common case, checked without converting: ASCII digits, in range.
# ``\d`` also takes other scripts' digits, which ``int`` reads.
_PLAIN_TIME_RE = re.compile(r"(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]\Z")

_UNDECODABLE = "\ufffd"

# Month Day hh:mm:ss host component[pid]: content   (pid optional)
_SYSLOG_RE = re.compile(
    r"(?P<month>[A-Z][a-z]{2})\s+(?P<day>\d{1,2})\s+(?P<time>\d{2}:\d{2}:\d{2})\s+"
    r"(?P<host>\S+)\s+(?P<component>[^\[\]:]+?)(?:\[(?P<pid>\d+)\])?:\s?(?P<content>.*)\Z"
)


class MissingColumnError(ValueError):
    """A required CSV column is absent from the header."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing required column: {column}")


class SyslogFormatError(ValueError):
    """A raw line does not match the syslog prefix grammar."""

    def __init__(self, line: str):
        self.line = line
        super().__init__(f"unparseable syslog line: {line!r}")


@dataclass(frozen=True, slots=True)
class RawLogRecord:
    line_id: int
    month: str
    day: int
    time_of_day: str
    level: Optional[str]
    component: str
    pid: Optional[int]
    content: str
    event_id: str
    event_template: str

    @property
    def month_number(self) -> int:
        return MONTHS[self.month]


@dataclass(frozen=True, slots=True)
class LogEntry:
    record: RawLogRecord
    timestamp: int


@dataclass(frozen=True)
class IngestOptions:
    base_year: int = DEFAULT_BASE_YEAR
    zone: tzinfo = timezone.utc


@dataclass
class IngestResult:
    records: list[RawLogRecord] = field(default_factory=list)
    skipped: int = 0
    errors: list[str] = field(default_factory=list)


def _check_record_fields(month: str, day: int, time_of_day: str, content: str) -> Optional[str]:
    if month not in MONTHS:
        return f"bad month {month!r}"
    if not 1 <= day <= 31:
        return f"day {day} out of range"
    if not _PLAIN_TIME_RE.match(time_of_day):
        m = _TIME_RE.match(time_of_day)
        if not m:
            return f"bad time {time_of_day!r}"
        if int(m[1]) > 23 or int(m[2]) > 59 or int(m[3]) > 59:
            return f"time {time_of_day!r} out of range"
    if not content:
        return "empty content"
    return None


def parse_structured_csv(stream: IO[str]) -> IngestResult:
    """Parse a structured log export (CSV with header) into raw records.

    Rows failing type checks, or whose kept text holds U+FFFD, are skipped
    and counted rather than aborting the run; a missing required column
    raises :class:`MissingColumnError`. Rows read as :class:`csv.DictReader`
    reads them: blank rows are dropped and not numbered, a short row's
    missing cells are ``None``, and a header name that occurs twice names
    its last column.
    """
    rows = csv.reader(stream)
    header = next(rows, [])
    for column in REQUIRED_COLUMNS:
        if column not in header:
            raise MissingColumnError(column)
    position = {name: i for i, name in enumerate(header)}
    (line_id_at, month_at, day_at, time_at, component_at, pid_at, content_at,
     event_id_at, template_at) = (position[column] for column in REQUIRED_COLUMNS)
    level_at = position.get("Level")
    width = len(header)

    result = IngestResult()
    records, errors = result.records, result.errors
    row_number = 1
    for row in rows:
        if not row:
            continue
        row_number += 1
        if len(row) < width:
            row += [None] * (width - len(row))
        try:
            line_id = int(row[line_id_at])
            day = int(row[day_at])
            pid_text = (row[pid_at] or "").strip()
            pid = int(pid_text) if pid_text else None
        except (TypeError, ValueError) as exc:
            errors.append(f"row {row_number}: {exc}")
            continue
        month = (row[month_at] or "").strip()
        time_of_day = (row[time_at] or "").strip()
        content = (row[content_at] or "").strip()
        level = None if level_at is None else row[level_at]
        component = (row[component_at] or "").strip()
        event_id = (row[event_id_at] or "").strip()
        event_template = (row[template_at] or "").strip()
        problem = _check_record_fields(month, day, time_of_day, content)
        if problem is None and line_id < 1:
            problem = f"line id {line_id} not positive"
        if problem is None and _UNDECODABLE in \
                f"{level or ''}{component}{content}{event_id}{event_template}":
            problem = "undecodable bytes"
        if problem is not None:
            errors.append(f"row {row_number}: {problem}")
            continue
        records.append(RawLogRecord(line_id, month, day, time_of_day, level, component,
                                    pid, content, event_id, event_template))
    result.skipped = len(errors)
    return result


def parse_raw_syslog_line(line: str, line_id: int = 1) -> RawLogRecord:
    """Parse one classic syslog line; the host field is parsed but not kept.

    The event id is set to the sentinel ``"raw"`` since unstructured input
    carries no template metadata.
    """
    m = _SYSLOG_RE.match(line.rstrip("\n"))
    if not m:
        raise SyslogFormatError(line)
    month = m.group("month")
    day = int(m.group("day"))
    content = m.group("content").strip()
    problem = _check_record_fields(month, day, m.group("time"), content)
    if problem is not None:
        raise SyslogFormatError(line)
    pid = m.group("pid")
    return RawLogRecord(
        line_id=line_id,
        month=month,
        day=day,
        time_of_day=m.group("time"),
        level=None,
        component=m.group("component").strip(),
        pid=int(pid) if pid is not None else None,
        content=content,
        event_id="raw",
        event_template="",
    )


def to_timestamp(record: RawLogRecord, base_year: int, zone: tzinfo = timezone.utc) -> int:
    """Unix epoch seconds of the record's calendar instant in the given zone.

    Raises ValueError for dates that do not exist (e.g. Feb 30).
    """
    hh, mm, ss = (int(part) for part in record.time_of_day.split(":"))
    moment = datetime(base_year, record.month_number, record.day, hh, mm, ss, tzinfo=zone)
    return int(moment.timestamp())


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _timestamper(base_year: int, zone: tzinfo) -> Callable[[RawLogRecord], int]:
    """``to_timestamp`` for one year and zone, equal to it on every record.

    In a fixed-offset zone an instant is its day's midnight plus the time of
    day, so each (month, day) costs one ``datetime`` and each record only
    arithmetic: the microseconds since the epoch, divided as
    ``datetime.timestamp`` divides them. It raises what ``to_timestamp``
    raises: the time is read first, as there; a time out of range is handed
    to ``to_timestamp``; a bad date fails in the ``datetime`` of its
    midnight."""
    if not isinstance(zone, timezone):
        return lambda record: to_timestamp(record, base_year, zone)
    midnights: dict[tuple[str, int], int] = {}

    def timestamp(record: RawLogRecord) -> int:
        hh, mm, ss = map(int, record.time_of_day.split(":"))
        if not (0 <= hh <= 23 and 0 <= mm <= 59 and 0 <= ss <= 59):
            return to_timestamp(record, base_year, zone)
        key = (record.month, record.day)
        midnight = midnights.get(key)
        if midnight is None:
            moment = datetime(base_year, record.month_number, record.day, tzinfo=zone)
            midnight = midnights[key] = (moment - _EPOCH) // _MICROSECOND
        return int((midnight + (hh * 3600 + mm * 60 + ss) * 1_000_000) / 1_000_000)

    return timestamp


def entries_from_records(result: IngestResult,
                         options: IngestOptions | None = None) -> list[LogEntry]:
    """Attach timestamps to the result's records, all in the base year. A
    record whose date does not exist in that year (Feb 30, or Feb 29 outside
    a leap year) moves from ``records`` to ``skipped``."""
    opts = options or IngestOptions()
    entries: list[LogEntry] = []
    year = opts.base_year
    timestamp = _timestamper(year, opts.zone)
    for record in result.records:
        try:
            entries.append(LogEntry(record, timestamp(record)))
        except ValueError:
            if record.day <= 28:
                raise  # every month has this day, so the year is out of range
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
    """Parse raw syslog text line by line; blank lines are ignored, and
    unparseable lines and lines holding U+FFFD are skipped and counted."""
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
