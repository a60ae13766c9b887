"""Log ingestion: structured CSV exports and classic raw syslog lines.

Both input shapes normalize to :class:`LogEntry`, one named tuple per
kept line: its fields and its integer Unix timestamp. Log lines carry no
year, so the caller pins a base year (and optionally a fixed-offset zone)
to keep conversions deterministic across runs and machines.

The readers build each entry once, with :data:`stratalog.facts.new_tuple`,
a C call with no per-field Python work. An entry hashes as the tuple of
its fields and equals the plain tuple of its fields.

A line or row that cannot become an entry is skipped and counted, with its
reason, in :class:`IngestResult`; every other line is kept. That covers
malformed fields, a CSV field over :func:`csv.field_size_limit`, text
holding U+FFFD (what an undecodable byte becomes when the input is decoded
with ``errors="replace"``) and dates that do not exist in their year, such
as Feb 30. A date skip is listed after every field skip. A CSV row that
:mod:`csv` cannot read, such as one with an oversized field, is skipped
whole: its remaining lines, up to the line where it ends outside quotes,
are read past, so no text inside one of its fields is read as a row.

Each format has one reader loop, a generator (:func:`iter_csv_entries`,
:func:`iter_syslog_entries`) that yields each entry as it reads its line
and writes skip reasons into an :class:`IngestResult` as it goes.
:func:`read_csv_entries` and :func:`read_syslog_entries` drain it into a
list; the command line consumes it once, keeping no list of entries, so
its memory grows with the facts, not with the lines.

Both readers make entries in one pass: each checks, builds and
timestamps a line or row as it reads it, taking the time of day from the
check. The CSV reader looks columns up by their header position and reads
exactly what :class:`csv.DictReader` would. Timestamps in a fixed-offset
zone (a :class:`datetime.timezone`) are each day's midnight, computed once
per day, plus the time of day; any other ``tzinfo``, and any time that is
not plain ASCII ``hh:mm:ss``, goes through :func:`to_timestamp`, since
only a full ``datetime`` knows where its offset changes.
"""
from __future__ import annotations

import csv
import re
from datetime import datetime, timedelta, timezone, tzinfo
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional

from .facts import new_tuple

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

# Any hh:mm:ss; ``\d`` also takes other scripts' digits, which ``int`` reads.
_TIME_RE = re.compile(r"(\d{2}):(\d{2}):(\d{2})\Z")
# The seconds that each part of a plain time, ASCII ``hh:mm:ss`` in range,
# stands for: "hh:", "mm:" and "ss".
_HOURS = {f"{n:02d}:": n * 3600 for n in range(24)}
_MINUTES = {f"{n:02d}:": n * 60 for n in range(60)}
_SECONDS = {f"{n:02d}": n for n in range(60)}

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
        super().__init__(f"unparseable syslog line: {line!r}")


class LogEntry(NamedTuple):
    """One kept log line: its fields, then the Unix timestamp of its instant."""

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
    timestamp: int


class IngestOptions(NamedTuple):
    base_year: int = DEFAULT_BASE_YEAR
    zone: tzinfo = timezone.utc


class IngestResult:
    """A reader's skip reasons, in ``errors``, and the entries it kept, in
    ``records``, which the ``iter_*`` generators (so the CLI) leave empty."""

    __slots__ = ("records", "errors")

    def __init__(self) -> None:
        self.records, self.errors = [], []  # type: list[LogEntry], list[str]

    @property
    def skipped(self) -> int:
        return len(self.errors)

    def __repr__(self) -> str:
        return f"IngestResult(records={self.records!r}, errors={self.errors!r})"


def _plain_seconds(time_of_day: str) -> Optional[int]:
    """Seconds since midnight of a plain time, ASCII ``hh:mm:ss`` in range;
    None for any other text, which is checked and converted the slow way."""
    if len(time_of_day) != 8:
        return None
    hours = _HOURS.get(time_of_day[:3])
    minutes = _MINUTES.get(time_of_day[3:6])
    seconds = _SECONDS.get(time_of_day[6:])
    if hours is None or minutes is None or seconds is None:
        return None
    return hours + minutes + seconds


def _check_record_fields(month: str, day: int, time_of_day: str,
                         content: str) -> tuple[Optional[str], Optional[int]]:
    """The first problem with a record's fields, or None, and
    ``_plain_seconds`` of its time; a plain time needs no further check."""
    if month not in MONTHS:
        return f"bad month {month!r}", None
    if not 1 <= day <= 31:
        return f"day {day} out of range", None
    seconds = _plain_seconds(time_of_day)
    if seconds is None:
        m = _TIME_RE.match(time_of_day)
        if not m:
            return f"bad time {time_of_day!r}", None
        if int(m[1]) > 23 or int(m[2]) > 59 or int(m[3]) > 59:
            return f"time {time_of_day!r} out of range", None
    if not content:
        return "empty content", seconds
    return None, seconds


def _syslog_record(line: str) -> tuple[str, int, str, str, Optional[int], str, Optional[int]]:
    """One syslog line's month, day, time of day, component, pid and content
    (the host is dropped), and ``_plain_seconds`` of its time; a line the
    grammar or the field checks refuse raises :class:`SyslogFormatError`."""
    m = _SYSLOG_RE.match(line.rstrip("\n"))
    if not m:
        raise SyslogFormatError(line)
    month, day_text, time_of_day, _host, component, pid, content = m.groups()
    day = int(day_text)
    content = content.strip()
    problem, seconds = _check_record_fields(month, day, time_of_day, content)
    if problem is not None:
        raise SyslogFormatError(line)
    return (month, day, time_of_day, component.strip(), None if pid is None else int(pid),
            content, seconds)


def to_timestamp(month: str, day: int, time_of_day: str, base_year: int,
                 zone: tzinfo = timezone.utc) -> int:
    """Unix epoch seconds of the date's calendar instant in the given zone.

    Raises ValueError for dates that do not exist (e.g. Feb 30).
    """
    hh, mm, ss = (int(part) for part in time_of_day.split(":"))
    moment = datetime(base_year, MONTHS[month], day, hh, mm, ss, tzinfo=zone)
    return int(moment.timestamp())


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _timestamper(base_year: int,
                 zone: tzinfo) -> Callable[[str, int, str, Optional[int]], Optional[int]]:
    """``to_timestamp`` for one year and zone, equal to it on every date the
    year has, and None on any other (Feb 30, or Feb 29 outside a leap
    year). A year out of range raises ``ValueError``.

    The function takes a month, day and time of day, and ``_plain_seconds``
    of that time. In a fixed-offset zone, an instant with a plain time is
    its day's midnight plus those seconds, so each (month, day) costs one
    ``datetime`` and each line only arithmetic: the microseconds since the
    epoch, divided as ``datetime.timestamp`` divides them. A bad date fails
    in the ``datetime`` of its midnight. Any other zone or time goes
    through ``to_timestamp``."""
    fixed = isinstance(zone, timezone)
    midnights: dict[tuple[str, int], int] = {}

    def timestamp(month: str, day: int, time_of_day: str,
                  seconds: Optional[int]) -> Optional[int]:
        try:
            if seconds is None or not fixed:
                return to_timestamp(month, day, time_of_day, base_year, zone)
            key = (month, day)
            midnight = midnights.get(key)
            if midnight is None:
                moment = datetime(base_year, MONTHS[month], day, tzinfo=zone)
                midnight = midnights[key] = (moment - _EPOCH) // _MICROSECOND
            return int((midnight + seconds * 1_000_000) / 1_000_000)
        except ValueError:
            if day <= 28:
                raise  # every month has this day, so the year is out of range
            return None

    return timestamp


def _no_such_date(line_id: int, month: str, day: int, year: int) -> str:
    """The skip reason of a line whose date its year lacks."""
    return f"line {line_id}: no {month} {day} in {year}"


# Where the excel dialect is in a CSV record: at a field's start, in an
# unquoted field, in a quoted one, or just past a quote inside a quoted one.
_FIELD_START, _IN_FIELD, _IN_QUOTES, _QUOTE_IN_QUOTES = range(4)


def _remembering(lines: Iterable[str], last: list[str]) -> Iterator[str]:
    """The given lines, each kept in ``last[0]`` as it is read."""
    for line in lines:
        last[0] = line
        yield line


def _read_past_record(line: str, quoted: bool, lines: Iterator[str]) -> None:
    """Read past the rest of a CSV record that :mod:`csv` gave up on.

    ``line`` is the line it failed in and ``quoted`` whether that line
    starts inside a quoted field. :class:`csv.reader` goes on at the next
    line, which is still inside the record when the failed line ends inside
    quotes; so lines are taken from ``lines`` until one ends outside them,
    by the quote rules of the excel dialect."""
    state = _IN_QUOTES if quoted else _FIELD_START
    while True:
        for char in line:
            if state == _IN_QUOTES:
                if char == '"':
                    state = _QUOTE_IN_QUOTES
            elif char == '"' and state != _IN_FIELD:
                state = _IN_QUOTES
            elif char in "\r\n":
                return  # the record ends here
            elif char == ",":
                state = _FIELD_START
            else:
                state = _IN_FIELD
        if state != _IN_QUOTES:
            return
        line = next(lines, None)
        if line is None:
            return


def iter_csv_entries(stream: IO[str], options: IngestOptions | None,
                     result: IngestResult) -> Iterator[LogEntry]:
    """Yield the timestamped entries of a structured log export (CSV with
    header) as its rows are read, writing skip reasons into ``result``.

    Each row is checked, built and timestamped in one pass. A row failing a
    type check, whose kept text holds U+FFFD or that :mod:`csv` cannot read,
    such as one holding a field over :func:`csv.field_size_limit`, is
    skipped and counted, as is a row whose date its year lacks; those
    date skips are listed after every other, when the input ends. A missing
    required column raises :class:`MissingColumnError` at the first entry
    asked for, and a year out of range ``ValueError`` at the first dated
    row. Rows read as :class:`csv.DictReader`
    reads them: blank rows are dropped and not numbered, a short row's
    missing cells are ``None``, and a header name that occurs twice names
    its last column.
    """
    year, zone = options or IngestOptions()
    last_line = [""]
    lines = _remembering(stream, last_line)
    rows = csv.reader(lines)
    try:
        header = next(rows, [])
    except csv.Error as exc:
        raise ValueError(f"CSV header: {exc}") from exc
    for column in REQUIRED_COLUMNS:
        if column not in header:
            raise MissingColumnError(column)
    position = {name: i for i, name in enumerate(header)}
    (line_id_at, month_at, day_at, time_at, component_at, pid_at, content_at,
     event_id_at, template_at) = (position[column] for column in REQUIRED_COLUMNS)
    level_at = position.get("Level")
    width = len(header)

    timestamp = _timestamper(year, zone)
    errors = result.errors
    date_errors: list[str] = []
    row_number = 1
    while True:
        first_line = rows.line_num
        try:
            row = next(rows, None)
        except csv.Error as exc:
            row_number += 1
            errors.append(f"row {row_number}: {exc}")
            _read_past_record(last_line[0], rows.line_num - first_line > 1, lines)
            continue
        if row is None:
            break
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
        problem, seconds = _check_record_fields(month, day, time_of_day, content)
        if problem is None and line_id < 1:
            problem = f"line id {line_id} not positive"
        if problem is None and _UNDECODABLE in \
                f"{level or ''}{component}{content}{event_id}{event_template}":
            problem = "undecodable bytes"
        if problem is not None:
            errors.append(f"row {row_number}: {problem}")
            continue
        stamp = timestamp(month, day, time_of_day, seconds)
        if stamp is None:
            date_errors.append(_no_such_date(line_id, month, day, year))
            continue
        yield new_tuple(LogEntry, (line_id, month, day, time_of_day, level, component,
                                   pid, content, event_id, event_template, stamp))
    errors += date_errors


def read_csv_entries(stream: IO[str],
                     options: IngestOptions | None = None) -> tuple[list[LogEntry], IngestResult]:
    """All entries of :func:`iter_csv_entries`, kept in ``result.records``."""
    result = IngestResult()
    result.records.extend(iter_csv_entries(stream, options, result))
    return result.records, result


def iter_syslog_entries(lines: Iterable[str], options: IngestOptions | None,
                        result: IngestResult) -> Iterator[LogEntry]:
    """Yield the timestamped entries of raw syslog text as its lines are
    read, checking, building and timestamping each line in one pass, and
    write skip reasons into ``result``. Blank lines are ignored;
    unparseable lines, lines holding U+FFFD and lines whose date their year
    lacks are skipped and counted, the date skips listed last, when the
    input ends. A year out of range raises ``ValueError`` at the first
    dated line."""
    year, zone = options or IngestOptions()
    timestamp = _timestamper(year, zone)
    errors = result.errors
    date_errors: list[str] = []
    line_id = 0
    for line in lines:
        if not line.strip():
            continue
        line_id += 1
        if _UNDECODABLE in line:
            errors.append(f"undecodable bytes in syslog line: {line!r}")
            continue
        try:
            month, day, time_of_day, component, pid, content, seconds = _syslog_record(line)
        except SyslogFormatError as exc:
            errors.append(str(exc))
            continue
        stamp = timestamp(month, day, time_of_day, seconds)
        if stamp is None:
            date_errors.append(_no_such_date(line_id, month, day, year))
            continue
        # unstructured input carries no template: the event id is "raw"
        yield new_tuple(LogEntry, (line_id, month, day, time_of_day, None, component,
                                   pid, content, "raw", "", stamp))
    errors += date_errors


def read_syslog_entries(lines: Iterable[str],
                        options: IngestOptions | None = None) -> tuple[list[LogEntry], IngestResult]:
    """All entries of :func:`iter_syslog_entries`, kept in ``result.records``."""
    result = IngestResult()
    result.records.extend(iter_syslog_entries(lines, options, result))
    return result.records, result
