"""Log ingestion: CSV exports, raw syslog, timestamp conversion."""
import calendar
import csv
import io
import pickle
import random
from datetime import timedelta, timezone
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratalog.cli import EXIT_OK, main
from stratalog.extract import DEFAULT_TABLE, entries_to_facts
from stratalog.ingest import (
    REQUIRED_COLUMNS,
    IngestOptions,
    LogEntry,
    MissingColumnError,
    SyslogFormatError,
    _plain_seconds,
    _syslog_record,
    _timestamper,
    read_csv_entries,
    read_syslog_entries,
    to_timestamp,
)
from stratalog.report import RunConfig, load_entries
from conftest import SYSLOG_SAMPLE, make_csv_sample
import reference_ingest as reference

MONTH_NAMES = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


def entry(month="Jun", day=14, time_of_day="15:16:02", **kw) -> LogEntry:
    base = dict(line_id=1, month=month, day=day, time_of_day=time_of_day,
                level=None, component="sshd(pam_unix)", pid=123,
                content="x", event_id="E1", event_template="", timestamp=1118762162)
    base.update(kw)
    return LogEntry(**base)


class TestTimestampConversion:
    def test_known_instant(self):
        # calendar.timegm((2005, 6, 14, 15, 16, 2)) == 1118762162
        assert to_timestamp("Jun", 14, "15:16:02", 2005) == 1118762162

    def test_epoch_origin(self):
        assert to_timestamp("Jan", 1, "00:00:00", 1970) == 0

    def test_invalid_calendar_date(self):
        with pytest.raises(ValueError):
            to_timestamp("Feb", 30, "15:16:02", 2005)

    def test_agrees_with_independent_calendar_on_random_dates(self):
        rng = random.Random(20050614)
        days_in = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
        for _ in range(1000):
            month = rng.randrange(12)
            day = rng.randint(1, days_in[month])
            hh, mm, ss = rng.randrange(24), rng.randrange(60), rng.randrange(60)
            year = rng.randint(1971, 2037)
            expected = calendar.timegm((year, month + 1, day, hh, mm, ss))
            assert to_timestamp(MONTH_NAMES[month], day, f"{hh:02d}:{mm:02d}:{ss:02d}",
                                year) == expected

    def test_strictly_increasing_within_year(self):
        rng = random.Random(7)
        stamps = []
        keys = []
        days_in = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
        for _ in range(300):
            month = rng.randrange(12)
            day = rng.randint(1, days_in[month])
            hh, mm, ss = rng.randrange(24), rng.randrange(60), rng.randrange(60)
            keys.append((month, day, hh, mm, ss))
            stamps.append(to_timestamp(
                MONTH_NAMES[month], day, f"{hh:02d}:{mm:02d}:{ss:02d}", 2005))
        order = sorted(range(300), key=lambda i: keys[i])
        for a, b in zip(order, order[1:]):
            if keys[a] != keys[b]:
                assert stamps[a] < stamps[b]

    def test_fixed_offset_zone_shifts_result(self):
        utc = to_timestamp("Jun", 14, "15:16:02", 2005, timezone.utc)
        plus_two = to_timestamp("Jun", 14, "15:16:02", 2005, timezone(timedelta(hours=2)))
        assert plus_two == utc - 7200


class TestStructuredCsv:
    def test_parses_all_well_formed_rows(self):
        result = read_csv_entries(io.StringIO(make_csv_sample()))[1]
        assert len(result.records) == 9
        assert result.skipped == 0
        first = result.records[0]
        assert first.line_id == 1
        assert first.component == "sshd(pam_unix)"
        assert first.pid == 19939
        assert first.event_id == "E1"

    def test_field_values_survive_reserialization(self):
        text = make_csv_sample()
        result = read_csv_entries(io.StringIO(text))[1]
        rows = [{
            "LineId": str(r.line_id), "Month": r.month, "Date": str(r.day),
            "Time": r.time_of_day, "Component": r.component,
            "PID": "" if r.pid is None else str(r.pid),
            "Content": r.content, "EventId": r.event_id,
            "EventTemplate": r.event_template,
        } for r in result.records]
        again = read_csv_entries(io.StringIO(make_csv_sample(rows)))[1]
        assert again.records == result.records

    def test_missing_required_column(self):
        bad = make_csv_sample().replace("EventId", "EventCode")
        with pytest.raises(MissingColumnError) as err:
            read_csv_entries(io.StringIO(bad))[1]
        assert err.value.column == "EventId"

    def test_bad_rows_skipped_and_counted(self):
        rows = [
            {"LineId": "1", "Month": "Jun", "Date": "14", "Time": "15:16:02",
             "Component": "c", "PID": "", "Content": "ok", "EventId": "E1",
             "EventTemplate": ""},
            {"LineId": "x", "Month": "Jun", "Date": "14", "Time": "15:16:02",
             "Component": "c", "PID": "", "Content": "bad id", "EventId": "E1",
             "EventTemplate": ""},
            {"LineId": "3", "Month": "Junk", "Date": "14", "Time": "15:16:02",
             "Component": "c", "PID": "", "Content": "bad month", "EventId": "E1",
             "EventTemplate": ""},
            {"LineId": "4", "Month": "Jun", "Date": "34", "Time": "15:16:02",
             "Component": "c", "PID": "", "Content": "bad day", "EventId": "E1",
             "EventTemplate": ""},
            {"LineId": "5", "Month": "Jun", "Date": "14", "Time": "25:16:02",
             "Component": "c", "PID": "", "Content": "bad time", "EventId": "E1",
             "EventTemplate": ""},
            {"LineId": "6", "Month": "Jun", "Date": "14", "Time": "15:16:02",
             "Component": "c", "PID": "", "Content": "", "EventId": "E1",
             "EventTemplate": ""},
        ]
        result = read_csv_entries(io.StringIO(make_csv_sample(rows)))[1]
        assert len(result.records) == 1
        assert result.skipped == 5
        assert len(result.errors) == 5

    def test_entries_carry_timestamps(self):
        entries, result = read_csv_entries(io.StringIO(make_csv_sample()))
        assert len(entries) == 9
        assert result.skipped == 0
        assert entries[0].timestamp == calendar.timegm((2005, 6, 14, 15, 16, 1))


class TestRawSyslog:
    def test_component_and_pid(self):
        entries, _ = read_syslog_entries(io.StringIO(
            "Jun 14 15:16:01 combo sshd(pam_unix)[19939]: session opened for user test\n"))
        assert entries == [LogEntry(
            line_id=1, month="Jun", day=14, time_of_day="15:16:01", level=None,
            component="sshd(pam_unix)", pid=19939, content="session opened for user test",
            event_id="raw", event_template="", timestamp=1118762161)]

    def test_component_without_pid(self):
        assert _syslog_record("Jul 27 14:41:57 combo ftpd[31337]: connection from 1.2.3.4") == \
            ("Jul", 27, "14:41:57", "ftpd", 31337, "connection from 1.2.3.4", 52_917)
        assert _syslog_record(
            "Jun 15 04:06:20 combo logrotate: ALERT exited abnormally with [1]") == \
            ("Jun", 15, "04:06:20", "logrotate", None, "ALERT exited abnormally with [1]",
             14_780)

    def test_unparseable_line(self):
        with pytest.raises(SyslogFormatError):
            _syslog_record("garbage")

    def test_stream_skips_and_counts_bad_lines(self, syslog_sample):
        text = syslog_sample + "not a log line\n\n"
        entries, result = read_syslog_entries(io.StringIO(text))
        assert len(entries) == 9
        assert result.skipped == 1
        assert "not a log line" in result.errors[0]


class TestYearHandling:
    def test_single_year_by_default(self):
        text = "Dec 31 23:59:59 combo x: last\nJan 1 00:00:01 combo x: first\n"
        entries, _ = read_syslog_entries(io.StringIO(text), IngestOptions(base_year=2005))
        assert entries[0].timestamp == calendar.timegm((2005, 12, 31, 23, 59, 59))
        assert entries[1].timestamp == calendar.timegm((2005, 1, 1, 0, 0, 1))


class TestOneBadLineIsSkipped:
    """An undecodable byte or a date that does not exist costs one line, not
    the run; every non-blank line ends up in records or in skipped."""

    @staticmethod
    def sample(input_format: str) -> str:
        return SYSLOG_SAMPLE if input_format == "syslog" else make_csv_sample()

    @pytest.mark.parametrize("input_format", ["syslog", "csv"])
    def test_undecodable_byte(self, tmp_path, input_format):
        data = self.sample(input_format).encode("utf-8")
        data = data.replace(b"session closed for user cyrus", b"session closed for \xff")
        path = tmp_path / "input.log"
        path.write_bytes(data)
        config = RunConfig(input_path=str(path), input_format=input_format)
        entries, result = load_entries(config)
        assert len(entries) == len(result.records) == 8
        assert result.skipped == 1
        assert "undecodable" in result.errors[0]
        assert not any("session closed" in e.content for e in entries)

    @pytest.mark.parametrize("input_format", ["syslog", "csv"])
    @pytest.mark.parametrize("date, year, kept", [
        ("Feb 30", 2004, 8), ("Feb 29", 2005, 8), ("Feb 29", 2004, 9), ("Apr 31", 2005, 8)])
    def test_impossible_date(self, input_format, date, year, kept):
        month, day = date.split()
        text = self.sample(input_format)
        if input_format == "syslog":
            text = text.replace("Jun 15 04:06:19", f"{month} {day} 04:06:19")
            read = read_syslog_entries
        else:
            text = text.replace("7,Jun,15,04:06:19", f"7,{month},{day},04:06:19")
            read = read_csv_entries
        entries, result = read(io.StringIO(text), IngestOptions(base_year=year))
        assert len(entries) == len(result.records) == kept
        assert result.skipped == 9 - kept
        assert result.errors == ([] if kept == 9 else [f"line 7: no {date} in {year}"])

    def test_year_out_of_range_still_fails(self):
        with pytest.raises(ValueError, match="year 0 is out of range"):
            read_syslog_entries(io.StringIO(SYSLOG_SAMPLE), IngestOptions(base_year=0))


def _csv_row(line_id: int, content: str) -> dict:
    return {"LineId": str(line_id), "Month": "Jun", "Date": "14", "Time": f"15:16:0{line_id}",
            "Component": "sshd", "PID": "", "Content": content, "EventId": "E1",
            "EventTemplate": ""}


class TestOversizedField:
    """A field over ``csv.field_size_limit()`` costs its row, not the run."""

    TEXT = make_csv_sample([_csv_row(1, "first"), _csv_row(2, "x" * 200_000),
                            _csv_row(3, "third")])

    def test_row_is_skipped_and_the_next_is_read(self):
        entries, result = read_csv_entries(io.StringIO(self.TEXT, newline=""))
        assert [e.content for e in entries] == ["first", "third"]
        assert result.skipped == 1
        assert result.errors == [
            f"row 3: field larger than field limit ({csv.field_size_limit()})"]

    def test_cli_reports_the_skip(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(self.TEXT, encoding="utf-8")
        code = main(["detect", str(path), "--format", "csv"], env={})
        assert code == EXIT_OK
        assert capsys.readouterr().err == "note: skipped 1 unparseable line(s)\n"

    # A good row of its own, which csv.writer writes as is inside a quoted field.
    FORGED = make_csv_sample([_csv_row(7, "Failed password for root from 6.6.6.6 port 22 ssh2")]
                             ).splitlines()[1]
    BIG = "x" * 200_000

    @pytest.mark.parametrize("newline", ["", None])
    @pytest.mark.parametrize("content", [
        f"{BIG}\n{FORGED}\n{FORGED}",
        f"short\n{BIG}\n{FORGED}\n{FORGED}",
        f'a "quoted, text"\n{BIG}"\n{FORGED}\n"{FORGED}',
        "\n".join([BIG[:70_000]] * 3),
    ], ids=["fails-in-first-line", "fails-in-later-line", "doubled-quotes", "three-lines"])
    def test_field_over_lines_is_skipped_whole(self, content, newline):
        text = make_csv_sample([_csv_row(1, "first"), _csv_row(2, content),
                                _csv_row(3, "third")])
        assert (self.FORGED in content) == (f"\n{self.FORGED}\n" in text)
        entries, result = read_csv_entries(io.StringIO(text, newline=newline))
        assert [e.line_id for e in entries] == [1, 3]
        assert result.records is entries
        assert result.errors == [
            f"row 3: field larger than field limit ({csv.field_size_limit()})"]

    def test_in_the_header_is_a_value_error(self):
        text = self.TEXT.replace("EventTemplate", "x" * 200_000, 1)
        with pytest.raises(ValueError, match="CSV header: field larger than field limit"):
            read_csv_entries(io.StringIO(text, newline=""))


class TestValueTypes:
    """An entry is one named tuple: immutable, hashed and compared as the
    tuple of its fields, and printed and pickled by its fields' names."""

    ENTRY_REPR = ("LogEntry(line_id=1, month='Jun', day=14, time_of_day='15:16:02', "
                  "level=None, component='sshd(pam_unix)', pid=123, content='x', "
                  "event_id='E1', event_template='', timestamp=1118762162)")

    def test_repr(self):
        assert repr(entry()) == self.ENTRY_REPR

    @pytest.mark.parametrize("value", [
        read_syslog_entries(io.StringIO(SYSLOG_SAMPLE))[0][0],
        read_csv_entries(io.StringIO(make_csv_sample()))[0][0]])
    def test_immutable(self, value):
        with pytest.raises(AttributeError):
            value.month = "Jul"
        with pytest.raises(AttributeError):
            value.timestamp = 6
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_hash_and_equality_are_the_field_tuples(self):
        value = entry()
        fields = (1, "Jun", 14, "15:16:02", None, "sshd(pam_unix)", 123, "x", "E1", "",
                  1118762162)
        assert hash(value) == hash(tuple(value)) == hash(fields)
        assert value == fields and value != entry(day=15)

    def test_keywords(self):
        value = entry()
        assert LogEntry(*value) == value
        assert value._replace(timestamp=5) == entry(timestamp=5)

    def test_pickle_round_trip(self):
        value = entry()
        again = pickle.loads(pickle.dumps(value))
        assert again == value and type(again) is LogEntry

    @pytest.mark.parametrize("input_format", ["syslog", "csv"])
    def test_readers_build_the_named_types(self, input_format):
        if input_format == "syslog":
            entries, result = read_syslog_entries(io.StringIO(SYSLOG_SAMPLE))
        else:
            entries, result = read_csv_entries(io.StringIO(make_csv_sample()))
        assert {type(e) for e in entries} == {LogEntry}
        assert result.records is entries


# -- the two input shapes ---------------------------------------------------

_COMPONENTS = sorted({row.component_prefix for row in DEFAULT_TABLE} - {""}) + ["kernel", "su"]
_NEEDLES = sorted({row.content_contains for row in DEFAULT_TABLE} - {""})


@st.composite
def log_lines(draw):
    """Lines that the mapping table acts on, as (month, day, time, component,
    pid, content): components from its prefixes, contents from its needles
    with an address, a user and a uid around them."""
    component = draw(st.sampled_from(_COMPONENTS)) + draw(st.sampled_from(["", "(pam_unix)"]))
    parts = draw(st.lists(st.sampled_from(
        _NEEDLES + ["rhost=10.0.0.7", "from 1.2.3.4", "user=root", "for user cyrus",
                    "(uid=0)", "ok"]), min_size=1, max_size=4))
    return (draw(st.sampled_from(MONTH_NAMES)), draw(st.integers(1, 28)),
            "{:02d}:{:02d}:{:02d}".format(draw(st.integers(0, 23)), draw(st.integers(0, 59)),
                                          draw(st.integers(0, 59))),
            component, draw(st.one_of(st.none(), st.integers(1, 99999))), " ".join(parts))


def _both_shapes(lines):
    """The syslog text and the CSV export of the same lines."""
    syslog = "".join(f"{month} {day} {time} combo {component}"
                     f"{'' if pid is None else f'[{pid}]'}: {content}\n"
                     for month, day, time, component, pid, content in lines)
    rows = [{"LineId": str(i), "Month": month, "Date": str(day), "Time": time,
             "Component": component, "PID": "" if pid is None else str(pid),
             "Content": content, "EventId": f"E{i}", "EventTemplate": ""}
            for i, (month, day, time, component, pid, content) in enumerate(lines, start=1)]
    return syslog, make_csv_sample(rows)


class TestSyslogAndCsvAgree:
    """A syslog file and the CSV export of the same lines give the same
    entries, but for the CSV's event ids, and so the same facts."""

    @staticmethod
    def check(syslog_text, csv_text):
        syslog_entries, syslog_result = read_syslog_entries(io.StringIO(syslog_text))
        csv_entries, csv_result = read_csv_entries(io.StringIO(csv_text, newline=""))
        assert syslog_result.errors == csv_result.errors == []
        assert [e._replace(event_id="raw", event_template="") for e in csv_entries] == \
            syslog_entries
        assert entries_to_facts(csv_entries) == entries_to_facts(syslog_entries)
        return syslog_entries

    def test_sample(self):
        entries = self.check(SYSLOG_SAMPLE, make_csv_sample())
        assert len(entries) == 9
        assert len(entries_to_facts(entries)) == 8

    @settings(max_examples=60, deadline=None)
    @given(st.lists(log_lines(), min_size=1, max_size=6))
    def test_generated_lines(self, lines):
        assert len(self.check(*_both_shapes(lines))) == len(lines)


# -- the fast readers against the reference readers --------------------------

try:
    NEW_YORK = ZoneInfo("America/New_York")  # from the system's zone database
except ZoneInfoNotFoundError:
    NEW_YORK = None

PLUS_TWO = timezone(timedelta(hours=2))
ZONES = [timezone.utc, PLUS_TWO] + ([NEW_YORK] if NEW_YORK is not None else [])
COLUMNS = list(REQUIRED_COLUMNS) + ["Level", "Extra"]

# Month/day pairs around month ends, leap days and the US DST changes of
# 2005 (Apr 3, Oct 30) and 2007 (Mar 11, Nov 4).
_DATES = [("Jun", "14"), ("Jan", "1"), ("Dec", "31"), ("Feb", "28"), ("Feb", "29"),
          ("Feb", "30"), ("Apr", "30"), ("Apr", "31"), ("Apr", "3"), ("Oct", "30"),
          ("Mar", "11"), ("Nov", "4")]
_TIMES = ["00:00:00", "01:30:00", "02:30:00", "15:16:02", "23:59:59", "24:00:00",
          "12:60:00", "12:00:60", "1:00:00", "١٥:16:02", " 03:04:05 ", "", "12.30:00",
          "12:30.00"]


def _mostly(valid, odd):
    """About seven draws in eight from ``valid``, so that many rows become
    records."""
    return st.sampled_from(valid * -(-7 * len(odd) // len(valid)) + odd)


def _rarely():
    return _mostly([False], [True])


_FIELD = {
    "LineId": _mostly(["1", "7", "42"], ["0", "-3", " 9 ", "1_0", "+5", "١٢", "x", "", "9" * 30]),
    "Date": _mostly(["1", "14", "28"], ["0", "32", " 9 ", "١٤", "x", ""]),
    "PID": _mostly(["", "123"], [" 9 ", "-1", "١", "x"]),
    "Time": _mostly(_TIMES[:5], _TIMES[5:]),
    "Month": _mostly(["Jun", "Feb", "Apr"], ["Jux", "", " Dec "]),
}
_TEXT = _mostly(["sshd(pam_unix)", "authentication failure; rhost=1.2.3.4", "E1"],
                ["", " ", "a,b", 'say "hi"', "two\nlines", "\ufffd", "x\ufffdy", "É"])


@st.composite
def csv_texts(draw):
    """CSV text in the export's shape with every oddity the readers must
    agree on: column order, a missing Level, duplicated names (sometimes a
    missing required column), extra columns, blank and short rows, bad
    integers, U+FFFD, non-ASCII digits and impossible dates."""
    header = draw(st.permutations(COLUMNS))
    if draw(st.booleans()):
        header.remove("Level")
    header += draw(st.lists(st.sampled_from(COLUMNS), max_size=2))
    if draw(_rarely()):
        header.remove(draw(st.sampled_from(REQUIRED_COLUMNS)))
    sink = io.StringIO()
    writer = csv.writer(sink)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        if draw(_rarely()):
            writer.writerow([])
            continue
        month, day = draw(st.sampled_from(_DATES))
        row = []
        for name in header:
            if name == "Month" and draw(st.booleans()):
                row.append(month)
            elif name == "Date" and draw(st.booleans()):
                row.append(day)
            else:
                row.append(draw(_FIELD.get(name, _TEXT)))
        width = len(row) + draw(_mostly([0], [-3, -1, 1, 2]))
        writer.writerow((row + ["extra", "more"])[:max(width, 1)])
    return sink.getvalue()


def _outcome(read, text, options):
    """Entries and result of one read, or the exception it ended in."""
    try:
        entries, result = read(io.StringIO(text, newline=""), options)
    except Exception as exc:
        return type(exc), str(exc)
    return entries, result.records, result.skipped, result.errors


_options = st.builds(IngestOptions, base_year=st.sampled_from([2004, 2005, 2007]),
                     zone=st.sampled_from(ZONES))
# What the readers' own timestamps must match the reference on: years before
# 1970, the first and last years a datetime holds, year 0 (which the
# reference rejects) and fixed offsets down to the microsecond.
_SUB_SECOND_ZONES = st.builds(lambda us: timezone(timedelta(microseconds=us)),
                              st.integers(-86_399_999_999, 86_399_999_999))
_reference_options = st.builds(
    IngestOptions, base_year=st.sampled_from([2004, 2005, 2007, 1960, 1, 9999, 0]),
    zone=st.one_of(st.sampled_from(ZONES), _SUB_SECOND_ZONES))


class TestReadersAgreeWithReference:
    """The one-pass CSV reader and the per-day timestamps give what the
    ``DictReader`` and ``datetime`` readers of ``reference_ingest`` give:
    the same entries, records, skip count and error strings, or the same
    exception."""

    @settings(max_examples=150, deadline=None)
    @given(csv_texts(), _reference_options)
    @example(  # a duplicated name, a blank row, a short row, a padded Level
        "Month,Date,Time,Component,PID,Content,EventId,EventTemplate,Level,Content,LineId\n"
        "Jun,14,15:16:02,c,1,first,E1,t, info ,last,1\n"
        "\n"
        "Jun,14,15:16:02,c,1,x,E1,t\n"
        "Feb,29,15:16:02,c,1,x,E1,t,,x,3\n", IngestOptions())
    @example(make_csv_sample(), IngestOptions(base_year=1960,
                                              zone=timezone(timedelta(microseconds=1))))
    def test_csv(self, text, options):
        assert _outcome(read_csv_entries, text, options) == \
            _outcome(reference.read_csv_entries, text, options)

    @pytest.mark.parametrize("read, reference_read", [
        (read_csv_entries, reference.read_csv_entries),
        (read_syslog_entries, reference.read_syslog_entries)])
    def test_year_zero_raises_the_references_error(self, read, reference_read):
        text = make_csv_sample() if read is read_csv_entries else SYSLOG_SAMPLE
        options = IngestOptions(base_year=0)
        assert _outcome(read, text, options) == _outcome(reference_read, text, options) == \
            (ValueError, "year 0 is out of range")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(_DATES), st.sampled_from(_TIMES)),
        # lines skipped before any timestamp: no prefix, a bad time, an
        # undecodable byte, no content
        st.sampled_from(["not a log line", "Jun 14 24:00:00 combo x: y",
                         "Jun 14 15:16:02 combo x: \ufffd", "Jun 14 15:16:02 combo x:"])),
        max_size=8), _reference_options)
    def test_syslog(self, stamps, options):
        text = "".join(f"{stamp}\n" if isinstance(stamp, str) else
                       f"{stamp[0][0]} {stamp[0][1]} {stamp[1]} combo sshd[1]: line {i}\n"
                       for i, stamp in enumerate(stamps))
        assert _outcome(read_syslog_entries, text, options) == \
            _outcome(reference.read_syslog_entries, text, options)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(MONTH_NAMES + ["Jux"]),
        st.one_of(st.integers(-1, 32), st.just(10 ** 20)),
        st.one_of(st.sampled_from(_TIMES + ["1:2:3", "1:2", "1:2:3:4", "-0:0:0",
                                            "0:0:99999999999999999999"]),
                  st.builds("{}:{}:{}".format, st.integers(-1, 61),
                            st.integers(-1, 61), st.integers(-1, 61)))),
        max_size=4),
        st.integers(0, 10000),
        st.one_of(st.sampled_from(ZONES), _SUB_SECOND_ZONES))
    # before 1970 with a sub-second offset, truncating differs from flooring
    @example([("Jun", 14, "15:16:02")], 1960, timezone(timedelta(microseconds=1)))
    def test_hand_built_records(self, dates, year, zone):
        """``_timestamper`` gives the reference's timestamp, None where the
        date is not in the year, or the reference's error."""
        def reference_stamp(month, day, time_of_day):
            try:
                return reference.to_timestamp(month, day, time_of_day, year, zone)
            except ValueError:
                if day <= 28:
                    raise
                return None

        def outcome(stamp):
            try:
                return [stamp(*date) for date in dates]
            except Exception as exc:
                return type(exc), str(exc)

        timestamp = _timestamper(year, zone)
        assert outcome(lambda month, day, time_of_day: timestamp(
            month, day, time_of_day, _plain_seconds(time_of_day))) == outcome(reference_stamp)

    @pytest.mark.skipif(NEW_YORK is None, reason="no America/New_York in the zone database")
    def test_non_fixed_zone_across_a_dst_day(self):
        # 2005-04-03: 02:00 EST jumps to 03:00 EDT, so 01:30 and 03:30 are
        # one hour apart, and the day's midnight offset is wrong after 02:00.
        text = "Apr 3 01:30:00 combo x: a\nApr 3 03:30:00 combo x: b\n"
        entries, _ = read_syslog_entries(io.StringIO(text),
                                         IngestOptions(base_year=2005, zone=NEW_YORK))
        assert [e.timestamp for e in entries] == [1112509800, 1112513400]


class TestAnyTextIsReadOrSkipped:
    """Whatever the text, each reader ends with entries and counted skips,
    one for every non-blank line or row, and raises nothing."""

    @settings(max_examples=150, deadline=None)
    @given(st.text(), _options)
    def test_syslog(self, text, options):
        entries, result = read_syslog_entries(io.StringIO(text, newline=""), options)
        lines = [line for line in io.StringIO(text, newline="") if line.strip()]
        assert len(entries) == len(result.records)
        assert len(entries) + result.skipped == len(lines) == \
            len(entries) + len(result.errors)

    @settings(max_examples=150, deadline=None)
    @given(st.text(), _options)
    def test_csv(self, text, options):
        text = ",".join(COLUMNS) + "\n" + text
        entries, result = read_csv_entries(io.StringIO(text, newline=""), options)
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row][1:]
        assert len(entries) == len(result.records)
        assert len(entries) + result.skipped == len(rows) == \
            len(entries) + len(result.errors)
